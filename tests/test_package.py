"""The package's import surface: what importing a pipeline loads, and the
names ``ckad`` re-exports."""

import os
import subprocess
import sys
from pathlib import Path

import ckad

_CHILD = """
import sys
import ckad.cps, ckad.extended
loaded = sorted(m for m in ("ckad.bench", "ckad.direct", "ckad.drivers")
                if m in sys.modules)
print(" ".join(loaded) or "-")
import ckad
for name in ckad.__all__:
    getattr(ckad, name)
from ckad import CpsMachine, RunConfig, parse_program
print(len(ckad.__all__))
"""


def test_importing_the_pipelines_loads_only_what_they_use():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(ckad.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _CHILD], capture_output=True,
                         text=True, env=env, timeout=60, check=True)
    loaded, count = out.stdout.split("\n")[:2]
    assert loaded == "-"
    assert int(count) == len(ckad.__all__)
