"""The package's import surface: what importing a pipeline loads, the
names ``ckad`` re-exports, and no module importing a name it never uses."""

import ast
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


def imported_names(tree) -> set:
    """The names a module's imports bind, but for ``from __future__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_every_imported_name_is_used():
    unused = {}
    for path in sorted(Path(ckad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        # a name read only inside a string annotation counts as unused:
        # with ``from __future__ import annotations`` none needs quoting
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        names = imported_names(tree) - used
        if names:
            unused[path.name] = sorted(names)
    assert unused == {}
