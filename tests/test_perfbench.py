"""Smoke run of the gradient benchmark under ``perfbench/``.

The benchmark's tracer wraps package entry points by name from outside,
so a refactor that removes or renames one of them breaks the benchmark
without breaking any other test.  ``--quick`` runs every workload and
every output check on tiny sizes in a few seconds.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_quick_run_is_correct():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip().splitlines()[-1] == '{"correct": true}'
