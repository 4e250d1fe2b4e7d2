"""Results pinned across commits.

Each corpus program runs on pipelines A and B in reverse mode and under
the four checkpoint schedules of the benchmark's ``ckpt-sched-b``
workload, all at alpha = 8.  One digest per (program, pipeline) covers,
for every run in turn, the value's float bits, the step count
``run_program`` returns, ``last_length``, the recompute steps, the leaf
count and leaf steps, the snapshot peak and the driver's event trace.
The tape peak is left out: lowering it is a goal, not a change of result.

``golden.json`` holds the digests.  A change that is meant to alter
results regenerates it with ``PYTHONPATH=src python tests/test_golden.py``
and says why.
"""

import hashlib
import json
import struct
from pathlib import Path

from ckad.drivers import RunConfig, parse_criterion
from ckad.metrics import METER
from ckad.values import Pair

from conftest import CORPUS_SMALL, load_corpus, make_machine

GOLDEN = Path(__file__).resolve().parent / "golden.json"
PROGRAMS = CORPUS_SMALL + ["bench_2_8"]
ALPHA = 8
#: (mode, algorithm, split, criterion): reverse mode, then ckpt-sched-b's
SCHEDULES = [
    ("reverse", "binary", "bisection", "log"),
    ("checkpoint", "binary", "bisection", "log"),
    ("checkpoint", "treeverse", "binomial", "fixed-space=3"),
    ("checkpoint", "bisect", "bisection", "log"),
    ("checkpoint", "binary", "binomial", "fixed-time=3"),
]


def value_bits(v) -> list:
    out, stack = [], [v]
    while stack:
        cur = stack.pop()
        if type(cur) is Pair:
            stack += (cur.cdr, cur.car)
        elif type(cur) is float:
            out.append(struct.unpack("<q", struct.pack("<d", cur))[0])
        else:
            out.append(repr(cur))
    return out


def digest(name: str, pipeline: str) -> str:
    program = load_corpus(name)
    runs = []
    for mode, algorithm, split, criterion in SCHEDULES:
        config = RunConfig(mode=mode, algorithm=algorithm, split=split,
                           criterion=parse_criterion(criterion), alpha=ALPHA)
        METER.reset(trace=True)
        value, steps = make_machine(pipeline, config).run_program(program)
        runs.append((value_bits(value), steps, config.last_length,
                     METER.recompute_steps, METER.leaves, METER.leaf_steps,
                     METER.snap_peak, METER.trace))
    METER.reset()
    return hashlib.sha256(repr(runs).encode()).hexdigest()[:16]


def digests() -> dict:
    return {f"{name}/{pipeline}": digest(name, pipeline)
            for name in PROGRAMS for pipeline in ("a", "b")}


def test_results_match_the_golden_digests():
    assert digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
