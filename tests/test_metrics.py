"""Metrics collection: meter bookkeeping, trace serialization, CSV row
layout, and the space/recompute trends the meter is meant to expose."""

import json
import math

import pytest

from ckad.cps import CpsMachine
from ckad.drivers import (RunConfig, checkpoint_reverse_bisect,
                          run_checkpoint)
from ckad.extended import ExtendedMachine
from ckad.metrics import CSV_COLUMNS, METER, Meter, RunMetrics
from ckad.parser import parse_program


def test_meter_tape_high_water_mark():
    m = Meter()
    m.cells_created(5)
    m.cells_created(3)
    m.cells_released(6)
    m.cells_created(2)
    assert m.tape_peak == 8
    assert m.tape_live == 4


# programs that hold two tapes open at once, with their tape peaks as the
# per-cell meter counted them
TWO_TAPE_PROGRAMS = [
    # a *j inside every checkpoint-*j leaf (14 leaves at alpha=8)
    ("""
(define (g y) (* y (sin y)))
(define (loop x k)
  (if (< k 0.5) x (loop (+ x (* 0.1 (cdr (*j g x 1.0)))) (- k 1.0))))
(checkpoint-*j (lambda (x) (loop x 6.0)) 0.9 1.0)
""", {"checkpoint": 15, "reverse": 68}),
    # reverse over reverse
    ("""
(define (g y) (* y (exp (* 0.5 y))))
(*j (lambda (x) (cdr (*j g x 1.0))) 0.9 1.0)
""", {"checkpoint": 17, "reverse": 17}),
]


@pytest.mark.parametrize("source,peaks", TWO_TAPE_PROGRAMS)
@pytest.mark.parametrize("machine", [CpsMachine, ExtendedMachine])
def test_tape_peak_counts_every_open_tape(source, peaks, machine):
    program = parse_program(source)
    for mode, peak in peaks.items():
        METER.reset()
        machine(RunConfig(mode=mode, alpha=8)).run_program(program)
        assert METER.tape_peak == peak, mode
        assert METER.tape_live == 0
    METER.reset()


def test_meter_snapshot_accounting():
    m = Meter()
    a = m.snapshot(0)
    b = m.snapshot(10)
    assert a != b
    m.release(b, 10)
    c = m.snapshot(20)
    assert m.snap_peak == 2
    m.release(c, 20)
    m.release(a, 0)
    assert m.snap_live == 0


def test_meter_trace_only_when_enabled():
    m = Meter()
    m.advance(0, 5)
    assert m.trace == [] and m.recompute_steps == 5
    m.reset(trace=True)
    m.advance(0, 5)
    m.leaf(5, 9)
    m.done()
    assert m.trace == [("advance", 0, 5), ("seed", 9), ("leaf", 5, 9),
                       ("done",)]
    assert m.leaves == 1 and m.leaf_steps == 4


def test_trace_jsonl_roundtrip(tmp_path):
    m = Meter()
    m.reset(trace=True)
    sid = m.snapshot(0)
    m.advance(0, 7)
    m.leaf(7, 12)
    m.release(sid, 0)
    m.done()
    path = tmp_path / "trace.jsonl"
    m.write_trace_jsonl(str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["event"] for r in records] == [
        "snapshot", "advance", "seed", "leaf", "release", "done"]
    assert records[1] == {"event": "advance", "from": 0, "to": 7}
    assert records[0] == {"event": "snapshot", "id": sid, "at": 0}


def test_run_metrics_csv_row_order():
    rm = RunMetrics(mode="checkpoint", algorithm="binary", split="bisection",
                    criterion="log", alpha=64, pipeline="a", n=2, l=8,
                    L=4595, peak_tape=10, peak_snapshots=3,
                    recompute_steps=100, leaves=7, wall_ms=1.5)
    row = rm.csv_row()
    assert len(row) == len(CSV_COLUMNS)
    assert row[CSV_COLUMNS.index("L")] == 4595
    assert row[CSV_COLUMNS.index("wall_ms")] == 1.5
    assert row[0] == "checkpoint"


# -- trends --------------------------------------------------------------------

def loop_program(iters):
    return parse_program(f"""
(define (step x i)
  (if (< i 0.5) x (step (+ (* 0.999 x) (* 0.05 (sin (* x 0.7)))) (- i 1.0))))
(define (main x) (step x {float(iters)!r}))
(cons main 1.3)
""")


def measure(iters, mode):
    m = CpsMachine(RunConfig(mode="reverse"))
    pair, _ = m.run_program(loop_program(iters))
    f, x = pair.car, pair.cdr
    L = m.primops(f, x)
    METER.reset()
    if mode == "reverse":
        m.reverse_base(f, x, 1.0)
    else:
        checkpoint_reverse_bisect(m, f, x, 1.0, 64, length=L)
    return L, METER.tape_peak, METER.snap_peak, METER.recompute_steps, \
        METER.leaves


def test_plain_reverse_tape_grows_linearly():
    L1, tape1, snaps1, rec1, _ = measure(100, "reverse")
    L2, tape2, snaps2, rec2, _ = measure(200, "reverse")
    assert snaps1 == 0 and rec1 == 0  # no checkpointing machinery at all
    ratio_L = L2 / L1
    ratio_tape = tape2 / tape1
    assert abs(ratio_tape - ratio_L) / ratio_L < 0.1


def test_checkpoint_tape_stays_flat_while_length_grows():
    L1, tape1, _, _, leaves1 = measure(100, "checkpoint")
    L2, tape2, _, _, leaves2 = measure(800, "checkpoint")
    assert L2 > 6 * L1
    assert tape2 <= tape1 * 1.25  # flat up to a small constant
    # leaf count tracks ceil(L / alpha) up to the rounding of bisection
    assert math.ceil(L2 / 64) <= leaves2 <= 2 * math.ceil(L2 / 64)


def test_checkpoint_snapshots_grow_logarithmically():
    L1, _, snaps1, _, _ = measure(100, "checkpoint")
    L2, _, snaps2, _, _ = measure(1600, "checkpoint")
    assert snaps2 <= snaps1 + math.log2(L2 / L1) + 1


def test_recompute_within_half_log_factor():
    # bisection recompute is ~ (L/2) * log2(L / alpha)
    L, _, _, rec, _ = measure(400, "checkpoint")
    levels = math.log2(L / 64)
    assert rec <= L * (levels + 1) / 2
    assert rec >= L * max(levels - 1, 0) / 2


def test_execute_program_fills_metrics():
    from ckad.bench import execute_program
    src = """
(define (step x i)
  (if (< i 0.5) x (step (* 0.9 x) (- i 1.0))))
(define (main x) (step x 40.0))
(checkpoint-*j main 1.3 1.0)
"""
    cfg = RunConfig(mode="checkpoint", algorithm="bisect", alpha=16)
    value, metrics = execute_program(parse_program(src), cfg, "a")
    assert metrics.L > 0
    assert metrics.peak_tape > 0
    assert metrics.algorithm == "bisect"
    assert metrics.pipeline == "a"
    assert metrics.wall_ms >= 0.0
