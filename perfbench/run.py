"""Gradient benchmark for ckad: time and storage of checkpointed reverse mode.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

One run is one fresh, single-threaded process at the interpreter's default
recursion limit.  It sets the package up from ``src/``, then acts as one
closed-loop caller: it computes gradients back to back, in whole rounds of
the workload's schedules, until ``--seconds`` have passed.  It then checks
every output against references that do not depend on an earlier run and
prints one JSON object as the last line of standard output.  With
``--trace 0`` that object holds the end-to-end metrics; with ``--trace 1``
the run spends half its time untraced and half traced, and the object
holds the per-layer metrics.  ``--quick`` runs every workload and every
check on tiny sizes.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import programs  # noqa: E402
from spans import Tracer  # noqa: E402

ALPHA = 64
SETUP_SAMPLES = 15  # this process's own set-up plus fourteen fresh processes
FD_STEP = 1e-6
FD_TOLERANCE = 1e-5
ROUNDING = 1e-12
# the closures the program body returns, in order
CLOSURES = ("main", "grad", "grad-taped", "hvp", "hvp-taped")


@dataclass(frozen=True)
class Schedule:
    mode: str = "checkpoint"
    algorithm: str = "binary"
    split: str = "bisection"
    criterion: str = "log"


@dataclass(frozen=True)
class Workload:
    pipeline: str     # "a" (CPS interpreter) or "b" (converted code)
    op: str           # "grad" or "hvp"
    n: int            # state dimension
    l: int            # outer iterations
    schedules: tuple  # one round: one gradient under each
    quick: tuple      # (n, l) for --quick


LOG = Schedule()
WORKLOADS = {
    "ckpt-wide-a": Workload("a", "grad", 100, 4, (LOG,), (8, 4)),
    "ckpt-sched-b": Workload("b", "grad", 10, 8, (
        LOG,
        Schedule(algorithm="treeverse", split="binomial",
                 criterion="fixed-space=3"),
        Schedule(algorithm="bisect"),
        Schedule(split="binomial", criterion="fixed-time=3"),
    ), (4, 8)),
    "reverse-long-a": Workload("a", "grad", 100, 16,
                               (Schedule(mode="reverse"),), (8, 8)),
    "hvp-nested-a": Workload("a", "hvp", 10, 8, (LOG,), (4, 8)),
}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(pipeline: str, n: int, l: int):
    """Import the package, generate and parse the program, convert it
    (pipeline B) and install its definitions.  Returns the seconds taken,
    the machine and the program's closures by name."""
    start = time.perf_counter()
    from ckad import parser
    from ckad.cps import CpsMachine
    from ckad.extended import ExtendedMachine
    program = parser.parse_program(programs.source(n, l))
    machine = (CpsMachine if pipeline == "a" else ExtendedMachine)(None)
    value, _count = machine.run_program(program)
    closures = dict(zip(CLOSURES, items(value)))
    return time.perf_counter() - start, machine, closures


def setup_samples(name: str, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes, one after another."""
    times = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def run_config(schedule: Schedule):
    from ckad.drivers import RunConfig, parse_criterion
    return RunConfig(mode=schedule.mode, algorithm=schedule.algorithm,
                     split=schedule.split,
                     criterion=parse_criterion(schedule.criterion),
                     alpha=ALPHA)


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

def to_value(xs: list[float]):
    """A language list of fresh float objects (shared objects would mean
    shared dataflow to the reverse sweep)."""
    from ckad.values import EMPTY, Pair
    out = EMPTY
    for v in reversed(xs):
        out = Pair(v * 1.0, out)
    return out


def hvp_arg(x: list[float], d: list[float]):
    """The ``hvp`` operations' argument: (state . direction)."""
    from ckad.values import Pair
    return Pair(to_value(x), to_value(d))


def items(v) -> list:
    """The elements of a language list."""
    from ckad.values import EMPTY
    out = []
    while v is not EMPTY:
        out.append(v.car)
        v = v.cdr
    return out


def bits(v) -> bytes:
    """The float bits of every leaf of a tree of pairs, in order."""
    from ckad.values import EMPTY, Pair
    leaves, stack = [], [v]
    while stack:
        cur = stack.pop()
        if type(cur) is Pair:
            stack.append(cur.cdr)
            stack.append(cur.car)
        elif cur is not EMPTY:
            leaves.append(cur)
    return struct.pack(f"<{len(leaves)}d", *leaves)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def dot(a: list[float], b: list[float]) -> float:
    return math.fsum(p * q for p, q in zip(a, b))


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

@dataclass
class Op:
    round: int
    schedule: int
    seconds: float
    value: object
    tape_peak: int
    snap_peak: int
    recompute_steps: int
    leaves: int
    leaf_steps: int
    length: int | None


def closed_loop(machine, fn, arg, schedules, seconds, run_op):
    """Whole rounds of one gradient per schedule, at least one, within
    ``seconds``.  Returns the operations done and the number that failed."""
    from ckad.errors import CkadError
    from ckad.metrics import METER
    configs = [run_config(s) for s in schedules]
    ops, failed = [], 0
    METER.reset()
    start = time.perf_counter()
    for round_ in itertools.count():
        for i, config in enumerate(configs):
            machine.config = config
            METER.tape_peak = METER.tape_live
            METER.snap_peak = METER.snap_live
            before = (METER.recompute_steps, METER.leaves, METER.leaf_steps)
            t0 = time.perf_counter()
            try:
                value = run_op(len(ops) + failed + 1, machine.apply, fn, arg)
            except (CkadError, RecursionError) as exc:
                print(f"operation failed: {exc!r}", file=sys.stderr)
                failed += 1
                continue
            t1 = time.perf_counter()
            ops.append(Op(round_, i, t1 - t0, value, METER.tape_peak,
                          METER.snap_peak,
                          METER.recompute_steps - before[0],
                          METER.leaves - before[1],
                          METER.leaf_steps - before[2],
                          config.last_length))
        # stop before a round that would end past ``seconds``, so a run
        # lasts about as long whatever the length of its rounds
        elapsed = time.perf_counter() - start
        if elapsed * (round_ + 2) / (round_ + 1) > seconds:
            return ops, failed


def untraced(op, fn, *args):
    return fn(*args)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check(w: Workload, n: int, l: int, machine, closures,
          x, d, length, ops, traced_ops=()):
    """Every check of the run, as (name, passed, detail) triples."""
    results = []

    def record(what, ok, detail=""):
        results.append((what, bool(ok), detail))

    firsts = {}
    for op in ops:
        firsts.setdefault(op.schedule, op)
    record("every schedule measured the same L",
           all(op.length == length for op in ops + list(traced_ops)),
           f"L={length}")
    record("repeated gradients are bitwise equal",
           all(bits(op.value) == bits(firsts[op.schedule].value)
               for op in ops))
    if traced_ops:
        record("traced gradients are bitwise equal to untraced ones",
               all(bits(op.value) == bits(firsts[op.schedule].value)
                   for op in traced_ops))
    first = firsts[0]

    def fd_along_d(f):
        """Central difference of ``f`` at x along d."""
        up = f([a + FD_STEP * b for a, b in zip(x, d)])
        dn = f([a - FD_STEP * b for a, b in zip(x, d)])
        if isinstance(up, list):
            return [(p - q) / (2.0 * FD_STEP) for p, q in zip(up, dn)]
        return (up - dn) / (2.0 * FD_STEP)

    def taped_gradient(xs):
        return items(machine.apply(closures["grad-taped"], to_value(xs)).cdr)

    taped = machine.apply(closures["grad-taped"], to_value(x))
    y_ref = programs.reference_y(x, l)
    record("y equals the reference recurrence",
           rel_err(taped.car, y_ref) <= ROUNDING, f"{taped.car!r} vs {y_ref!r}")
    gradient = items(first.value.cdr if w.op == "grad" else first.value.car)
    err = rel_err(dot(gradient, d),
                  fd_along_d(lambda xs: programs.reference_y(xs, l)))
    record("<gradient, v> agrees with a finite difference",
           err <= FD_TOLERANCE, f"rel err {err:.1e}")

    if w.op == "grad":
        for op in firsts.values():
            record(f"schedule {op.schedule} gradient is bitwise the taped *j",
                   bits(op.value) == bits(taped))
    else:
        hvp_taped = machine.apply(closures["hvp-taped"], hvp_arg(x, d))
        record("checkpoint-*j HVP is bitwise the *j HVP",
               bits(first.value) == bits(hvp_taped))
        hv = items(first.value.cdr)
        fd_hv = fd_along_d(taped_gradient)
        err = (math.sqrt(math.fsum((p - q) ** 2 for p, q in zip(hv, fd_hv)))
               / max(math.sqrt(math.fsum(p * p for p in hv)), 1e-12))
        record("HVP agrees with a finite difference of *j gradients",
               err <= FD_TOLERANCE, f"rel err {err:.1e}")

    if w.pipeline == "b":
        _s, machine_a, closures_a = setup("a", n, l)
        length_a = machine_a.primops(closures_a["main"], to_value(x))
        record("pipeline B's L equals pipeline A's", length_a == length,
               f"{length} vs {length_a}")
        taped_a = machine_a.apply(closures_a["grad-taped"], to_value(x))
        record("gradients are bitwise pipeline A's *j gradient",
               all(bits(op.value) == bits(taped_a)
                   for op in firsts.values()))
    fixed_space = [op.snap_peak for op in ops
                   if w.schedules[op.schedule].criterion == "fixed-space=3"]
    if fixed_space:
        record("at most 3 snapshots under fixed-space=3",
               max(fixed_space) <= 3, f"peak {max(fixed_space)}")
    return results


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_times, ops, length, schedules, rss_kb):
    rounds: dict = {}
    for op in ops:
        rounds[op.round] = rounds.get(op.round, 0.0) + op.seconds
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "gradient_s": metric(statistics.median(op.seconds for op in ops),
                             "s"),
        "steps_per_s": metric(
            length * schedules / statistics.median(rounds.values()),
            "steps/s"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
        "peak_tape_cells": metric(max(op.tape_peak for op in ops), "cells"),
    }


def per_layer(tracer, pipeline, length, plain_ops, traced_ops):
    """Per-layer metrics of the traced gradients (operations 1, 2, ...)
    and of the traced set-up (operation 0), and the traced wall time per
    gradient."""
    g = len(traced_ops)
    self_s, calls, wall, unattributed = tracer.summary(
        [op for op, _start, _end in tracer.ops if op > 0])
    setup_self, _c, _w, _u = tracer.summary([0])

    def per_op(*names):
        return sum(self_s.get(name, 0.0) for name in names) / g

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    recompute = sum(op.recompute_steps for op in traced_ops) / g
    length_s = per_op("primops")
    advance_s = per_op("interrupt", "resume")
    evaluator = {
        "length_pass_s": metric(length_s, "s"),
        "advance_s": metric(advance_s, "s"),
        "taped_apply_s": metric(per_op("apply"), "s"),
        "length_steps_per_s": metric(
            ratio(length * calls.get("primops", 0) / g, length_s),
            "steps/s"),
        "advance_steps_per_s": metric(ratio(recompute, advance_s),
                                      "steps/s"),
    }
    idle = {k: metric(0.0, v["unit"]) for k, v in evaluator.items()}
    walks = ("map_structure", "collect_leaves", "is_ground")
    out = {
        "parser.parse_s": metric(setup_self.get("parse_program", 0.0), "s"),
        "convert.convert_s": metric(
            setup_self.get("convert_lambda", 0.0)
            + setup_self.get("convert_top", 0.0), "s"),
    }
    for layer in ("cps", "extended"):
        chosen = evaluator if (layer == "cps") == (pipeline == "a") else idle
        out.update({f"{layer}.{k}": v for k, v in chosen.items()})
    out.update({
        "ad.walk_s": metric(per_op(*walks), "s"),
        "ad.walk_calls": metric(sum(calls.get(k, 0) for k in walks) / g,
                                "count"),
        "ad.sweep_s": metric(per_op("reverse_base"), "s"),
        "ad.forward_s": metric(per_op("forward_j"), "s"),
        "drivers.self_s": metric(per_op("run_checkpoint"), "s"),
        "drivers.leaves": metric(
            sum(op.leaves for op in traced_ops) / g, "count"),
        "drivers.leaf_steps": metric(
            sum(op.leaf_steps for op in traced_ops) / g, "count"),
        "drivers.recompute_steps": metric(recompute, "count"),
        "drivers.peak_snapshots": metric(
            max(op.snap_peak for op in traced_ops), "count"),
        "drivers.recompute_per_step": metric(recompute / length, "ratio"),
        "bench.trace_overhead_s": metric(
            statistics.median(op.seconds for op in traced_ops)
            - statistics.median(op.seconds for op in plain_ops), "s"),
        "bench.unattributed_s": metric(unattributed / g, "s"),
    })
    return out, wall / g


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, quick: bool):
    w = WORKLOADS[name]
    n, l = w.quick if quick else (w.n, w.l)
    samples = [] if quick else setup_samples(name, SETUP_SAMPLES - 1)
    setup_s, machine, closures = setup(w.pipeline, n, l)
    samples.append(setup_s)

    x, d = programs.inputs(seed, n)
    length = machine.primops(closures["main"], to_value(x))
    fn = closures[w.op]
    arg = (hvp_arg(x, d) if w.op == "hvp"
           else to_value(x))
    phase = seconds / 2 if trace else seconds
    ops, failed = closed_loop(machine, fn, arg, w.schedules, phase, untraced)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    traced_ops, accounting = [], None
    if trace:
        tracer = Tracer()
        tracer.install_modules()
        _s, t_machine, t_closures = tracer.run_op(0, setup, w.pipeline, n, l)
        tracer.install_machine(t_machine)
        traced_ops, t_failed = closed_loop(
            t_machine, t_closures[w.op], arg, w.schedules, phase,
            tracer.run_op)
        failed += t_failed
        layers, wall = per_layer(tracer, w.pipeline, length, ops,
                                 traced_ops)
        prefix = "cps" if w.pipeline == "a" else "extended"
        accounting = (sum(layers[k]["value"] for k in (
            f"{prefix}.length_pass_s", f"{prefix}.advance_s",
            f"{prefix}.taped_apply_s", "ad.walk_s", "ad.sweep_s",
            "ad.forward_s", "drivers.self_s", "bench.unattributed_s")), wall)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{name}-seed{seed}.spans.csv")

    checks = check(w, n, l, machine, closures, x, d, length, ops,
                   traced_ops)
    if accounting is not None:
        accounted, wall = accounting
        checks.append(("per-gradient self times plus unattributed time give "
                       "the traced wall time",
                       abs(accounted - wall) <= 1e-6 * wall,
                       f"{accounted:.6f} s vs {wall:.6f} s per gradient"))
    for what, ok, detail in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {what} {detail}",
              file=sys.stderr)
    metrics = (layers if trace
               else end_to_end(samples, ops, length, len(w.schedules), rss_kb))
    for key, m in metrics.items():
        print(f"     {name}: {key} = {m['value']:.6g} {m['unit']}",
              file=sys.stderr)
    return {"correct": all(ok for _w, ok, _d in checks),
            "attempted": len(ops) + len(traced_ops) + failed,
            "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="every workload and check on tiny sizes")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "ckad" / "__init__.py").is_file():
        print(f"no ckad package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        w = WORKLOADS[args.workload]
        print(setup(w.pipeline, w.n, w.l)[0])
        return 0
    if args.quick:
        ok = True
        for name in WORKLOADS:
            for trace in (False, True):
                result = run(name, args.seed, 0.0, trace, quick=True)
                ok = ok and result["correct"] and not result["failed"]
        print(json.dumps({"correct": ok}))
        return 0 if ok else 1
    if args.workload is None:
        ap.error("--workload is required unless --quick is given")
    print(json.dumps(run(args.workload, args.seed, args.seconds,
                         bool(args.trace), quick=False)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
