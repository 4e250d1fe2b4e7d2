"""Command-line interface.

Subcommands:

* ``ckad run FILE.cvl`` — evaluate a source program; options select the
  checkpointing configuration used by ``checkpoint-*j`` forms, the
  pipeline, and optional CSV-metrics / JSONL-trace outputs.
* ``ckad bench example`` — generate and run the synthetic adaptive-grid
  benchmark for one size or an ``l`` sweep.
* ``ckad selftest`` — quick invariant suite (gradient sanity, pipeline
  parity, interrupt/resume soundness, checkpoint-vs-reverse equality).

Exit codes: 0 success, 1 evaluation error, 2 usage error.
"""

from __future__ import annotations

import csv
import os
import sys

import click

from .bench import BenchmarkParams, build_example_program, execute_program
from .drivers import CONFIG_CHOICES, RunConfig, parse_criterion
from .errors import CkadError
from .metrics import CSV_COLUMNS, METER, RunMetrics
from .parser import parse_program
from .values import EMPTY, Pair


def format_value(v) -> str:
    """Render an evaluation result for the terminal.

    The walk keeps its own stack, as ``Pair.__repr__`` does, so a value
    nested deeper than the recursion limit prints too.  No language value
    is a Python string, so the stack holds the literal text as strings."""
    parts = []
    stack = [v]
    while stack:
        v = stack.pop()
        if type(v) is str:
            parts.append(v)
        elif isinstance(v, Pair):
            items = []
            while isinstance(v, Pair):
                items += (" ", v.car)
                v = v.cdr
            items[0] = "("
            if v is not EMPTY:
                items += (" . ", v)
            items.append(")")
            stack += reversed(items)
        elif v is EMPTY:
            parts.append("()")
        elif v is True:
            parts.append("#t")
        elif v is False:
            parts.append("#f")
        elif isinstance(v, float):
            parts.append(repr(v))
        else:
            parts.append(str(v))
    return "".join(parts)


def _append_csv(path: str, metrics: RunMetrics) -> None:
    new = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(CSV_COLUMNS)
        writer.writerow(metrics.csv_row())


def _config(mode, algorithm, split, criterion, alpha) -> RunConfig:
    try:
        crit = parse_criterion(criterion)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    return RunConfig(mode=mode, algorithm=algorithm, split=split,
                     criterion=crit, alpha=alpha)


_COMMON = [
    click.option("--mode", type=click.Choice(CONFIG_CHOICES["mode"]),
                 default="checkpoint", show_default=True),
    click.option("--algorithm",
                 type=click.Choice(CONFIG_CHOICES["algorithm"]),
                 default="binary", show_default=True),
    click.option("--split", type=click.Choice(CONFIG_CHOICES["split"]),
                 default="bisection", show_default=True),
    click.option("--criterion", default="log", show_default=True,
                 help="log | fixed-space=D | fixed-time=T"),
    click.option("--alpha", type=int, default=64, show_default=True,
                 help="leaf size (steps reversed by plain taping)"),
    click.option("--pipeline", type=click.Choice(["a", "b"]), default="a",
                 show_default=True,
                 help="a: CPS interpreter; b: converted code on the "
                      "extended direct evaluator"),
    click.option("--metrics", "metrics_path", type=click.Path(),
                 default=None, help="append a CSV metrics row here"),
    click.option("--trace", "trace_path", type=click.Path(), default=None,
                 help="write the driver event trace as JSON lines"),
]


def _with_common(fn):
    for option in reversed(_COMMON):
        fn = option(fn)
    return fn


@click.group()
def main() -> None:
    """A small functional language with checkpointed reverse-mode AD."""


@main.command("run")
@click.argument("source", type=click.Path(exists=True, dir_okay=False))
@_with_common
def run_cmd(source, mode, algorithm, split, criterion, alpha, pipeline,
            metrics_path, trace_path) -> None:
    """Evaluate a .cvl program and print its value."""
    config = _config(mode, algorithm, split, criterion, alpha)
    with open(source) as fh:
        text = fh.read()
    try:
        program = parse_program(text)
        value, metrics = execute_program(program, config, pipeline,
                                         trace=trace_path is not None)
    except CkadError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    click.echo(format_value(value))
    if metrics_path:
        _append_csv(metrics_path, metrics)
    if trace_path:
        METER.write_trace_jsonl(trace_path)


@main.group("bench")
def bench_group() -> None:
    """Benchmark programs."""


@bench_group.command("example")
@click.option("--n", type=int, default=2, show_default=True,
              help="state dimension (even)")
@click.option("--l", "l_single", type=int, default=None,
              help="outer iteration count")
@click.option("--l-list", default=None,
              help="comma-separated outer iteration counts (a sweep)")
@_with_common
def bench_example(n, l_single, l_list, mode, algorithm, split, criterion,
                  alpha, pipeline, metrics_path, trace_path) -> None:
    """Run the synthetic adaptive-grid benchmark."""
    if l_single is None and l_list is None:
        raise click.UsageError("provide --l or --l-list")
    if l_single is not None and l_list is not None:
        raise click.UsageError("--l and --l-list are mutually exclusive")
    ls = [l_single] if l_single is not None else [
        int(part) for part in l_list.split(",") if part.strip()]
    for l in ls:
        config = _config(mode, algorithm, split, criterion, alpha)
        try:
            params = BenchmarkParams(n, l)
            program = build_example_program(params)
            value, metrics = execute_program(
                program, config, pipeline, n=n, l=l,
                trace=trace_path is not None and len(ls) == 1)
        except (CkadError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        click.echo(f"n={n} l={l} L={metrics.L} "
                   f"peak_tape={metrics.peak_tape} "
                   f"peak_snapshots={metrics.peak_snapshots} "
                   f"recompute_steps={metrics.recompute_steps} "
                   f"leaves={metrics.leaves} wall_ms={metrics.wall_ms}")
        click.echo(format_value(value))
        if metrics_path:
            _append_csv(metrics_path, metrics)
        if trace_path and len(ls) == 1:
            METER.write_trace_jsonl(trace_path)


@main.command("selftest")
def selftest() -> None:
    """Run a quick invariant suite."""
    from .cps import CpsMachine
    from .drivers import FixedSpace, Logarithmic
    from .extended import ExtendedMachine

    failures = 0

    def check(name, cond):
        nonlocal failures
        click.echo(("ok   " if cond else "FAIL ") + name)
        if not cond:
            failures += 1

    src = """
    (define (step x i)
      (if (< i 0.5)
          x
          (step (+ (* 0.999 x) (* 0.05 (sin (* x 0.7)))) (- i 1.0))))
    (define (main x) (* (step x 50.0) (step x 50.0)))
    (*j main 1.3 1.0)
    """
    ref, count_a = CpsMachine(RunConfig(mode="reverse")).run_program(
        parse_program(src))
    got, count_b = ExtendedMachine(RunConfig(mode="reverse")).run_program(
        parse_program(src))
    check("pipeline parity (values)",
          format_value(ref) == format_value(got))
    check("pipeline parity (step counts)", count_a == count_b)

    grad = ref.cdr
    check("gradient is finite", isinstance(grad, float)
          and grad == grad and abs(grad) != float("inf"))

    checkpoint_src = src.replace("*j main", "checkpoint-*j main", 1)
    pair_src = src.replace("(*j main 1.3 1.0)", "(cons main 1.3)")
    for machine in (CpsMachine, ExtendedMachine):
        for crit in (Logarithmic(), FixedSpace(3)):
            cfg = RunConfig(mode="checkpoint", algorithm="binary",
                            split="bisection", criterion=crit, alpha=16)
            ck, _ = machine(cfg).run_program(parse_program(checkpoint_src))
            check(f"checkpoint == reverse ({crit}, pipeline {machine.name})",
                  format_value(ck) == format_value(ref))

        # through the host interface both pipelines share
        m = machine(RunConfig(mode="reverse"))
        pair, _ = m.run_program(parse_program(pair_src))
        f, x = pair.car, pair.cdr
        y = m.apply(f, x)
        L = m.primops(f, x)
        check(f"interrupt/resume soundness (pipeline {m.name})",
              all(m.resume(m.interrupt(f, x, budget)) == y
                  for budget in (1, 7, L // 2, L - 1)))

    if failures:
        sys.exit(1)
    click.echo("all self-tests passed")


if __name__ == "__main__":
    main()
