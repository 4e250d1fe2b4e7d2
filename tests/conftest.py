"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import struct
from pathlib import Path

import pytest

import ckad
from ckad.ast import CheckpointReverseJ, ForwardJ, ReverseJ, Binary
from ckad.cps import CpsMachine
from ckad.direct import run_program_direct
from ckad.drivers import RunConfig
from ckad.extended import ExtendedMachine
from ckad.parser import Program, parse_program
from ckad.values import EMPTY, Pair

CORPUS_DIR = Path(ckad.__file__).parent / "corpus"

#: corpus programs ordered roughly by primal length (cheapest first)
CORPUS_SMALL = [
    "poly1", "trig1", "explog", "pair_input", "branch", "list_sum",
    "nested_forward", "nested_reverse", "loop_trig", "loop_linear",
]
CORPUS_BENCH = ["bench_2_8", "bench_4_64", "bench_10_256"]
CORPUS_ALL = CORPUS_SMALL + CORPUS_BENCH


def corpus_source(name: str) -> str:
    return (CORPUS_DIR / f"{name}.cvl").read_text()


def load_corpus(name: str) -> Program:
    return parse_program(corpus_source(name))


def ad_variant(program: Program, cls) -> Program:
    """The same program with the body's AD operator swapped out.

    Every corpus program's body is a checkpointing-reverse application;
    ``cls`` is one of the three AD node classes.
    """
    body = program.body
    assert isinstance(body, (CheckpointReverseJ, ReverseJ, ForwardJ))
    return Program(program.defines, cls(body.e1, body.e2, body.e3))


def fn_arg_program(program: Program) -> Program:
    """The same program with a body that returns (function . argument)
    instead of differentiating."""
    body = program.body
    return Program(program.defines, Binary("cons", body.e1, body.e2))


def make_machine(pipeline: str, config: RunConfig | None = None):
    if config is None:
        config = RunConfig()
    return CpsMachine(config) if pipeline == "a" else ExtendedMachine(config)


def run_value(program: Program, config: RunConfig | None = None,
              pipeline: str = "a"):
    """The value of ``program`` on pipeline "a" or "b", or on the
    reference evaluator ("direct", which takes no config)."""
    if pipeline == "direct":
        return run_program_direct(program)
    value, _count = make_machine(pipeline, config).run_program(program)
    return value


def floats_of(v) -> list[float]:
    """All floats in a value, left to right."""
    out: list[float] = []
    stack = [v]
    while stack:
        cur = stack.pop()
        if type(cur) is Pair:
            stack.append(cur.cdr)
            stack.append(cur.car)
        elif type(cur) is float:
            out.append(cur)
    return out


def bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def bitwise_equal(a, b) -> bool:
    """Structural equality with bit-exact float comparison."""
    if type(a) is not type(b):
        return a is b  # distinct singletons / mixed types
    if type(a) is float:
        return bits(a) == bits(b)
    if type(a) is Pair:
        return bitwise_equal(a.car, b.car) and bitwise_equal(a.cdr, b.cdr)
    return a is b or a == b


def rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-12)
    return abs(a - b) / scale


def central_fd(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


@pytest.fixture
def meter():
    from ckad.metrics import METER
    METER.reset()
    yield METER
    METER.reset()


def assert_close(a, b, tol, what=""):
    assert rel_err(a, b) <= tol, f"{what}: {a!r} vs {b!r} (tol {tol})"


def is_finite(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)
