"""Pipeline B (converted code on the direct extended evaluator): parity
with pipeline A, interruption behaviour, and the capture rule.

The host-interface tests both pipelines share are in test_cps.py."""

import random
import sys

import pytest

from ckad.ad import collect_leaves, deep_primal
from ckad.cps import CpsMachine
from ckad.drivers import FixedSpace, Logarithmic, RunConfig
from ckad.extended import ExtendedMachine, K3_VALUE
from ckad.parser import parse_program
from ckad.values import Capsule

from conftest import (CORPUS_SMALL, bitwise_equal, fn_arg_program,
                      load_corpus)

from test_cps import LOOP_SRC, SMALL_PROGRAMS


def machines():
    return (CpsMachine(RunConfig(mode="reverse")),
            ExtendedMachine(RunConfig(mode="reverse")))


@pytest.mark.parametrize("src", SMALL_PROGRAMS)
def test_value_and_count_parity_with_pipeline_a(src):
    ma, mb = machines()
    va, ca = ma.run_program(parse_program(src))
    vb, cb = mb.run_program(parse_program(src))
    assert bitwise_equal(vb, va)
    assert cb == ca


@pytest.mark.parametrize("name", CORPUS_SMALL)
def test_corpus_value_and_count_parity(name):
    ma, mb = machines()
    va, ca = ma.run_program(load_corpus(name))
    vb, cb = mb.run_program(load_corpus(name))
    assert bitwise_equal(vb, va)
    assert cb == ca


def loop_fn_arg(m):
    pair, _ = m.run_program(parse_program(LOOP_SRC))
    return pair.car, pair.cdr


def test_primops_parity_on_loop():
    ma, mb = machines()
    fa, xa = loop_fn_arg(ma)
    fb, xb = loop_fn_arg(mb)
    assert ma.primops(fa, xa) == mb.primops(fb, xb)


def test_interrupt_resume_roundtrip():
    _, m = machines()
    f, x = loop_fn_arg(m)
    y = m.apply(f, x)
    L = m.primops(f, x)
    for l in (1, 2, 17, L // 2, L - 1):
        z = m.interrupt(f, x, l)
        assert isinstance(z, Capsule)
        assert bitwise_equal(m.resume(z), y)


def test_resumed_step_count_is_total_minus_budget():
    # the count restarts at zero on interruption, so the resumed run
    # reports the steps left
    _, m = machines()
    f, x = loop_fn_arg(m)
    L = m.primops(f, x)
    for l in (1, 29, L // 2, L - 1):
        z = m.apply4(f, K3_VALUE, 0, l, x)
        assert isinstance(z, Capsule)
        m.resume(z)
        assert m.steps == L - l


def test_make_I_make_R_wrappers():
    _, m = machines()
    f, x = loop_fn_arg(m)
    y = m.apply(f, x)
    L = m.primops(f, x)
    z = m.apply(m.make_I(f, L // 2), x)
    assert isinstance(z, Capsule)
    assert bitwise_equal(m.apply(m.make_R(), z), y)


def test_chained_slices_reconstruct_the_whole_run():
    _, m = machines()
    f, x = loop_fn_arg(m)
    y = m.apply(f, x)
    L = m.primops(f, x)
    rng = random.Random(23)
    cuts = sorted(rng.sample(range(1, L), 5))
    z = m.interrupt(f, x, cuts[0])
    prev = cuts[0]
    for cut in cuts[1:]:
        z = m.apply(m.make_I(m.make_R(), cut - prev), z)
        assert isinstance(z, Capsule)
        prev = cut
    assert bitwise_equal(m.resume(z), y)


def capsule_leaf_values(z):
    return [deep_primal(leaf) for leaf in collect_leaves(z)]


def test_capsules_are_canonical_across_execution_paths():
    # a capsule reached by straight execution and the same program point
    # reached by resuming an earlier capsule must hold their numeric
    # leaves in the same traversal order (the reverse sweep pairs flat
    # cotangent vectors with leaves positionally)
    _, m = machines()
    f, x = loop_fn_arg(m)
    L = m.primops(f, x)
    for (first, second) in ((10, 60), (33, 100), (L // 2, L // 2 + 40)):
        straight = m.interrupt(f, x, second)
        z = m.interrupt(f, x, first)
        resumed = m.apply(m.make_I(m.make_R(), second - first), z)
        assert isinstance(resumed, Capsule)
        assert capsule_leaf_values(resumed) == capsule_leaf_values(straight)


@pytest.mark.parametrize("name", CORPUS_SMALL[:6])
def test_corpus_interrupt_resume_roundtrip(name):
    m = ExtendedMachine(RunConfig(mode="reverse"))
    pair, _ = m.run_program(fn_arg_program(load_corpus(name)))
    f, x = pair.car, pair.cdr
    y = m.apply(f, x)
    L = m.primops(f, x)
    rng = random.Random(hash(name) & 0xffff)
    for l in rng.sample(range(1, L), min(4, L - 1)):
        z = m.interrupt(f, x, l)
        assert bitwise_equal(m.resume(z), y)


@pytest.mark.parametrize("split", ["bisection", "binomial"])
def test_checkpoint_equals_reverse_on_pipeline_b(split):
    ref = ExtendedMachine(RunConfig(mode="reverse")).run_program(
        load_corpus("loop_linear"))[0]
    for crit in (Logarithmic(), FixedSpace(2)):
        cfg = RunConfig(mode="checkpoint", algorithm="binary", split=split,
                        criterion=crit, alpha=32)
        got = ExtendedMachine(cfg).run_program(load_corpus("loop_linear"))[0]
        assert bitwise_equal(got, ref)


@pytest.mark.slow
def test_binomial_checkpoint_regression_medium_benchmark():
    # regression for a cotangent permutation that only surfaced with
    # binomial splits at this problem size (capsule canonicalization)
    ref = ExtendedMachine(RunConfig(mode="reverse")).run_program(
        load_corpus("bench_4_64"))[0]
    cfg = RunConfig(mode="checkpoint", algorithm="binary", split="binomial",
                    criterion=FixedSpace(3), alpha=64)
    got = ExtendedMachine(cfg).run_program(load_corpus("bench_4_64"))[0]
    assert bitwise_equal(got, ref)


def python_calls(machine, program) -> int:
    """The Python-level calls of a second run of ``program``, after one
    that has loaded and cached what a run may need."""
    machine.run_program(program)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        machine.run_program(program)
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("name", ["loop_trig", "bench_2_8", "list_sum"])
def test_pipeline_b_makes_at_most_three_times_a_s_calls(name):
    # an exact count, so a slower layer shows here at any machine load:
    # the interpretive evaluator made 5.4-6.0 times A's calls
    a = python_calls(CpsMachine(RunConfig()), load_corpus(name))
    b = python_calls(ExtendedMachine(RunConfig()), load_corpus(name))
    assert b <= 3 * a, (name, a, b)


def test_a_function_compiles_on_its_first_call_only():
    m = ExtendedMachine(RunConfig(mode="reverse"))
    program = parse_program("""
    (define (unused x) (* x 2.0))
    (define (used x) (+ x 1.0))
    (cons unused (used 1.0))""")
    pair, _ = m.run_program(program)
    lam = pair.car.lam
    assert lam.code is None
    assert m.apply(pair.car, 3.0) == 6.0
    code = lam.code
    assert code is not None
    assert m.apply(pair.car, 4.0) == 8.0
    assert lam.code is code


def test_a_program_converts_once():
    # a second run converts and compiles nothing again, and gives the same
    # value and count
    m = ExtendedMachine(RunConfig(mode="reverse"))
    program = load_corpus("loop_trig")
    first = m.run_program(program)
    converting = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith(
                "convert.py"):
            converting.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        second = m.run_program(program)
    finally:
        sys.setprofile(None)
    assert converting == []
    assert bitwise_equal(second[0], first[0]) and second[1] == first[1]
    assert ExtendedMachine(RunConfig(mode="reverse")).run_program(
        load_corpus("loop_trig"))[1] == first[1]
