"""The step-counting CPS evaluator: semantics parity with the direct
evaluator, frozen step accounting, and interrupt/resume behaviour through
the host interface, which the host-interface tests check on both
pipelines."""

import random
import sys

import pytest

from ckad.cps import CpsMachine
from ckad.direct import StepCounter, run_program_direct
from ckad.drivers import RunConfig
from ckad.errors import EvalError, RanToCompletionError
from ckad.extended import ExtendedMachine
from ckad.parser import parse_program
from ckad.values import BOTTOM, INFINITY, Capsule

from conftest import (CORPUS_SMALL, bitwise_equal, fn_arg_program,
                      load_corpus)


def machine():
    return CpsMachine(RunConfig(mode="reverse"))


def run(src):
    value, count = machine().run_program(parse_program(src))
    return value, count


SMALL_PROGRAMS = [
    "(+ 1.0 2.0)",
    "(sin (cos 0.3))",
    "((lambda (x y) (/ x y)) 7.0 2.0)",
    "(if (< 1.0 2.0) (* 3.0 3.0) 0.0)",
    "(car (cdr (cons 1.0 (cons 2.0 nil))))",
    "(let* ((x 2.0) (y (* x x))) (- y x))",
    """(define (fact n) (if (< n 1.0) 1.0 (* n (fact (- n 1.0)))))
       (fact 10.0)""",
    """(define (loop i a) (if (zero? i) a (loop (- i 1.0) (+ a i))))
       (loop 100.0 0.0)""",
    "(*j (lambda (x) (exp (* x x))) 0.5 1.0)",
    "(j* (lambda (x) (log (+ x 1.0))) 1.0 1.0)",
]


@pytest.mark.parametrize("src", SMALL_PROGRAMS)
def test_value_parity_with_direct_evaluator(src):
    program = parse_program(src)
    expected = run_program_direct(program)
    got, _count = machine().run_program(parse_program(src))
    assert bitwise_equal(got, expected)


@pytest.mark.parametrize("src", SMALL_PROGRAMS)
def test_step_count_parity_with_direct_evaluator(src):
    counter = StepCounter()
    run_program_direct(parse_program(src), counter)
    _v, count = run(src)
    assert count == counter.n


@pytest.mark.parametrize("name", CORPUS_SMALL)
def test_corpus_parity_with_direct_evaluator(name):
    program = load_corpus(name)
    expected = run_program_direct(program)
    got, _ = CpsMachine(RunConfig(mode="reverse")).run_program(
        load_corpus(name))
    assert bitwise_equal(got, expected)


def test_step_counts_frozen():
    assert run("3.0")[1] == 1
    assert run("((lambda (x) x) 5.0)")[1] == 4
    assert run("((lambda (x) (* x x)) 3.0)")[1] == 6


LOOP_SRC = """
(define (step x i)
  (if (< i 0.5) x (step (+ (* 0.99 x) (sin (* x 0.3))) (- i 1.0))))
(define (main x) (step x 40.0))
(cons main 0.8)
"""


def fn_and_arg(src=LOOP_SRC):
    m = machine()
    pair, _ = m.run_program(parse_program(src))
    return m, pair.car, pair.cdr


# -- the host interface, shared by both pipelines ------------------------------
# (pipeline B's own interface tests are in test_extended.py)

def each_pipeline(src=LOOP_SRC):
    """(machine, function, argument) on pipeline A, then on pipeline B."""
    for cls in (CpsMachine, ExtendedMachine):
        m = cls(RunConfig(mode="reverse"))
        pair, _ = m.run_program(parse_program(src))
        yield m, pair.car, pair.cdr


def test_primops_measures_application_steps():
    for m, f, x in each_pipeline():
        L = m.primops(f, x)
        assert L > 40 * 5  # at least a handful of steps per iteration
        # deterministic, and left in steps
        assert m.primops(f, x) == L == m.steps


def test_interrupt_returns_capsule_then_resume_completes_bitwise():
    for m, f, x in each_pipeline():
        y = m.apply(f, x)
        L = m.primops(f, x)
        for l in (1, 2, 7, L // 3, L // 2, L - 1):
            z = m.interrupt(f, x, l)
            assert isinstance(z, Capsule)
            assert bitwise_equal(m.resume(z), y)


def test_resumed_step_count_is_total_minus_budget():
    # the resumed computation restarts its count at zero, so finishing
    # costs exactly L - l steps (pinned adjustment constant: 0)
    m, f, x = fn_and_arg()
    L = m.primops(f, x)
    for l in (1, 13, L // 2, L - 1):
        z = m.interrupt(f, x, l)
        m.run_apply(z.k, 0, INFINITY, z.f, BOTTOM)
        assert m.steps == L - l


def test_interrupt_budget_zero_captures_before_any_step():
    for m, f, x in each_pipeline():
        y = m.apply(f, x)
        z = m.interrupt(f, x, 0)
        assert bitwise_equal(m.resume(z), y)


def test_interrupt_past_completion_raises():
    for m, f, x in each_pipeline():
        L = m.primops(f, x)
        for budget in (L, L + 5):
            with pytest.raises(RanToCompletionError,
                               match=f"finished in {L} steps, within the "
                                     f"budget {budget}$"):
                m.interrupt(f, x, budget)


def test_make_I_wrapped_function_self_interrupts():
    for m, f, x in each_pipeline():
        y = m.apply(f, x)
        L = m.primops(f, x)
        fI = m.make_I(f, L // 2)
        z = m.apply(fI, x)
        assert isinstance(z, Capsule)
        assert bitwise_equal(m.resume(z), y)


def test_make_R_resumes_through_application():
    for m, f, x in each_pipeline():
        y = m.apply(f, x)
        z = m.interrupt(f, x, 11)
        assert bitwise_equal(m.apply(m.make_R(), z), y)


def test_chained_slices_reconstruct_the_whole_run():
    # cut the run into random slices with nested I-wrapping and resume
    # across all of them
    for m, f, x in each_pipeline():
        y = m.apply(f, x)
        L = m.primops(f, x)
        rng = random.Random(11)
        cuts = sorted(rng.sample(range(1, L), 5))
        z = m.interrupt(f, x, cuts[0])
        prev = cuts[0]
        for cut in cuts[1:]:
            z = m.apply(m.make_I(m.make_R(), cut - prev), z)
            assert isinstance(z, Capsule)
            prev = cut
        assert bitwise_equal(m.resume(z), y)


def test_interrupting_an_I_wrapped_function_rearms_the_residual_budget():
    for m, f, x in each_pipeline():
        y = m.apply(f, x)
        L = m.primops(f, x)
        fI = m.make_I(f, L - 2)  # would interrupt itself near the end
        z = m.interrupt(fI, x, 10)  # but is interrupted earlier
        # resuming runs up to the re-armed inner budget and interrupts
        # again
        z2 = m.apply(m.make_R(), z)
        assert isinstance(z2, Capsule)
        assert bitwise_equal(m.resume(z2), y)


def test_resume_of_non_capsule_rejected():
    for m, _f, _x in each_pipeline():
        with pytest.raises(EvalError):
            m.resume(3.0)


def test_primops_of_self_interrupting_function_rejected():
    for m, f, x in each_pipeline():
        with pytest.raises(EvalError):
            m.primops(m.make_I(f, 5), x)


@pytest.mark.parametrize("name", CORPUS_SMALL[:6])
def test_corpus_interrupt_resume_roundtrip(name):
    m = machine()
    pair, _ = m.run_program(fn_arg_program(load_corpus(name)))
    f, x = pair.car, pair.cdr
    y = m.apply(f, x)
    L = m.primops(f, x)
    rng = random.Random(hash(name) & 0xffff)
    for l in rng.sample(range(1, L), min(4, L - 1)):
        z = m.interrupt(f, x, l)
        assert bitwise_equal(m.resume(z), y)
        m.run_apply(z.k, 0, INFINITY, z.f, BOTTOM)
        assert m.steps == L - l


def record_constructions(program) -> int:
    """The KArg, KApply, KIf and KBin1 records a second run of ``program``
    on pipeline A makes, after one that has compiled what it runs."""
    from ckad.cps import KApply, KArg, KBin1, KIf
    kinds = (KArg, KApply, KIf, KBin1)
    m = machine()
    m.run_program(program)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if (event == "call" and frame.f_code.co_name == "__init__"
                and type(frame.f_locals.get("self")) in kinds):
            count += 1

    sys.setprofile(profile)
    try:
        m.run_program(program)
    finally:
        sys.setprofile(None)
    return count


#: the counts of the interpreter that made every node's records
PER_NODE_RECORDS = {"loop_trig": 8580, "bench_2_8": 11937}


@pytest.mark.parametrize("name", sorted(PER_NODE_RECORDS))
def test_compiled_forms_make_at_most_half_the_records(name):
    # an exact count: applications of stretches, ifs on stretches and
    # binary nodes with a stretch on the left make no record
    made = record_constructions(load_corpus(name))
    assert made <= PER_NODE_RECORDS[name] // 2, (name, made)
