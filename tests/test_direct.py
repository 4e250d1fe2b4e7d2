"""Baseline semantics of the direct-style evaluator.

Expected values are independent oracles: hand-evaluated arithmetic and
Python's math library.
"""

import math

import pytest

from ckad.direct import StepCounter, run_program_direct
from ckad.drivers import MIN_ALPHA, RunConfig
from ckad.errors import (ArithmeticEvalError, EvalError,
                         NotAFunctionError, UnboundVariableError)
from ckad.parser import parse_program
from ckad.values import EMPTY, Pair

from conftest import bitwise_equal, floats_of, run_value


def run(src, counter=None):
    return run_program_direct(parse_program(src), counter)


def test_arithmetic():
    assert run("(+ 1.0 2.0)") == 3.0
    assert run("(- 1.0 2.0)") == -1.0
    assert run("(* 3.0 4.0)") == 12.0
    assert run("(/ 1.0 4.0)") == 0.25


def test_unary_primitives_match_math():
    assert run("(sin 0.5)") == math.sin(0.5)
    assert run("(cos 0.5)") == math.cos(0.5)
    assert run("(exp 0.5)") == math.exp(0.5)
    assert run("(log 2.0)") == math.log(2.0)
    assert run("(sqrt 2.0)") == math.sqrt(2.0)
    assert run("(atan 0.3)") == math.atan(0.3)
    assert run("(floor 2.7)") == 2.0
    assert run("(floor -0.5)") == -1.0


def test_comparisons_and_predicates():
    assert run("(< 1.0 2.0)") is True
    assert run("(<= 2.0 2.0)") is True
    assert run("(= 2.0 3.0)") is False
    assert run("(zero? 0.0)") is True
    assert run("(zero? 1.0)") is False
    assert run("(null? nil)") is True
    assert run("(null? (cons 1.0 nil))") is False


def test_pairs():
    v = run("(cons 1.0 (cons 2.0 nil))")
    assert isinstance(v, Pair)
    assert floats_of(v) == [1.0, 2.0]
    assert run("(car (cons 1.0 2.0))") == 1.0
    assert run("(cdr (cons 1.0 2.0))") == 2.0


def test_closures_and_currying():
    assert run("(((lambda (x y) (+ x y)) 1.0) 2.0)") == 3.0
    assert run("((lambda (x) ((lambda (y) (- x y)) 1.0)) 5.0)") == 4.0


def test_lexical_scope():
    # the returned closure must capture x = 10, not see the later x = 20
    src = """
    (define (makeadd x) (lambda (y) (+ x y)))
    ((lambda (f) ((lambda (x) (f 1.0)) 20.0)) (makeadd 10.0))
    """
    assert run(src) == 11.0


def test_recursion_and_mutual_recursion():
    src = """
    (define (even? n) (if (zero? n) #t (odd? (- n 1.0))))
    (define (odd? n) (if (zero? n) #f (even? (- n 1.0))))
    (even? 10.0)
    """
    assert run(src) is True


def test_deep_tail_recursion_constant_python_stack():
    src = """
    (define (loop i acc) (if (zero? i) acc (loop (- i 1.0) (+ acc 1.0))))
    (loop 50000.0 0.0)
    """
    assert run(src) == 50000.0


def test_let_and_let_star():
    assert run("(let ((x 2.0) (y 3.0)) (* x y))") == 6.0
    assert run("(let* ((x 2.0) (y (* x x))) (+ x y))") == 6.0
    # let is simultaneous: inner x refers to the outer binding
    src = "(let ((x 1.0)) (let ((x 2.0) (y x)) y))"
    assert run(src) == 1.0


PIPELINES = ["direct", "a", "b"]


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_if_requires_boolean(pipeline):
    with pytest.raises(EvalError, match="if condition must be a boolean"):
        run_value(parse_program("(if 1.0 2.0 3.0)"), pipeline=pipeline)


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_error_message_formats_a_deep_list(pipeline):
    # the message shows the 1500-element list; formatting it must not
    # recurse
    program = parse_program("""
    (define (mk n) (if (zero? n) nil (cons n (mk (- n 1.0)))))
    (if (mk 1500.0) 1.0 2.0)""")
    with pytest.raises(EvalError, match="if condition must be a boolean"):
        run_value(program, pipeline=pipeline)


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_an_unbound_name_fails_where_it_is_read(pipeline):
    # a closure over a name bound nowhere is made, as is a capture whose
    # pending branch names it; only reading the name fails
    made = parse_program("((lambda (f) 1.0) (lambda (x) y))")
    captured = parse_program("""
    (define (f x) (* (sin (sin (sin (sin (sin x))))) (if (< x 0.0) (g x) x)))
    (car (checkpoint-*j f 1.3 1.0))""")
    read = parse_program("((lambda (f) (f 1.0)) (lambda (x) y))")
    # a function value closes over a top-level name's value when it is
    # made, so a name defined only later is unbound in it
    late = parse_program("""
    (define h ((lambda (u) (lambda (x) (g (+ x u)))) 1.0))
    (define (g x) (* x 2.0))
    (h 3.0)""")
    config = RunConfig(alpha=MIN_ALPHA)  # splits inside the left factor
    values = [run_value(p, config, pipeline) for p in (made, captured)]
    for p in (read, late):
        with pytest.raises(UnboundVariableError):
            run_value(p, config, pipeline)
    left = 1.3
    for _ in range(5):
        left = math.sin(left)
    assert values == [1.0, left * 1.3]


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_runtime_errors(pipeline):
    def run(src):
        return run_value(parse_program(src), pipeline=pipeline)

    with pytest.raises(UnboundVariableError):
        run("missing")
    with pytest.raises(NotAFunctionError):
        run("(1.0 2.0)")
    with pytest.raises(ArithmeticEvalError):
        run("(/ 1.0 0.0)")
    with pytest.raises(ArithmeticEvalError):
        run("(log 0.0)")
    with pytest.raises(ArithmeticEvalError):
        run("(sqrt -1.0)")
    with pytest.raises(EvalError, match="car of a non-pair"):
        run("(car 1.0)")
    with pytest.raises(EvalError, match="cdr of a non-pair"):
        run("(cdr 1.0)")
    with pytest.raises(ArithmeticEvalError, match="exp undefined"):
        run("(exp 1000.0)")
    # the same errors on the taped path of the primitive table
    with pytest.raises(ArithmeticEvalError, match="division by zero"):
        run("(*j (lambda (x) (/ x 0.0)) 1.0 1.0)")
    with pytest.raises(ArithmeticEvalError, match="log of non-positive"):
        run("(*j (lambda (x) (log (- x 1.0))) 1.0 1.0)")
    with pytest.raises(ArithmeticEvalError, match="sqrt of negative"):
        run("(*j (lambda (x) (sqrt (- 0.0 x))) 1.0 1.0)")
    with pytest.raises(ArithmeticEvalError, match="exp undefined"):
        run("(*j (lambda (x) (exp (* x 1000.0))) 1.0 1.0)")
    with pytest.raises(EvalError, match="car of a non-pair"):
        run("(*j (lambda (x) (car x)) 1.0 1.0)")
    # a boolean operand takes the general path, as a number
    assert run("(+ (< 1.0 2.0) 1.0)") == 2.0


# -- frozen step accounting ----------------------------------------------------
# one step per expression-node evaluation; applying a closure costs
# nothing beyond its body

def steps(src) -> int:
    c = StepCounter()
    run(src, c)
    return c.n


def test_step_counts_frozen():
    assert steps("3.0") == 1                      # Const
    assert steps("(+ 1.0 2.0)") == 3              # Binary + 2 Const
    assert steps("((lambda (x) x) 5.0)") == 4     # App Lambda Const Var
    assert steps("((lambda (x) (* x x)) 3.0)") == 6
    assert steps("(if #t 1.0 2.0)") == 3          # If Const Const
    assert steps("(sin 0.0)") == 2                # Unary Const


def test_ad_operators_are_atomic_in_step_count():
    # the inner run of an AD operator contributes nothing to the outer count
    base = steps("((lambda (f) 1.0) (lambda (x) (* x x)))")
    withad = steps("((lambda (f) (cdr (*j f 3.0 1.0))) (lambda (x) (* x x)))")
    # the Const body becomes cdr / *j / Var f / Const / Const: +4 nodes
    assert withad == base + 4


def test_gradient_through_direct_evaluator():
    v = run("(*j (lambda (x) (* x (* x x))) 2.0 1.0)")
    assert v.car == 8.0 and v.cdr == 12.0
    v = run("(j* (lambda (x) (* x (* x x))) 2.0 1.0)")
    assert v.car == 8.0 and v.cdr == 12.0


def test_checkpoint_op_degenerates_to_reverse_in_direct_eval():
    a = run("(*j (lambda (x) (sin (* x x))) 0.7 1.0)")
    b = run("(checkpoint-*j (lambda (x) (sin (* x x))) 0.7 1.0)")
    assert bitwise_equal(a, b)
