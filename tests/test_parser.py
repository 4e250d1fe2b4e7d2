"""Reader and desugarer tests (oracle: hand-derived AST shapes)."""

import pytest

from ckad.ast import (App, Binary, CheckpointReverseJ, Const, ForwardJ, If,
                      Lambda, ReverseJ, Unary, Var)
from ckad.errors import ParseError
from ckad.parser import parse_expr, parse_program
from ckad.values import EMPTY


def test_number_literal():
    e = parse_expr("3.5")
    assert isinstance(e, Const) and e.value == 3.5


def test_negative_and_exponent_literals():
    assert parse_expr("-2.5").value == -2.5
    assert parse_expr("1e3").value == 1000.0


def test_boolean_and_nil_literals():
    assert parse_expr("#t").value is True
    assert parse_expr("#f").value is False
    assert parse_expr("nil").value is EMPTY


def test_variable():
    e = parse_expr("foo")
    assert isinstance(e, Var) and e.name == "foo"


def test_lambda_currying():
    e = parse_expr("(lambda (x y) (+ x y))")
    assert isinstance(e, Lambda) and e.param == "x"
    assert isinstance(e.body, Lambda) and e.body.param == "y"
    assert isinstance(e.body.body, Binary)


def test_application_currying():
    e = parse_expr("(f a b)")
    assert isinstance(e, App)
    assert isinstance(e.fn, App)
    assert isinstance(e.fn.fn, Var) and e.fn.fn.name == "f"


def test_if_form():
    e = parse_expr("(if (< x 1.0) 2.0 3.0)")
    assert isinstance(e, If) and isinstance(e.cond, Binary)


def test_unary_binary_builtins():
    assert isinstance(parse_expr("(sin x)"), Unary)
    assert isinstance(parse_expr("(cons 1.0 2.0)"), Binary)
    assert parse_expr("(car x)").op == "car"


def test_ad_forms():
    assert isinstance(parse_expr("(j* f x 1.0)"), ForwardJ)
    assert isinstance(parse_expr("(*j f x 1.0)"), ReverseJ)
    assert isinstance(parse_expr("(checkpoint-*j f x 1.0)"),
                      CheckpointReverseJ)


def test_let_is_simultaneous():
    # (let ((x 1) (y x)) ...) must not see the inner x: the right-hand
    # sides are evaluated in the outer scope
    e = parse_expr("(let ((x 1.0) (y x)) (+ x y))")
    # desugars to ((lambda (x) (lambda (y) body)) 1.0 x) applied in order
    assert isinstance(e, App)
    assert isinstance(e.arg, Var) and e.arg.name == "x"


def test_let_star_is_sequential():
    e = parse_expr("(let* ((x 1.0) (y x)) (+ x y))")
    # ((lambda (x) ((lambda (y) body) x)) 1.0)
    assert isinstance(e, App)
    assert isinstance(e.arg, Const) and e.arg.value == 1.0
    inner = e.fn.body
    assert isinstance(inner, App)
    assert isinstance(inner.arg, Var) and inner.arg.name == "x"


def test_define_function_currying_and_body():
    p = parse_program("(define (f x y) (+ x y)) (f 1.0 2.0)")
    assert len(p.defines) == 1
    name, lam = p.defines[0]
    assert name == "f" and isinstance(lam, Lambda)
    assert isinstance(lam.body, Lambda)
    assert p.body is not None


def test_define_value():
    p = parse_program("(define c 4.0)")
    assert p.defines[0][0] == "c"
    assert p.body is None


def test_comments_ignored():
    p = parse_program("; a comment\n1.0 ; trailing\n")
    assert isinstance(p.body, Const)


@pytest.mark.parametrize("bad", [
    "(",
    ")",
    "()",
    "(lambda x x)",
    "(lambda () 1.0)",
    "(if 1.0 2.0)",
    "(define x)",
    "(let ((x)) x)",
    "1.0 2.0",                  # two body expressions
    "%x",                       # reserved prefix
    "(lambda (%y) 1.0)",
    "(lambda (lambda) 1.0)",    # reserved word as parameter
    "(define (car x) x)",       # reserved word as name
    "(+ 1.0)",                  # arity of a builtin
    "(sin)",
    "(f)",                      # application without argument
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_program(bad)


def test_nested_define_rejected():
    with pytest.raises(ParseError):
        parse_expr("(define x 1.0)")


def test_parse_error_carries_position():
    try:
        parse_program("(if 1.0\n 2.0)")
    except ParseError as exc:
        assert exc.line == 1 and exc.col == 1
    else:
        pytest.fail("expected a ParseError")


def nested_sum(depth):
    return "(+ 1.0 " * depth + "1.0" + ")" * depth


def test_nesting_up_to_the_limit_parses_at_any_recursion_limit():
    # the reader and the desugarer keep their own stacks
    e = parse_expr(nested_sum(1000))
    for _ in range(999):
        e = e.right
    assert isinstance(e, Binary) and e.right.value == 1.0


def test_nesting_past_the_limit_is_a_parse_error_at_its_position():
    with pytest.raises(ParseError) as info:
        parse_program(nested_sum(1001))
    # each level opens 7 columns after the last
    assert (info.value.line, info.value.col) == (1, 7 * 1000 + 1)
    assert "nested deeper than 1000" in str(info.value)
