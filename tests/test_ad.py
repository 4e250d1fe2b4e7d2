"""Forward/reverse AD: derivative oracles, finite differences, structure
handling, nesting, and perturbation confusion."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckad.ad import (FlatSensitivity, bundle, collect_leaves, forward_j,
                     lift_binary, lift_unary, map_structure, reverse_j,
                     unbundle)
from ckad.direct import run_program_direct
from ckad.errors import CotangentShapeError
from ckad.parser import parse_program
from ckad.values import EMPTY, Env, Pair

from conftest import (assert_close, bitwise_equal, central_fd, rel_err,
                      run_value)


def apply_py(f, x):
    """Applier for host-level (Python) test functions."""
    return f(x)


def d_forward(f, x):
    y, yt = forward_j(f, x, 1.0, apply_py)
    return y, yt


def d_reverse(f, x):
    y, xbar = reverse_j(f, x, 1.0, apply_py)
    return y, xbar


UNARY_CASES = [
    ("sin", math.cos, [0.0, 0.5, -1.3, 2.0]),
    ("cos", lambda x: -math.sin(x), [0.0, 0.5, -1.3, 2.0]),
    ("exp", math.exp, [0.0, 0.5, -2.0, 1.7]),
    ("log", lambda x: 1.0 / x, [0.5, 1.0, 3.7]),
    ("sqrt", lambda x: 0.5 / math.sqrt(x), [0.25, 1.0, 9.0]),
    ("atan", lambda x: 1.0 / (1.0 + x * x), [0.0, 0.5, -2.0]),
    ("floor", lambda x: 0.0, [0.3, 1.7, -0.4]),
]


@pytest.mark.parametrize("op,deriv,points", UNARY_CASES)
def test_unary_derivatives_closed_form(op, deriv, points):
    for x in points:
        f = lambda v: lift_unary(op, v)  # noqa: E731
        y, t = d_forward(f, x)
        _y, g = d_reverse(f, x)
        assert_close(t, deriv(x), 1e-14, f"forward d{op}")
        assert_close(g, deriv(x), 1e-14, f"reverse d{op}")


BINARY_CASES = [
    ("+", lambda a, b: (1.0, 1.0)),
    ("-", lambda a, b: (1.0, -1.0)),
    ("*", lambda a, b: (b, a)),
    ("/", lambda a, b: (1.0 / b, -a / (b * b))),
]


@pytest.mark.parametrize("op,grads", BINARY_CASES)
def test_binary_partial_derivatives_closed_form(op, grads):
    for (a, b) in [(1.5, 2.5), (-0.7, 3.0), (4.0, -0.5)]:
        da, db = grads(a, b)
        for wrt, expected in (("a", da), ("b", db)):
            def f(v):
                return (lift_binary(op, v, b) if wrt == "a"
                        else lift_binary(op, a, v))
            x0 = a if wrt == "a" else b
            _y, t = d_forward(f, x0)
            _y, g = d_reverse(f, x0)
            assert_close(t, expected, 1e-14, f"d{op}/d{wrt} fwd")
            assert_close(g, expected, 1e-14, f"d{op}/d{wrt} rev")


def poly(coeffs):
    def f(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = lift_binary("+", lift_binary("*", acc, x), c)
        return acc
    return f


def poly_deriv(coeffs, x):
    return sum(i * c * x ** (i - 1) for i, c in enumerate(coeffs) if i > 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6),
       st.floats(-1.5, 1.5))
def test_polynomial_gradients_match_analytic_and_each_other(coeffs, x):
    f = poly(coeffs)
    y_f, t = d_forward(f, x)
    y_r, g = d_reverse(f, x)
    assert y_f == y_r
    expected = poly_deriv(coeffs, x)
    assert rel_err(t, expected) < 1e-12
    assert rel_err(g, t) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(-1.2, 1.2), st.floats(0.3, 2.0))
def test_composition_matches_central_differences(x, scale):
    def f(v):
        return lift_unary(
            "sin", lift_binary(
                "*", scale, lift_unary(
                    "exp", lift_binary("*", v, 0.5))))

    def plain(v):
        return math.sin(scale * math.exp(v * 0.5))

    _y, g = d_reverse(f, x)
    _y, t = d_forward(f, x)
    fd = central_fd(plain, x)
    assert rel_err(g, fd) < 1e-7
    assert rel_err(t, g) < 1e-12


# -- structure -----------------------------------------------------------------

def test_pair_input_gradient_mirrors_shape():
    # f(a, b) = a * b + sin(a)
    def f(p):
        return lift_binary("+", lift_binary("*", p.car, p.cdr),
                           lift_unary("sin", p.car))
    x = Pair(1.3, 2.1)
    y, xbar = reverse_j(f, x, 1.0, apply_py)
    assert_close(y, 1.3 * 2.1 + math.sin(1.3), 1e-15, "primal")
    assert isinstance(xbar, Pair)
    assert_close(xbar.car, 2.1 + math.cos(1.3), 1e-14, "d/da")
    assert_close(xbar.cdr, 1.3, 1e-14, "d/db")


def test_pair_output_takes_structured_cotangent():
    def f(x):
        return Pair(lift_binary("*", x, x), lift_unary("sin", x))
    y, xbar = reverse_j(f, 0.7, Pair(1.0, 0.0), apply_py)
    assert_close(xbar, 2 * 0.7, 1e-14, "car component")
    _y, xbar = reverse_j(f, 0.7, Pair(0.0, 1.0), apply_py)
    assert_close(xbar, math.cos(0.7), 1e-14, "cdr component")


def test_reverse_j_without_y_gives_the_same_cotangent():
    # a caller that drops y gets None for it and the same cotangent bits,
    # for a ground output and for a non-ground one (a flat cotangent)
    def pair_out(p):
        return Pair(lift_binary("*", p.car, p.cdr), lift_unary("sin", p.car))

    def env_out(p):
        return Env({"a": lift_binary("/", p.car, p.cdr), "b": p.car}, None)

    for f, ybar in ((pair_out, Pair(1.0, -0.5)),
                    (env_out, FlatSensitivity([1.0, 0.25]))):
        y, xbar = reverse_j(f, Pair(0.7, 1.9), ybar, apply_py)
        assert y is not None
        no_y, xbar2 = reverse_j(f, Pair(0.7, 1.9), ybar, apply_py,
                                need_y=False)
        assert no_y is None
        assert bitwise_equal(xbar2, xbar)


def test_shared_leaf_gets_one_tape_cell_and_accumulates():
    def f(p):
        return lift_binary("+", p.car, p.cdr)
    shared = 1.5
    x = Pair(shared, shared)  # the same float object in both slots
    assert len(collect_leaves(x)) == 1
    _y, xbar = reverse_j(f, x, 1.0, apply_py)
    # one cell, so the cotangent accumulates both paths
    assert xbar.car == 2.0 and xbar.cdr == 2.0
    assert xbar.car is xbar.cdr


def test_shared_output_leaf_sums_its_mirrored_cotangents():
    # every position of a shared output leaf adds its cotangent
    def f(x):
        return Pair(x, x)
    _y, xbar = reverse_j(f, 3.0, Pair(1.0, 1.0), apply_py)
    assert xbar == 2.0
    _y, xbar = reverse_j(f, 3.0, Pair(1.0, 2.0), apply_py)
    assert xbar == 3.0

    def g(x):
        p = Pair(x, lift_binary("*", x, x))
        return Pair(p, p)  # a shared pair: its leaves occur twice
    _y, xbar = reverse_j(g, 3.0, Pair(Pair(1.0, 0.0), Pair(0.5, 1.0)),
                         apply_py)
    assert xbar == 1.0 + 0.5 + 2 * 3.0


@pytest.mark.parametrize("pipeline", ["direct", "a", "b"])
def test_shared_output_leaf_in_programs(pipeline):
    cases = [("(*j (lambda (x) (cons x x)) 3.0 (cons 1.0 1.0))", 2.0),
             ("(checkpoint-*j (lambda (x) (cons x x)) 3.0 (cons 1.0 2.0))",
              3.0)]
    for source, expected in cases:
        program = parse_program(source)
        if pipeline == "direct":
            result = run_program_direct(program)
        else:
            result = run_value(program, pipeline=pipeline)
        assert result.cdr == expected, source


def test_shared_input_leaf_takes_first_mirrored_tangent():
    a = 1.0
    x = Pair(a, a)  # the same float object in both slots
    _y, yt = forward_j(lambda p: p, x, Pair(1.0, 5.0), apply_py)
    assert yt.car == 1.0 and yt.cdr == 1.0


def test_distinct_leaves_get_distinct_cells():
    a = 1.5
    x = Pair(a, a * 1.0)  # equal values, distinct objects
    assert len(collect_leaves(x)) == 2


def test_forward_tangent_mirrors_pairs():
    def f(p):
        return Pair(lift_binary("*", p.car, 2.0),
                    lift_binary("*", p.cdr, 3.0))
    a = 1.0
    x = Pair(a, a * 1.0)  # distinct leaf objects
    y, yt = forward_j(f, x, Pair(1.0, 0.0), apply_py)
    assert yt.car == 2.0 and yt.cdr == 0.0


def test_bundle_unbundle_roundtrip_flat():
    x = Pair(1.0, Pair(2.0, EMPTY))
    flat = FlatSensitivity([0.5, 0.25])
    bundled = bundle(x, flat, level=7)
    primal, tangent = unbundle(bundled, level=7)
    assert primal.car == 1.0 and primal.cdr.car == 2.0
    assert tangent.car == 0.5 and tangent.cdr.car == 0.25


def test_cotangent_shape_errors():
    def f(x):
        return Pair(x, x)
    with pytest.raises(CotangentShapeError):
        reverse_j(f, 1.0, 1.0, apply_py)  # scalar cotangent, pair output
    with pytest.raises(CotangentShapeError):
        bundle(Pair(1.0, 2.0), FlatSensitivity([1.0]), level=1)
    with pytest.raises(CotangentShapeError):
        bundle(Pair(1.0, 2.0), FlatSensitivity([1.0, 2.0, 3.0]), level=1)
    with pytest.raises(CotangentShapeError):
        bundle(1.0, Pair(1.0, 2.0), level=1)


def test_map_structure_preserves_sharing():
    inner = Pair(1.0, 2.0)
    outer = Pair(inner, inner)
    copy = map_structure(outer, lambda leaf: leaf * 2.0)
    assert copy.car is copy.cdr
    assert copy.car.car == 2.0


# -- nesting -------------------------------------------------------------------

def quartic(x):
    xx = lift_binary("*", x, x)
    return lift_binary("*", xx, xx)


def test_hessian_vector_product_forward_over_reverse():
    # f(x) = x^4, f''(2) = 48
    def grad_f(x):
        _y, g = reverse_j(quartic, x, 1.0, apply_py)
        return g
    _g, hvp = forward_j(grad_f, 2.0, 1.0, apply_py)
    assert abs(hvp - 48.0) <= 1e-10


def test_hessian_vector_product_reverse_over_reverse():
    def grad_f(x):
        _y, g = reverse_j(quartic, x, 1.0, apply_py)
        return g
    _g, h = reverse_j(grad_f, 2.0, 1.0, apply_py)
    assert abs(h - 48.0) <= 1e-10


def test_second_derivative_forward_over_forward():
    def df(x):
        _y, t = forward_j(quartic, x, 1.0, apply_py)
        return t
    _t, ddf = forward_j(df, 2.0, 1.0, apply_py)
    assert abs(ddf - 48.0) <= 1e-10


def test_perturbation_confusion_guard():
    # g(x) = x * D(lambda y: x*y)(2); the inner derivative is x, so
    # g(x) = x^2 and g'(x) = 2x -- exactly, with no confusion between the
    # inner and outer perturbations of x
    def g(x):
        def inner(y):
            return lift_binary("*", x, y)
        _y, dy = forward_j(inner, 2.0, 1.0, apply_py)
        return lift_binary("*", x, dy)

    for x0 in (0.5, 1.0, 3.0, -2.0):
        y, t = forward_j(g, x0, 1.0, apply_py)
        assert y == x0 * x0
        assert t == 2.0 * x0
        _y, gr = reverse_j(g, x0, 1.0, apply_py)
        assert gr == 2.0 * x0


def test_third_order_nesting():
    # f(x) = x^4; f'''(2) = 24 * 2 = 48
    def d1(x):
        return reverse_j(quartic, x, 1.0, apply_py)[1]

    def d2(x):
        return forward_j(d1, x, 1.0, apply_py)[1]

    _y, d3 = forward_j(d2, 2.0, 1.0, apply_py)
    assert abs(d3 - 48.0) <= 1e-9


def test_shape_errors_on_a_deep_value_are_shape_errors():
    # the error message formats the 1500-element list without recursing
    deep = EMPTY
    for i in range(1500):
        deep = Pair(float(i), deep)
    with pytest.raises(CotangentShapeError):
        reverse_j(lambda x: Pair(x, 2.0), 1.0, Pair(deep, 1.0), apply_py)
    with pytest.raises(CotangentShapeError):
        forward_j(lambda x: x, 1.0, deep, apply_py)
