"""Forward/reverse AD: derivative oracles, finite differences, structure
handling, nesting, and perturbation confusion."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckad import ad
from ckad.ad import (Dual, FlatSensitivity, TapeCell, bundle,
                     collect_leaves, forward_j, lift_binary, lift_unary,
                     map_structure, reverse_j, unbundle)
from ckad.bench import BenchmarkParams, build_example_program
from ckad.cps import CpsMachine
from ckad.direct import run_program_direct
from ckad.drivers import RunConfig
from ckad.errors import ArithmeticEvalError, CotangentShapeError, EvalError
from ckad.metrics import METER
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


# -- tapes ---------------------------------------------------------------------

def test_a_cell_of_a_closed_tape_is_a_constant():
    # two reverse passes in turn use one level; a cell kept from the first
    # has the index of the second's input, and must not be read against
    # the second's tape
    kept = []

    def first(x):
        kept.append(x)
        return lift_binary("*", x, x)

    reverse_j(first, 3.0, 1.0, apply_py)
    stale = kept[0]
    _y, g = reverse_j(
        lambda x: lift_binary("*", lift_binary("+", x, stale), x), 2.0, 1.0,
        apply_py)
    assert g == 2.0 * 2.0 + 3.0  # d/dx (x + 3) x at x = 2
    # with no tape open at its level it gives its primal result
    assert lift_binary("*", stale, 2.0) == 6.0
    assert lift_unary("exp", stale) == math.exp(3.0)


def test_inner_reverse_passes_in_turn_over_an_outer_one():
    # g(x) = q'(x) + q'(2x) with q = x^4: two inner tapes, one after the
    # other at the same level, both recording onto the outer tape
    def dq(x):
        return reverse_j(quartic, x, 1.0, apply_py)[1]

    def g(x):
        return lift_binary("+", dq(x), dq(lift_binary("*", 2.0, x)))

    _y, h = reverse_j(g, 1.5, 1.0, apply_py)
    assert_close(h, 12.0 * 1.5 ** 2 + 96.0 * 1.5 ** 2, 1e-14, "g'(1.5)")


@pytest.mark.parametrize("pipeline", ["a", "b"])
def test_leaves_at_one_depth_with_inner_tapes_match_the_taped_gradient(
        pipeline):
    # every checkpoint-*j leaf opens a tape at the same level, and the *j
    # inside it another one level deeper
    body = """
(define (g y) (* y (sin y)))
(define (loop x k)
  (if (< k 0.5) x (loop (+ x (* 0.1 (cdr (*j g x 1.0)))) (- k 1.0))))
({} (lambda (x) (loop x 6.0)) 0.9 1.0)
"""
    taped = run_value(parse_program(body.format("*j")), pipeline=pipeline)
    config = RunConfig(alpha=8)
    METER.reset()
    value = run_value(parse_program(body.format("checkpoint-*j")), config,
                      pipeline)
    assert METER.leaves > 1
    METER.reset()
    assert bitwise_equal(value, taped)


def test_tape_bytes_per_live_cell():
    # the tracemalloc peak of one reverse-mode gradient over its tape
    # peak: flat records, no cell objects kept by the tape
    import tracemalloc
    program = build_example_program(BenchmarkParams(100, 8))
    machine = CpsMachine(RunConfig(mode="reverse"))
    METER.reset()
    tracemalloc.start()
    try:
        machine.run_program(program)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = METER.tape_peak
    METER.reset()
    assert cells == 20235
    assert peak / cells <= 64, f"{peak / cells:.1f} B per cell"


# -- the tape against an object-graph reference -------------------------------
# The tape as it was before its records became flat arrays: one object per
# operation holding (parent, partial) pairs, swept by the same rule.  Values
# that are not reference cells go to the package's own lifts, so forward
# mode (Dual) nests over it and it nests over itself.

class RefCell:
    __slots__ = ("primal", "parents", "cot", "level")

    def __init__(self, primal, parents, level):
        self.primal, self.parents, self.level = primal, parents, level
        self.cot = 0.0


REF_TAPES = {}  # level -> the open reference tape's cells, in order


def ref_op(op, *args):
    level = max(a.level if type(a) in (Dual, RefCell) else 0 for a in args)
    tops = [type(a) is RefCell and a.level == level for a in args]
    if not any(tops):
        return (lift_unary if len(args) == 1 else lift_binary)(op, *args)
    ps = [a.primal if top else a for a, top in zip(args, tops)]
    primal = ref_op(op, *ps)
    partials = ref_partials(op, *ps)
    parents = tuple((a, d) for a, top, d in zip(args, tops, partials)
                    if top and not (type(d) is float and d == 0.0))
    cell = RefCell(primal, parents, level)
    REF_TAPES[level].append(cell)
    return cell


def ref_partials(op, a, b=None):
    if op in ("+", "-", "*"):
        return {"+": (1.0, 1.0), "-": (1.0, -1.0), "*": (b, a)}[op]
    if op == "/":
        return (ref_op("/", 1.0, b),
                ref_op("-", 0.0, ref_op("/", ref_op("/", a, b), b)))
    return ({"sqrt": lambda: ref_op("/", 0.5, ref_op("sqrt", a)),
             "sin": lambda: ref_op("cos", a),
             "cos": lambda: ref_op("-", 0.0, ref_op("sin", a)),
             "exp": lambda: ref_op("exp", a),
             "log": lambda: ref_op("/", 1.0, a),
             "atan": lambda: ref_op("/", 1.0, ref_op(
                 "+", 1.0, ref_op("*", a, a))),
             "floor": lambda: 0.0}[op](),)


def ref_reverse(f, xs, ybar):
    """The cotangents of the inputs ``xs`` (a Python list) of scalar
    ``f``, on the reference tape."""
    level = ad._enter_level()
    tape = REF_TAPES[level] = []
    try:
        cells = [RefCell(x, (), level) for x in xs]
        tape.extend(cells)
        out = f(cells)
        if type(out) is RefCell and out.level == level:
            out.cot = ref_op("+", out.cot, ybar)
        for cell in reversed(tape):
            if type(cell.cot) is float and cell.cot == 0.0:
                continue
            for parent, partial in cell.parents:
                parent.cot = ref_op(
                    "+", parent.cot, ref_op("*", partial, cell.cot))
        return [cell.cot for cell in cells]
    finally:
        del REF_TAPES[level]
        ad._exit_level()


UNARY_OPS = ["sqrt", "sin", "cos", "exp", "log", "atan", "floor"]
SPECIAL = [0.0, -0.0, 1.0, -1.5, 0.5, 1e200, -1e200, math.inf, math.nan]


@st.composite
def dags(draw):
    """Inputs and a DAG over them: each node applies an operator to
    earlier nodes (so subexpressions are shared) or is a constant."""
    floats = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(SPECIAL))
    xs = draw(st.lists(floats, min_size=1, max_size=3))
    nodes = []
    for _ in range(draw(st.integers(1, 12))):
        last = len(xs) + len(nodes) - 1
        # half the operands are the latest node, so most nodes reach the
        # output
        pick = st.one_of(st.just(last), st.integers(0, last))
        kind = draw(st.sampled_from("uubbbbc"))
        if kind == "u":
            nodes.append((draw(st.sampled_from(UNARY_OPS)), draw(pick)))
        elif kind == "b":
            nodes.append((draw(st.sampled_from("+-*/")), draw(pick),
                          draw(pick)))
        else:
            nodes.append(("const", draw(floats)))
    return xs, nodes


def eval_dag(nodes, xs, unary, binary):
    vals = list(xs)
    for node in nodes:
        if node[0] == "const":
            vals.append(node[1])
        elif len(node) == 2:
            vals.append(unary(node[0], vals[node[1]]))
        else:
            vals.append(binary(node[0], vals[node[1]], vals[node[2]]))
    return vals[-1]


def to_list(xs):
    out = EMPTY
    for v in reversed(xs):
        out = Pair(v * 1.0 if type(v) is float else v, out)  # distinct leaves
    return out


def items(v):
    out = []
    while v is not EMPTY:
        out.append(v.car)
        v = v.cdr
    return out


def weighted_sum(binary, cots):
    """One scalar of a gradient, for an outer reverse pass."""
    acc = 0.0
    for w, c in zip((1.0, -0.5, 2.0), cots):
        acc = binary("+", acc, binary("*", w, c))
    return acc


def outcome(thunk):
    """The bits of every float ``thunk`` returns, or the type of the
    exception it raises."""
    try:
        floats = thunk()
    except (ArithmeticError, ValueError, EvalError) as exc:
        return type(exc)
    return struct.pack(f"<{len(floats)}d", *floats)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dags(), st.sampled_from([1.0, -0.5, 0.0, -0.0, 3.0]),
       st.sampled_from([1.0, -2.0, 0.0]))
def test_tape_gives_the_reference_tapes_cotangent_bits(dag, ybar, v):
    xs, nodes = dag

    def f(x):
        return eval_dag(nodes, items(x), lift_unary, lift_binary)

    def f_ref(cells):
        return eval_dag(nodes, cells, ref_op, ref_op)

    def grad(x):
        return reverse_j(f, x, ybar, apply_py)[1]

    def grad_ref(x):
        return to_list(ref_reverse(f_ref, items(x), ybar))

    first = outcome(lambda: items(grad(to_list(xs))))
    assert first == outcome(lambda: ref_reverse(f_ref, xs, ybar))
    tangent = to_list([v] * len(xs))

    def fwd(g):
        y, t = forward_j(g, to_list(xs), tangent, apply_py)
        return items(y) + items(t)

    assert outcome(lambda: fwd(grad)) == outcome(lambda: fwd(grad_ref))
    rr = outcome(lambda: items(reverse_j(
        lambda x: weighted_sum(lift_binary, items(grad(x))),
        to_list(xs), 1.0, apply_py)[1]))
    assert rr == outcome(lambda: ref_reverse(
        lambda cells: weighted_sum(
            ref_op, ref_reverse(f_ref, cells, ybar)), xs, 1.0))


# -- the primitive table against the lifted operations it replaced ----------
# A reference copy of the operator dispatch as it was before the table:
# apply_unary/apply_binary's string tests in front of lift_unary/lift_binary,
# with the first-order taped case inline in lift_binary, recording by a copy
# of _record on the package's own tapes.

def ref_record(primal, level, a, da, b, db):
    tape = ad._registries.get(level)
    if tape is None:
        return primal
    starts, parents, partials = tape.starts, tape.parents, tape.partials
    starts.append(len(parents))
    for v, d in ((a, da), (b, db)):
        if (type(v) is TapeCell and v.tape is tape
                and (type(d) is not float or d != 0.0)):
            if type(d) is not float and type(partials) is not list:
                partials = tape.partials = partials.tolist()
            parents.append(v.index)
            partials.append(d)
    return TapeCell(primal, len(starts) - 1, tape, level)


REF_PRIM_UNARY = {
    "sqrt": lambda x: ref_fail("sqrt of negative number: {}", x, x < 0.0)
    or math.sqrt(x),
    "sin": math.sin, "cos": math.cos, "exp": math.exp,
    "log": lambda x: ref_fail("log of non-positive number: {}", x, x <= 0.0)
    or math.log(x),
    "atan": math.atan, "floor": lambda x: float(math.floor(x)),
}


def ref_fail(message, x, failed):
    if failed:
        raise ArithmeticEvalError(message.format(x))


def ref_div(a, b):
    if b == 0.0:
        raise ArithmeticEvalError("division by zero")
    return a / b


def ref_d_unary(op, x):
    return {"sqrt": lambda: ref_lift_binary(
                "/", 0.5, ref_lift_unary("sqrt", x)),
            "sin": lambda: ref_lift_unary("cos", x),
            "cos": lambda: ref_lift_binary(
                "-", 0.0, ref_lift_unary("sin", x)),
            "exp": lambda: ref_lift_unary("exp", x),
            "log": lambda: ref_lift_binary("/", 1.0, x),
            "atan": lambda: ref_lift_binary("/", 1.0, ref_lift_binary(
                "+", 1.0, ref_lift_binary("*", x, x))),
            "floor": lambda: 0.0}[op]()


def ref_d_unary_float(op, x, y):
    return {"sqrt": lambda: ref_div(0.5, y), "sin": lambda: math.cos(x),
            "cos": lambda: 0.0 - math.sin(x), "exp": lambda: y,
            "log": lambda: 1.0 / x,
            "atan": lambda: 1.0 / (1.0 + x * x), "floor": lambda: 0.0}[op]()


def ref_lift_unary(op, v):
    t = type(v)
    if t is TapeCell:
        x = v.primal
        primal = ref_lift_unary(op, x)
        partial = (ref_d_unary_float(op, x, primal) if type(x) is float
                   else ref_d_unary(op, x))
        return ref_record(primal, v.level, v, partial, None, 0.0)
    if t is Dual:
        primal = ref_lift_unary(op, v.primal)
        tangent = ref_lift_binary("*", ref_d_unary(op, v.primal), v.tangent)
        return Dual(primal, tangent, v.level)
    try:
        return REF_PRIM_UNARY[op](float(v))
    except (ValueError, OverflowError):
        raise ArithmeticEvalError(
            f"{op} undefined or out of range at {v}") from None


def ref_d_binary(op, a, b):
    if op == "+":
        return 1.0, 1.0
    if op == "-":
        return 1.0, -1.0
    if op == "*":
        return b, a
    return (ref_lift_binary("/", 1.0, b), ref_lift_binary(
        "-", 0.0, ref_lift_binary("/", ref_lift_binary("/", a, b), b)))


def ref_lift_binary(op, a, b):
    a_ad = isinstance(a, (Dual, TapeCell))
    b_ad = isinstance(b, (Dual, TapeCell))
    if not a_ad and not b_ad:
        a, b = float(a), float(b)
        return {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
                "/": lambda: ref_div(a, b)}[op]()
    la = a.level if a_ad else 0
    lb = b.level if b_ad else 0
    level = max(la, lb)
    a_top = a_ad and la == level
    b_top = b_ad and lb == level
    pa = a.primal if a_top else a
    pb = b.primal if b_top else b
    if type(a if a_top else b) is Dual:
        primal = ref_lift_binary(op, pa, pb)
        da, db = ref_d_binary(op, pa, pb)
        tangent = 0.0
        if a_top:
            if type(a) is not Dual:
                raise EvalError("mixed perturbation and tape at one level")
            tangent = ref_lift_binary("*", da, a.tangent)
        if b_top:
            if type(b) is not Dual:
                raise EvalError("mixed perturbation and tape at one level")
            tb = ref_lift_binary("*", db, b.tangent)
            tangent = ref_lift_binary("+", tangent, tb) if a_top else tb
        return Dual(primal, tangent, level)
    if type(pa) is float and type(pb) is float:
        if op == "/":
            primal = ref_div(pa, pb)
            da, db = 1.0 / pb, 0.0 - primal / pb
        else:
            primal = ref_lift_binary(op, pa, pb)
            da, db = ref_d_binary(op, pa, pb)
    else:
        primal = ref_lift_binary(op, pa, pb)
        da, db = ref_d_binary(op, pa, pb)
    return ref_record(primal, level, a, da, b, db)


def ref_apply_unary(op, v):
    if op in REF_PRIM_UNARY:
        return ref_lift_unary(op, v)
    if op == "zero?":
        return ad.deep_primal(v) == 0.0
    if op == "null?":
        return v is EMPTY
    if type(v) is not Pair:
        raise EvalError(f"{op} of a non-pair: {v!r}")
    return v.car if op == "car" else v.cdr


def ref_apply_binary(op, a, b):
    if op == "cons":
        return Pair(a, b)
    if op in ("<", "<=", "="):
        pa, pb = ad.deep_primal(a), ad.deep_primal(b)
        return pa < pb if op == "<" else pa <= pb if op == "<=" else pa == pb
    return ref_lift_binary(op, a, b)


#: operand cases: what each operand is, and the levels to open first
#: ("r" a reverse level with a tape, "f" a forward level)
OPERAND_CASES = {
    "float, float": ("", "x", "y"),
    "cell, float": ("r", "c1", "y"),
    "float, cell": ("r", "x", "c1"),
    "cell, cell at one level": ("r", "c1", "d1"),
    "shallower cell under a deeper tape": ("rr", "c1", "d2"),
    "deeper cell over a shallower one": ("rr", "c2", "d1"),
    "shallower cell and float under a deeper tape": ("rr", "c1", "y"),
    "dual, float": ("f", "u1", "y"),
    "cell under a dual": ("rf", "c1", "u2"),
    "dual under a cell": ("fr", "u1", "c2"),
    "cell of a closed tape": ("r", "s1", "y"),
    "boolean, cell": ("r", "t", "c1"),
}


def describe(v):
    """A value's types, levels, record indices and float bits."""
    t = type(v)
    if t is float:
        return struct.pack("<d", v)
    if t is TapeCell:
        return ("cell", describe(v.primal), v.index, v.level)
    if t is Dual:
        return ("dual", describe(v.primal), describe(v.tangent), v.level)
    if t is Pair:
        return ("pair", describe(v.car), describe(v.cdr))
    return repr(v)


def outcome_on_tapes(fn, case, x, y):
    """``fn`` on the operands of ``case`` made from ``x`` and ``y``: the
    result or error, and every open tape's records."""
    levels, first, second = OPERAND_CASES[case]
    tapes = {}
    for kind in levels:
        level = ad._enter_level()
        if kind == "r":
            tapes[level] = ad._registries[level] = ad.Tape()
    try:
        def operand(spec, value):
            if spec in ("x", "y"):
                return value * 1.0
            if spec == "t":
                return True
            level = int(spec[1])
            if spec[0] == "u":
                return Dual(value * 1.0, 0.5, level)
            cell = ad._record(value * 1.0, level, None, 0.0, None, 0.0)
            if spec[0] == "s":  # its level closes and opens again
                tapes[level] = ad._registries[level] = ad.Tape()
            return cell
        try:
            result = describe(fn(operand(first, x), operand(second, y)))
        except EvalError as exc:
            result = (type(exc), str(exc))
        records = []
        for tape in tapes.values():
            partials = tape.partials
            records.append((list(tape.starts), list(tape.parents),
                            [describe(p) for p in partials],
                            type(partials)))
        return result, records
    finally:
        for level in reversed(range(1, ad._level_depth + 1)):
            ad._registries.pop(level, None)
            ad._exit_level()


TABLE_FLOATS = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(SPECIAL))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(ad.BINARY)), st.sampled_from(
    sorted(OPERAND_CASES)), TABLE_FLOATS, TABLE_FLOATS)
def test_binary_table_matches_the_lifted_reference(op, case, x, y):
    assert (outcome_on_tapes(ad.BINARY[op], case, x, y)
            == outcome_on_tapes(lambda a, b: ref_apply_binary(op, a, b),
                                case, x, y))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(ad.UNARY)), st.sampled_from(
    sorted(OPERAND_CASES)), TABLE_FLOATS)
def test_unary_table_matches_the_lifted_reference(op, case, x):
    # the unary operator takes the case's first operand
    assert (outcome_on_tapes(lambda a, _b: ad.UNARY[op](a), case, x, 0.0)
            == outcome_on_tapes(lambda a, _b: ref_apply_unary(op, a),
                                case, x, 0.0))
