"""Nestable forward- and reverse-mode automatic differentiation.

Perturbations (``Dual``) and tape nodes (``TapeCell``) carry an integer
nesting level.  Every entry into an AD operator allocates a fresh level
one deeper than the current one; arithmetic dispatches on the deepest
level present among its operands, and values at shallower levels are
treated as constants of the deeper computation.  This is what makes
forward-over-reverse (and deeper nests) come out right, and what prevents
perturbation confusion between an inner and an outer derivative of the
same variable.

Reverse mode is structural: the independent value's numeric leaves are
replaced by tape cells before the function runs, and the cotangent is
read back off the cells afterwards.  The structural walks deliberately
handle *any* runtime value — including capsules, closures, environments
and continuation records — because the checkpointing drivers
differentiate through interrupted computations whose inputs and outputs
are exactly such structures.  Walks are memoized by object identity so
that shared substructure maps to shared substructure (one tape cell per
unique leaf object).

For ground values (numbers, booleans, pairs, the empty list) tangents and
cotangents mirror the value's shape.  For non-ground values (capsules
etc.) they are represented as a flat tuple of per-leaf sensitivities in
deterministic walk order (:class:`FlatSensitivity`); the two sides of a
checkpoint split produce and consume these in the same order because both
walk structurally identical values.
"""

from __future__ import annotations

import math

from .errors import ArithmeticEvalError, CotangentShapeError, EvalError
from .metrics import METER
from .values import BOTTOM, EMPTY, INFINITY, Capsule, Closure, Env, Pair

# ---------------------------------------------------------------------------
# levels
# ---------------------------------------------------------------------------

_level_depth = 0


def _enter_level() -> int:
    global _level_depth
    _level_depth += 1
    return _level_depth


def _exit_level() -> None:
    global _level_depth
    _level_depth -= 1


# ---------------------------------------------------------------------------
# AD values
# ---------------------------------------------------------------------------

class Dual:
    """A primal/tangent pair at a nesting level."""

    __slots__ = ("primal", "tangent", "level")

    def __init__(self, primal, tangent, level: int):
        self.primal = primal
        self.tangent = tangent
        self.level = level

    def __repr__(self) -> str:
        return f"<dual@{self.level} {self.primal!r} {self.tangent!r}>"


class TapeCell:
    """A node of the reverse-mode tape at a nesting level.

    ``parents`` holds (cell, local-partial) pairs; partials and the
    cotangent accumulator are general values so that a reverse pass can
    itself be differentiated by an enclosing operator.
    """

    __slots__ = ("primal", "parents", "cot", "level")

    def __init__(self, primal, parents, level: int):
        self.primal = primal
        self.parents = parents
        self.cot = 0.0
        self.level = level

    def __repr__(self) -> str:
        return f"<cell@{self.level} {self.primal!r}>"


class FlatSensitivity:
    """Tangent/cotangent of a non-ground value: one entry per numeric leaf
    in deterministic walk order."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"<flat-sensitivity n={len(self.entries)}>"


_AD = (Dual, TapeCell)
_NUMERIC_LEAF = (float, Dual, TapeCell)


def deep_primal(v):
    """Strip all AD wrappers down to the underlying double."""
    while isinstance(v, _AD):
        v = v.primal
    return v


# ---------------------------------------------------------------------------
# primitive numeric operations on plain doubles
# ---------------------------------------------------------------------------

def _prim_sqrt(x):
    if x < 0.0:
        raise ArithmeticEvalError(f"sqrt of negative number: {x}")
    return math.sqrt(x)


def _prim_log(x):
    if x <= 0.0:
        raise ArithmeticEvalError(f"log of non-positive number: {x}")
    return math.log(x)


def _prim_exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        raise ArithmeticEvalError(f"exp overflow: {x}") from None


def _prim_div(a, b):
    if b == 0.0:
        raise ArithmeticEvalError("division by zero")
    return a / b


_PRIM_UNARY = {
    "sqrt": _prim_sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "exp": _prim_exp,
    "log": _prim_log,
    "atan": math.atan,
    "floor": lambda x: float(math.floor(x)),
}

_PRIM_BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _prim_div,
}


# ---------------------------------------------------------------------------
# lifted arithmetic
# ---------------------------------------------------------------------------

def _new_cell(primal, parents, level):
    cell = TapeCell(primal, parents, level)
    registry = _registries[level]
    registry.append(cell)
    METER.cells_created()
    return cell


# open tape registries, keyed by level
_registries: dict = {}


def _d_unary(op, x):
    """Local derivative of a unary primitive at (possibly lifted) x."""
    if op == "sqrt":
        return lift_binary("/", 0.5, lift_unary("sqrt", x))
    if op == "sin":
        return lift_unary("cos", x)
    if op == "cos":
        return lift_binary("-", 0.0, lift_unary("sin", x))
    if op == "exp":
        return lift_unary("exp", x)
    if op == "log":
        return lift_binary("/", 1.0, x)
    if op == "atan":
        return lift_binary("/", 1.0,
                           lift_binary("+", 1.0, lift_binary("*", x, x)))
    if op == "floor":
        return 0.0
    raise EvalError(f"unknown unary operator: {op}")


def lift_unary(op, v):
    if not isinstance(v, _AD):
        fn = _PRIM_UNARY.get(op)
        if fn is None:
            raise EvalError(f"unknown unary operator: {op}")
        return fn(float(v))
    if type(v) is Dual:
        primal = lift_unary(op, v.primal)
        tangent = lift_binary("*", _d_unary(op, v.primal), v.tangent)
        return Dual(primal, tangent, v.level)
    # TapeCell
    primal = lift_unary(op, v.primal)
    partial = _d_unary(op, v.primal)
    parents = ((v, partial),) if not _is_zero(partial) else ()
    return _new_cell(primal, parents, v.level)


def _is_zero(v) -> bool:
    return type(v) is float and v == 0.0


def lift_binary(op, a, b):
    a_ad = isinstance(a, _AD)
    b_ad = isinstance(b, _AD)
    if not a_ad and not b_ad:
        fn = _PRIM_BINARY.get(op)
        if fn is None:
            raise EvalError(f"unknown binary operator: {op}")
        return fn(float(a), float(b))
    la = a.level if a_ad else 0
    lb = b.level if b_ad else 0
    level = la if la >= lb else lb
    a_top = a_ad and la == level
    b_top = b_ad and lb == level
    pa = a.primal if a_top else a
    pb = b.primal if b_top else b
    top = a if a_top else b
    if type(top) is Dual:
        primal = lift_binary(op, pa, pb)
        da, db = _d_binary(op, pa, pb)
        tangent = 0.0
        if a_top:
            if type(a) is not Dual:
                raise EvalError("mixed perturbation and tape at one level")
            tangent = lift_binary("*", da, a.tangent)
        if b_top:
            if type(b) is not Dual:
                raise EvalError("mixed perturbation and tape at one level")
            tb = lift_binary("*", db, b.tangent)
            tangent = lift_binary("+", tangent, tb) if a_top else tb
        return Dual(primal, tangent, level)
    # TapeCell at the top level
    primal = lift_binary(op, pa, pb)
    da, db = _d_binary(op, pa, pb)
    parents = []
    if a_top and not _is_zero(da):
        parents.append((a, da))
    if b_top and not _is_zero(db):
        parents.append((b, db))
    return _new_cell(primal, tuple(parents), level)


def _d_binary(op, a, b):
    if op == "+":
        return 1.0, 1.0
    if op == "-":
        return 1.0, -1.0
    if op == "*":
        return b, a
    if op == "/":
        inv = lift_binary("/", 1.0, b)
        return inv, lift_binary("-", 0.0,
                                lift_binary("/", lift_binary("/", a, b), b))
    raise EvalError(f"unknown binary operator: {op}")


# ---------------------------------------------------------------------------
# structural walks
# ---------------------------------------------------------------------------

def map_structure(v, fn, memo=None):
    """Rebuild ``v`` with ``fn`` applied to every numeric leaf (floats and
    AD values), memoized by object identity so shared substructure stays
    shared.  All other atoms (booleans, ints, sentinels, AST nodes) pass
    through unchanged."""
    if memo is None:
        memo = {}
    return _map(v, fn, memo)


def _map(v, fn, memo):
    t = type(v)
    if t is bool or t is int or v is EMPTY or v is BOTTOM or v is INFINITY:
        return v
    key = id(v)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    if t is float or t is Dual or t is TapeCell:
        new = fn(v)
        memo[key] = (v, new)
        return new
    if t is Pair:
        new = Pair(None, None)
        memo[key] = (v, new)
        new.car = _map(v.car, fn, memo)
        new.cdr = _map(v.cdr, fn, memo)
        return new
    elif t is Closure:
        new = Closure(v.lam, None)
        memo[key] = (v, new)
        new.env = _map_env(v.env, fn, memo)
        return new
    elif t is Env:
        return _map_env(v, fn, memo)
    elif t is Capsule:
        new = Capsule(None, None)
        memo[key] = (v, new)
        new.k = _map(v.k, fn, memo)
        new.f = _map(v.f, fn, memo)
        return new
    else:
        # continuation records expose map_children; record chains are
        # acyclic (a record can only reference records created before it)
        mapper = getattr(v, "map_children", None)
        if mapper is None:
            return v
        new = mapper(lambda child: _map(child, fn, memo))
        memo[key] = (v, new)
        return new


def _map_env(env, fn, memo):
    key = id(env)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    new = Env({}, None)
    memo[key] = (env, new)
    new.frame = {name: _map(val, fn, memo) for name, val in env.frame.items()}
    if env.parent is not None:
        new.parent = _map_env(env.parent, fn, memo)
    return new


def is_ground(v) -> bool:
    """Ground values: numbers (possibly AD-wrapped), booleans, the empty
    list, and pairs thereof."""
    stack = [v]
    while stack:
        cur = stack.pop()
        t = type(cur)
        if t is Pair:
            stack.append(cur.car)
            stack.append(cur.cdr)
        elif t in (float, bool, Dual, TapeCell) or cur is EMPTY:
            continue
        else:
            return False
    return True


def collect_leaves(v):
    """Numeric leaves of ``v`` in deterministic walk order (shared leaves
    appear once)."""
    leaves = []

    def record(leaf):
        leaves.append(leaf)
        return leaf

    map_structure(v, record)
    return leaves


# ---------------------------------------------------------------------------
# bundling / unbundling (forward mode)
# ---------------------------------------------------------------------------

def bundle(v, tangent, level: int):
    """Attach ``tangent`` to the numeric leaves of ``v`` at ``level``.

    ``tangent`` either mirrors the shape of ``v`` or is a
    :class:`FlatSensitivity`.
    """
    if isinstance(tangent, FlatSensitivity):
        cursor = iter(tangent.entries)

        def attach(leaf):
            try:
                t = next(cursor)
            except StopIteration:
                raise CotangentShapeError(
                    "tangent has fewer entries than the value has leaves"
                ) from None
            return Dual(leaf, t, level)

        result = map_structure(v, attach)
        remaining = sum(1 for _ in cursor)
        if remaining:
            raise CotangentShapeError(
                f"tangent has {remaining} extra entries")
        return result
    return _bundle_mirror(v, tangent, level, {})


def _bundle_mirror(v, tangent, level, memo):
    t = type(v)
    if t is bool or v is EMPTY:
        return v
    if t in _NUMERIC_LEAF:
        key = id(v)
        hit = memo.get(key)
        if hit is not None:
            return hit[1]
        if not isinstance(tangent, _NUMERIC_LEAF):
            raise CotangentShapeError(
                f"tangent shape mismatch: expected a number, got {tangent!r}")
        new = Dual(v, tangent, level)
        memo[key] = (v, new)
        return new
    if t is Pair:
        key = id(v)
        hit = memo.get(key)
        if hit is not None:
            return hit[1]
        if type(tangent) is not Pair:
            raise CotangentShapeError(
                f"tangent shape mismatch: expected a pair, got {tangent!r}")
        new = Pair(None, None)
        memo[key] = (v, new)
        new.car = _bundle_mirror(v.car, tangent.car, level, memo)
        new.cdr = _bundle_mirror(v.cdr, tangent.cdr, level, memo)
        return new
    raise CotangentShapeError(
        f"cannot bundle a tangent onto a non-ground value: {v!r}")


def unbundle(v, level: int):
    """Split ``v`` into (primal, tangent) at ``level``.

    Numeric leaves that carry no perturbation at ``level`` contribute a
    zero tangent.  The tangent mirrors ground values and is flat
    otherwise.
    """
    primal = map_structure(
        v, lambda leaf: leaf.primal
        if type(leaf) is Dual and leaf.level == level else leaf)
    if is_ground(v):
        tangent = map_structure(
            v, lambda leaf: leaf.tangent
            if type(leaf) is Dual and leaf.level == level else 0.0)
        return primal, tangent
    entries = [leaf.tangent if type(leaf) is Dual and leaf.level == level
               else 0.0 for leaf in collect_leaves(v)]
    return primal, FlatSensitivity(entries)


def forward_j(f, x, x_tangent, applier):
    """Forward-mode derivative: returns (y, y_tangent)."""
    level = _enter_level()
    try:
        x_bundled = bundle(x, x_tangent, level)
        out = applier(f, x_bundled)
        return unbundle(out, level)
    finally:
        _exit_level()


# ---------------------------------------------------------------------------
# reverse mode
# ---------------------------------------------------------------------------

def _seed_mirror(out, ybar, level, memo):
    t = type(out)
    if t is bool or out is EMPTY:
        return
    if t in _NUMERIC_LEAF:
        key = id(out)
        if key in memo:
            return
        memo[key] = out
        if not isinstance(ybar, _NUMERIC_LEAF):
            raise CotangentShapeError(
                f"cotangent shape mismatch: expected a number, got {ybar!r}")
        if t is TapeCell and out.level == level:
            out.cot = lift_binary("+", out.cot, ybar)
        return
    if t is Pair:
        key = id(out)
        if key in memo:
            return
        memo[key] = out
        if type(ybar) is not Pair:
            raise CotangentShapeError(
                f"cotangent shape mismatch: expected a pair, got {ybar!r}")
        _seed_mirror(out.car, ybar.car, level, memo)
        _seed_mirror(out.cdr, ybar.cdr, level, memo)
        return
    raise CotangentShapeError(
        "a structured cotangent is required for a non-ground output; "
        f"got output {out!r}")


def _seed_flat(out, ybar: FlatSensitivity, level):
    leaves = collect_leaves(out)
    if len(leaves) != len(ybar.entries):
        raise CotangentShapeError(
            f"flat cotangent has {len(ybar.entries)} entries but the output "
            f"has {len(leaves)} numeric leaves")
    for leaf, entry in zip(leaves, ybar.entries):
        if type(leaf) is TapeCell and leaf.level == level:
            leaf.cot = lift_binary("+", leaf.cot, entry)


def reverse_j(f, x, y_cotangent, applier):
    """Reverse-mode derivative: returns (y, x_cotangent).

    ``applier`` runs ``f`` on the taped input and may return any value,
    including a capsule (an interrupted computation): cotangents then flow
    into and out of the capsule's numeric leaves.
    """
    level = _enter_level()
    registry: list = []
    _registries[level] = registry
    try:
        x_taped = map_structure(
            x, lambda leaf: _new_cell(leaf, (), level))
        out = applier(f, x_taped)
        if isinstance(y_cotangent, FlatSensitivity):
            _seed_flat(out, y_cotangent, level)
        else:
            _seed_mirror(out, y_cotangent, level, {})
        # reverse sweep in anti-chronological order
        for cell in reversed(registry):
            cot = cell.cot
            if _is_zero(cot):
                continue
            for parent, partial in cell.parents:
                parent.cot = lift_binary(
                    "+", parent.cot, lift_binary("*", partial, cot))
        y = map_structure(
            out, lambda leaf: leaf.primal
            if type(leaf) is TapeCell and leaf.level == level else leaf)
        if is_ground(x):
            x_cotangent = map_structure(
                x_taped, lambda leaf: leaf.cot
                if type(leaf) is TapeCell and leaf.level == level else 0.0)
        else:
            x_cotangent = FlatSensitivity(
                [leaf.cot if type(leaf) is TapeCell and leaf.level == level
                 else 0.0 for leaf in collect_leaves(x_taped)])
        return y, x_cotangent
    finally:
        METER.cells_released(len(registry))
        del _registries[level]
        _exit_level()
