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
read back off the cells afterwards.  The structural code deliberately
handles *any* runtime value — including capsules, closures, environments
and continuation records — because the checkpointing drivers
differentiate through interrupted computations whose inputs and outputs
are exactly such structures.

One iterative walk, :func:`collect_leaves`, indexes a value: its unique
numeric leaves in walk order (shared leaves appear once, so one tape cell
per unique leaf object), its containers, and whether it is ground.
:func:`map_structure` rebuilds the value from the index with new leaves;
shared substructure maps to shared substructure.  Neither recurses in
Python, so a value's depth is not bounded by the recursion limit.
``forward_j`` and ``reverse_j`` index each value once (the input, then the
output) and reuse the index for taping, seeding, stripping and reading
back.

For ground values (numbers, booleans, pairs, the empty list) tangents and
cotangents mirror the value's shape.  For non-ground values (capsules
etc.) they are represented as a flat tuple of per-leaf sensitivities in
walk order (:class:`FlatSensitivity`); the two sides of a checkpoint
split produce and consume these in the same order because both walk
structurally identical values.  A mirrored sensitivity is turned into
per-leaf entries by one shape-checked walk against the value: a leaf at
several positions of a cotangent receives their sum, and one at several
positions of a tangent takes the first.
"""

from __future__ import annotations

import math

from .errors import ArithmeticEvalError, CotangentShapeError, EvalError
from .metrics import METER
from .values import EMPTY, Env, Pair

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


def apply_unary(op, v):
    """A unary primitive of the language on any value."""
    if op in _PRIM_UNARY:
        return lift_unary(op, v)
    if op == "zero?":
        return deep_primal(v) == 0.0
    if op == "null?":
        return v is EMPTY
    if op == "car":
        if type(v) is not Pair:
            raise EvalError(f"car of a non-pair: {v!r}")
        return v.car
    if op == "cdr":
        if type(v) is not Pair:
            raise EvalError(f"cdr of a non-pair: {v!r}")
        return v.cdr
    raise EvalError(f"unknown unary operator: {op}")


_COMPARISONS = frozenset(["<", "<=", "="])


def apply_binary(op, a, b):
    """A binary primitive of the language on any values."""
    if op == "cons":
        return Pair(a, b)
    if op in _COMPARISONS:
        pa = deep_primal(a)
        pb = deep_primal(b)
        if op == "<":
            return pa < pb
        if op == "<=":
            return pa <= pb
        return pa == pb
    return lift_binary(op, a, b)


# ---------------------------------------------------------------------------
# the leaf index
# ---------------------------------------------------------------------------

class LeafIndex(list):
    """The unique numeric leaves of a value, in walk order (the list
    itself), together with the value's containers and whether the value is
    ground.

    The walk visits each object once, at its first occurrence: a pair's
    car before its cdr, an environment's frame values in dict order before
    its parent, and the fields of closures, capsules and continuation
    records in the order their class's ``CHILDREN`` names them.  Atoms
    (booleans, ints, sentinels, AST nodes) are neither leaves nor
    containers.
    """

    __slots__ = ("root", "nodes", "ground")

    def rebuild(self, leaves):
        """The value again with ``leaves[i]`` in place of ``self[i]``.

        Every container is copied field by field, each field passed
        through the map from old leaves and containers to new ones; fields
        that ``CHILDREN`` leaves out hold no runtime value and are kept.
        Shared substructure stays shared."""
        fresh = dict(zip(map(id, self), leaves))
        nodes = self.nodes
        copies = []
        for node in nodes:
            t = type(node)
            copy = t.__new__(t)
            copies.append(copy)
            fresh[id(node)] = copy
        get = fresh.get
        for node, copy in zip(nodes, copies):
            t = type(node)
            if t is Pair:
                c = node.car
                copy.car = get(id(c), c)
                c = node.cdr
                copy.cdr = get(id(c), c)
            elif t is Env:
                copy.frame = {name: get(id(c), c)
                              for name, c in node.frame.items()}
                c = node.parent
                copy.parent = c if c is None else fresh[id(c)]
            else:
                for name in t.__slots__:
                    c = getattr(node, name)
                    setattr(copy, name, get(id(c), c))
        root = self.root
        return get(id(root), root)


def collect_leaves(v) -> LeafIndex:
    """Index ``v``: its unique numeric leaves (floats and AD values) in
    walk order, its containers, and whether it is ground."""
    index = LeafIndex()
    nodes = []
    seen = set()
    add = seen.add
    ground = True
    stack = [v]
    push = stack.append
    pop = stack.pop
    while stack:
        cur = pop()
        t = type(cur)
        if t is float or t is Dual or t is TapeCell:
            k = id(cur)
            if k not in seen:
                add(k)
                index.append(cur)
            continue
        if t is Pair:
            k = id(cur)
            if k not in seen:
                add(k)
                nodes.append(cur)
                push(cur.cdr)
                push(cur.car)
            continue
        if t is bool or cur is EMPTY:
            continue
        ground = False
        if t is Env:
            k = id(cur)
            if k not in seen:
                add(k)
                nodes.append(cur)
                if cur.parent is not None:
                    push(cur.parent)
                stack.extend(reversed(cur.frame.values()))
            continue
        children = getattr(t, "CHILDREN", None)
        if children:
            k = id(cur)
            if k not in seen:
                add(k)
                nodes.append(cur)
                for name in reversed(children):
                    push(getattr(cur, name))
    index.root = v
    index.nodes = nodes
    index.ground = ground
    return index


def map_structure(v, fn, index=None):
    """Rebuild ``v`` with ``fn`` applied to every numeric leaf, in walk
    order.  ``index`` is ``collect_leaves(v)`` when the caller has it."""
    if index is None:
        index = collect_leaves(v)
    return index.rebuild([fn(leaf) for leaf in index])


def is_ground(v) -> bool:
    """Ground values: numbers (possibly AD-wrapped), booleans, the empty
    list, and pairs thereof."""
    return collect_leaves(v).ground


def _entries(index, sensitivity, accumulate, what):
    """One entry of ``sensitivity`` per leaf of ``index``.

    A flat sensitivity is checked for length.  A mirrored one is walked
    against the value position by position: with ``accumulate`` a leaf
    that occurs at several positions sums their entries, otherwise it
    takes the entry at its first position."""
    if type(sensitivity) is FlatSensitivity:
        if len(sensitivity) != len(index):
            raise CotangentShapeError(
                f"flat {what} has {len(sensitivity)} entries but the value "
                f"has {len(index)} numeric leaves")
        return sensitivity.entries
    slot = {id(leaf): i for i, leaf in enumerate(index)}
    entries = [None] * len(index)
    visited = set()
    stack = [(index.root, sensitivity)]
    while stack:
        v, s = stack.pop()
        t = type(v)
        if t is bool or v is EMPTY:
            continue
        if not accumulate:
            if id(v) in visited:
                continue
            visited.add(id(v))
        if t is Pair:
            if type(s) is not Pair:
                raise CotangentShapeError(
                    f"{what} shape mismatch: expected a pair, got {s!r}")
            stack.append((v.cdr, s.cdr))
            stack.append((v.car, s.car))
        elif t in _NUMERIC_LEAF:
            if not isinstance(s, _NUMERIC_LEAF):
                raise CotangentShapeError(
                    f"{what} shape mismatch: expected a number, got {s!r}")
            i = slot[id(v)]
            if entries[i] is None:
                entries[i] = s
            elif accumulate:
                entries[i] = lift_binary("+", entries[i], s)
        else:
            raise CotangentShapeError(
                f"a flat {what} is required for a non-ground value; "
                f"got {v!r}")
    return entries


# ---------------------------------------------------------------------------
# forward mode
# ---------------------------------------------------------------------------

def bundle(v, tangent, level: int):
    """Attach ``tangent`` to the numeric leaves of ``v`` at ``level``.

    ``tangent`` either mirrors the shape of ``v`` or is a
    :class:`FlatSensitivity`.  A leaf shared between positions of a
    mirrored tangent takes the tangent at its first position.
    """
    index = collect_leaves(v)
    tangents = iter(_entries(index, tangent, False, "tangent"))
    return map_structure(v, lambda leaf: Dual(leaf, next(tangents), level),
                         index)


def unbundle(v, level: int):
    """Split ``v`` into (primal, tangent) at ``level``.

    Numeric leaves that carry no perturbation at ``level`` contribute a
    zero tangent.  The tangent mirrors ground values and is flat
    otherwise.
    """
    index = collect_leaves(v)
    primal = map_structure(
        v, lambda leaf: leaf.primal
        if type(leaf) is Dual and leaf.level == level else leaf, index)

    def tangent(leaf):
        return (leaf.tangent if type(leaf) is Dual and leaf.level == level
                else 0.0)

    if index.ground:
        return primal, map_structure(v, tangent, index)
    return primal, FlatSensitivity(map(tangent, index))


def forward_j(f, x, x_tangent, applier):
    """Forward-mode derivative: returns (y, y_tangent)."""
    level = _enter_level()
    try:
        out = applier(f, bundle(x, x_tangent, level))
        return unbundle(out, level)
    finally:
        _exit_level()


# ---------------------------------------------------------------------------
# reverse mode
# ---------------------------------------------------------------------------

def reverse_j(f, x, y_cotangent, applier, need_y=True):
    """Reverse-mode derivative: returns (y, x_cotangent).

    ``applier`` runs ``f`` on the taped input and may return any value,
    including a capsule (an interrupted computation): cotangents then flow
    into and out of the capsule's numeric leaves.  A leaf that occurs at
    several positions of a mirrored cotangent receives their sum.

    With ``need_y`` false the caller drops y: the output is indexed for
    seeding but not stripped of its tape cells, and y is returned as
    ``None``.  The cotangent is the same either way.
    """
    level = _enter_level()
    registry: list = []
    _registries[level] = registry
    try:
        x_index = collect_leaves(x)
        x_taped = map_structure(
            x, lambda leaf: _new_cell(leaf, (), level), x_index)
        # the first cells on this level's tape are x's, in index order
        x_cells = registry[:len(x_index)]
        out = applier(f, x_taped)
        out_index = collect_leaves(out)
        for leaf, entry in zip(out_index, _entries(
                out_index, y_cotangent, True, "cotangent")):
            if type(leaf) is TapeCell and leaf.level == level:
                leaf.cot = lift_binary("+", leaf.cot, entry)
        # reverse sweep in anti-chronological order
        for cell in reversed(registry):
            cot = cell.cot
            if _is_zero(cot):
                continue
            for parent, partial in cell.parents:
                parent.cot = lift_binary(
                    "+", parent.cot, lift_binary("*", partial, cot))
        y = None
        if need_y:
            y = map_structure(
                out, lambda leaf: leaf.primal
                if type(leaf) is TapeCell and leaf.level == level else leaf,
                out_index)
        cots = [cell.cot for cell in x_cells]
        if x_index.ground:
            it = iter(cots)
            return y, map_structure(x, lambda _leaf: next(it), x_index)
        return y, FlatSensitivity(cots)
    finally:
        METER.cells_released(len(registry))
        del _registries[level]
        _exit_level()
