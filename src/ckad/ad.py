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
read back off their records afterwards.  Each open reverse level has one
:class:`Tape`, a Wengert list in flat arrays (Griewank & Walther,
*Evaluating Derivatives*, 2008): per operation one record of parent
indices and local partials, in ``array('q')`` and ``array('d')``.  A
:class:`TapeCell` holds only its primal, its record's index, its tape and
its level, and the tape holds no cell, so a taped run keeps about 50 bytes
per operation alive.  When both operands' primals are floats the
partials are computed inline as floats; the sweep keeps its cotangents
in an ``array('d')`` and does ``cot[p] = cot[p] + partial * cot`` per
parent, skipping records whose cotangent is zero.  Partials and
cotangents that are AD values (an enclosing operator differentiating a
reverse pass, as in forward-over-reverse or reverse-over-reverse) stay
general values: the tape's partials become a list and the sweep combines
them with the lifted operations, so the enclosing operator sees every
step.  Both ways do the same float operations in the same order.  The
meter learns each tape's length when a level exits, which is when the
live total peaks.

The structural code deliberately handles *any* runtime value — including
capsules, closures, environments and continuation records — because the
checkpointing drivers differentiate through interrupted computations
whose inputs and outputs are exactly such structures.

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
    """A value on a reverse-mode tape at a nesting level: its primal, its
    record's ``index`` on its own ``tape``, and the level.

    The cell holds no parents and no cotangent: those live in the tape's
    record ``index`` (parent indices and float partials in flat arrays,
    see :class:`Tape`), and the tape holds no cell, so a cell lives only
    as long as the program holds it.  The primal may be an AD value of a
    shallower level (an enclosing operator's perturbation or cell); the
    partials computed from it are then AD values too, kept as general
    values by the tape and swept with the lifted operations.  A cell whose
    tape is not the one open at its level (its level was exited, and
    perhaps entered again by a later operator) is a constant: arithmetic
    on it records no parent, and with no tape open at its level at all it
    yields its primal result.
    """

    __slots__ = ("primal", "index", "tape", "level")

    def __init__(self, primal, index: int, tape, level: int):
        self.primal = primal
        self.index = index
        self.tape = tape
        self.level = level

    def __repr__(self) -> str:
        return f"<cell@{self.level} {self.primal!r}>"


class Tape:
    """One open reverse-mode level's Wengert list: one flat record per
    operation, in the order the operations ran.

    Record ``i`` made the cell of index ``i``.  Its parents are the
    record indices ``parents[starts[i]:starts[i + 1]]`` (the last record
    ends at ``len(parents)``), each with the local partial at the same
    position of ``partials``.  A parent whose partial is a float zero is
    not recorded.  Row starts and parent indices are ``array('q')``s.
    Partials are an ``array('d')`` while every one is a float; the first
    that is an AD value (an enclosing operator differentiating through
    this level, as in forward-over-reverse or reverse-over-reverse) turns
    them into a list of general values for the rest of the level.
    """

    __slots__ = ("starts", "parents", "partials")

    def __init__(self):
        from array import array  # not needed until the first reverse pass
        self.starts = array("q")
        self.parents = array("q")
        self.partials = array("d")


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


def _prim_div(a, b):
    if b == 0.0:
        raise ArithmeticEvalError("division by zero")
    return a / b


_PRIM_UNARY = {
    "sqrt": _prim_sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
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

# the tape of each open reverse level, keyed by level
_registries: dict = {}


def _record(primal, level, a, da, b, db):
    """The cell of a new record on the tape open at ``level``, with
    parent ``a`` (partial ``da``) and parent ``b`` (partial ``db``).  An
    operand is recorded only if it is a cell of that tape and its partial
    is not a float zero; other operands are constants of this level."""
    tape = _registries.get(level)
    if tape is None:
        return primal
    starts = tape.starts
    parents = tape.parents
    partials = tape.partials
    starts.append(len(parents))
    if (type(a) is TapeCell and a.tape is tape
            and (type(da) is not float or da != 0.0)):
        if type(da) is not float and type(partials) is not list:
            partials = tape.partials = partials.tolist()
        parents.append(a.index)
        partials.append(da)
    if (type(b) is TapeCell and b.tape is tape
            and (type(db) is not float or db != 0.0)):
        if type(db) is not float and type(partials) is not list:
            partials = tape.partials = partials.tolist()
        parents.append(b.index)
        partials.append(db)
    return TapeCell(primal, len(starts) - 1, tape, level)


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


# _d_unary on a float x, given y = op(x): the same float operations
_D_UNARY_FLOAT = {
    "sqrt": lambda x, y: _prim_div(0.5, y),
    "sin": lambda x, y: math.cos(x),
    "cos": lambda x, y: 0.0 - math.sin(x),
    "exp": lambda x, y: y,
    "log": lambda x, y: 1.0 / x,
    "atan": lambda x, y: 1.0 / (1.0 + x * x),
    "floor": lambda x, y: 0.0,
}


def lift_unary(op, v):
    t = type(v)
    if t is TapeCell:
        x = v.primal
        primal = lift_unary(op, x)
        if type(x) is float:
            partial = _D_UNARY_FLOAT[op](x, primal)
        else:
            partial = _d_unary(op, x)
        return _record(primal, v.level, v, partial, None, 0.0)
    if t is Dual:
        primal = lift_unary(op, v.primal)
        tangent = lift_binary("*", _d_unary(op, v.primal), v.tangent)
        return Dual(primal, tangent, v.level)
    fn = _PRIM_UNARY.get(op)
    if fn is None:
        raise EvalError(f"unknown unary operator: {op}")
    try:
        return fn(float(v))
    except (ValueError, OverflowError):
        # exp of a large number, or sin, cos or floor of an infinity or NaN
        raise ArithmeticEvalError(
            f"{op} undefined or out of range at {v}") from None


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
    # a tape cell at the top level
    if type(pa) is float and type(pb) is float:
        # first order: _d_binary's float operations, inline
        if op == "*":
            primal = pa * pb
            da = pb
            db = pa
        elif op == "+":
            primal = pa + pb
            da = db = 1.0
        elif op == "-":
            primal = pa - pb
            da = 1.0
            db = -1.0
        elif op == "/":
            primal = _prim_div(pa, pb)
            da = 1.0 / pb
            db = 0.0 - primal / pb
        else:
            raise EvalError(f"unknown binary operator: {op}")
    else:
        primal = lift_binary(op, pa, pb)
        da, db = _d_binary(op, pa, pb)
    return _record(primal, level, a, da, b, db)


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

def _sweep(tape, seeds):
    """Every record's cotangent: ``seeds`` ((index, cotangent) pairs)
    added in, then propagated from the last record to the first.

    A record whose cotangent is a float zero is skipped; otherwise each
    parent ``p`` of the record gets ``cot[p] + partial * cot``.  With
    float partials and float seeds every cotangent is a float and they
    live in an ``array('d')``; otherwise they are general values combined
    by the lifted operations, so an enclosing operator differentiates the
    sweep.  Both do the same float operations in the same order."""
    starts = tape.starts
    parents = tape.parents
    partials = tape.partials
    n = len(starts)
    hi = len(parents)
    if (type(partials) is not list
            and all(type(c) is float for _i, c in seeds)):
        from array import array
        cots = array("d", [0.0]) * n
        for i, c in seeds:
            cots[i] = cots[i] + c
        for i in range(n - 1, -1, -1):
            lo = starts[i]
            c = cots[i]
            if c != 0.0:
                for j in range(lo, hi):
                    p = parents[j]
                    cots[p] = cots[p] + partials[j] * c
            hi = lo
        return cots
    cots = [0.0] * n
    for i, c in seeds:
        cots[i] = lift_binary("+", cots[i], c)
    for i in range(n - 1, -1, -1):
        lo = starts[i]
        c = cots[i]
        if type(c) is not float or c != 0.0:
            for j in range(lo, hi):
                p = parents[j]
                cots[p] = lift_binary(
                    "+", cots[p], lift_binary("*", partials[j], c))
        hi = lo
    return cots


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
    tape = _registries[level] = Tape()
    try:
        x_index = collect_leaves(x)
        # the first records on this level's tape are x's, in index order
        x_taped = map_structure(
            x, lambda leaf: _record(leaf, level, None, 0.0, None, 0.0),
            x_index)
        out = applier(f, x_taped)
        out_index = collect_leaves(out)
        seeds = [(leaf.index, entry) for leaf, entry in zip(
            out_index, _entries(out_index, y_cotangent, True, "cotangent"))
            if type(leaf) is TapeCell and leaf.tape is tape]
        cots = _sweep(tape, seeds)[:len(x_index)]
        y = None
        if need_y:
            y = map_structure(
                out, lambda leaf: leaf.primal
                if type(leaf) is TapeCell and leaf.level == level else leaf,
                out_index)
        if x_index.ground:
            it = iter(cots)
            return y, map_structure(x, lambda _leaf: next(it), x_index)
        return y, FlatSensitivity(cots)
    finally:
        # the live total only grows between level exits, so its peak is
        # reached just before one: bring the meter up to every open
        # tape's length, then release this one's records
        live = sum(len(t.starts) for t in _registries.values())
        METER.cells_created(live - METER.tape_live)
        METER.cells_released(len(tape.starts))
        tape.starts = tape.parents = tape.partials = None
        del _registries[level]
        _exit_level()
