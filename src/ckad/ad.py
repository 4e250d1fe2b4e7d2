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
# the primitive table
# ---------------------------------------------------------------------------
# Each operator of the language maps to one function of its operands
# (``UNARY`` and ``BINARY``).  An arithmetic one tests, in this order:
#
# * float operands: the plain float operation;
# * the first-order taped case: every AD operand is a TapeCell with a float
#   primal, all at one level; the result is recorded on that level's tape
#   as :func:`_record` records it, with float partials;
# * otherwise the general lifted path, which dispatches on the deepest
#   level present (a cell of a shallower level is a constant there).
#
# The evaluators look an operator's function up once: A and B when they
# compile a node, direct when it evaluates one.

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


def _unary(op, prim, partial):
    """The table function of unary arithmetic ``op``: ``prim`` on a float,
    and ``partial(x, y)`` the derivative at float ``x`` given ``y =
    prim(x)``, by the float operations of :func:`_d_unary`."""

    def fn(v):
        if type(v) is float:
            try:
                return prim(v)
            except (ValueError, OverflowError):
                # exp of a large number, or sin, cos or floor of an
                # infinity or NaN
                raise ArithmeticEvalError(
                    f"{op} undefined or out of range at {v}") from None
        if type(v) is TapeCell:
            x = v.primal
            if type(x) is float:
                y = fn(x)
                return _record(y, v.level, v, partial(x, y), None, 0.0)
        return _lift_unary(op, v)
    return fn


def _sqrt(x):
    if x < 0.0:
        raise ArithmeticEvalError(f"sqrt of negative number: {x}")
    return math.sqrt(x)


def _log(x):
    if x <= 0.0:
        raise ArithmeticEvalError(f"log of non-positive number: {x}")
    return math.log(x)


def _first_order(op, a, b, partials):
    """``op`` on ``a`` and ``b`` when at least one is not a float: the
    first-order taped case with ``partials(pa, pb)`` giving the primal and
    both float partials, else the general lifted path."""
    ta = type(a)
    tb = type(b)
    if ta is TapeCell:
        level = a.level
        pa = a.primal
        if tb is TapeCell and b.level == level:
            pb = b.primal
        elif tb is float:
            pb = b
        else:
            return _lift_binary(op, a, b)
    elif ta is float and tb is TapeCell:
        level = b.level
        pa = a
        pb = b.primal
    else:
        return _lift_binary(op, a, b)
    if type(pa) is not float or type(pb) is not float:
        return _lift_binary(op, a, b)
    primal, da, db = partials(pa, pb)
    # _record, for float partials
    tape = _registries.get(level)
    if tape is None:
        return primal
    starts = tape.starts
    parents = tape.parents
    starts.append(len(parents))
    if ta is TapeCell and a.tape is tape and da != 0.0:
        parents.append(a.index)
        tape.partials.append(da)
    if tb is TapeCell and b.tape is tape and db != 0.0:
        parents.append(b.index)
        tape.partials.append(db)
    return TapeCell(primal, len(starts) - 1, tape, level)


def _add(a, b):
    if type(a) is float and type(b) is float:
        return a + b
    return _first_order("+", a, b, _add_partials)


def _sub(a, b):
    if type(a) is float and type(b) is float:
        return a - b
    return _first_order("-", a, b, _sub_partials)


def _mul(a, b):
    if type(a) is float and type(b) is float:
        return a * b
    return _first_order("*", a, b, _mul_partials)


def _div(a, b):
    if type(a) is float and type(b) is float:
        if b == 0.0:
            raise ArithmeticEvalError("division by zero")
        return a / b
    return _first_order("/", a, b, _div_partials)


# the primal and both partials of a first-order taped operation, by the
# float operations of _d_binary
def _add_partials(a, b):
    return a + b, 1.0, 1.0


def _sub_partials(a, b):
    return a - b, 1.0, -1.0


def _mul_partials(a, b):
    return a * b, b, a


def _div_partials(a, b):
    q = _div(a, b)
    return q, 1.0 / b, 0.0 - q / b


def _lt(a, b):
    if type(a) is float and type(b) is float:
        return a < b
    return deep_primal(a) < deep_primal(b)


def _le(a, b):
    if type(a) is float and type(b) is float:
        return a <= b
    return deep_primal(a) <= deep_primal(b)


def _eq(a, b):
    if type(a) is float and type(b) is float:
        return a == b
    return deep_primal(a) == deep_primal(b)


def _car(v):
    if type(v) is not Pair:
        raise EvalError(f"car of a non-pair: {v!r}")
    return v.car


def _cdr(v):
    if type(v) is not Pair:
        raise EvalError(f"cdr of a non-pair: {v!r}")
    return v.cdr


UNARY = {
    "sqrt": _unary("sqrt", _sqrt, lambda x, y: _div(0.5, y)),
    "sin": _unary("sin", math.sin, lambda x, y: math.cos(x)),
    "cos": _unary("cos", math.cos, lambda x, y: 0.0 - math.sin(x)),
    "exp": _unary("exp", math.exp, lambda x, y: y),
    "log": _unary("log", _log, lambda x, y: 1.0 / x),
    "atan": _unary("atan", math.atan, lambda x, y: 1.0 / (1.0 + x * x)),
    "floor": _unary("floor", lambda x: float(math.floor(x)),
                    lambda x, y: 0.0),
    "zero?": lambda v: deep_primal(v) == 0.0,
    "null?": lambda v: v is EMPTY,
    "car": _car,
    "cdr": _cdr,
}

BINARY = {
    "+": _add,
    "-": _sub,
    "*": _mul,
    "/": _div,
    "<": _lt,
    "<=": _le,
    "=": _eq,
    "cons": Pair,
}


# ---------------------------------------------------------------------------
# lifted arithmetic: the general path
# ---------------------------------------------------------------------------

def lift_unary(op, v):
    """Unary arithmetic ``op`` on any numeric value."""
    return UNARY[op](v)


def lift_binary(op, a, b):
    """Binary arithmetic ``op`` on any numeric values."""
    return BINARY[op](a, b)


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
    return 0.0  # floor


def _lift_unary(op, v):
    t = type(v)
    if t is TapeCell:
        x = v.primal
        return _record(lift_unary(op, x), v.level, v, _d_unary(op, x),
                       None, 0.0)
    if t is Dual:
        primal = lift_unary(op, v.primal)
        tangent = lift_binary("*", _d_unary(op, v.primal), v.tangent)
        return Dual(primal, tangent, v.level)
    return UNARY[op](float(v))


def _lift_binary(op, a, b):
    a_ad = isinstance(a, _AD)
    b_ad = isinstance(b, _AD)
    if not a_ad and not b_ad:
        return BINARY[op](float(a), float(b))
    la = a.level if a_ad else 0
    lb = b.level if b_ad else 0
    level = la if la >= lb else lb
    a_top = a_ad and la == level
    b_top = b_ad and lb == level
    pa = a.primal if a_top else a
    pb = b.primal if b_top else b
    primal = lift_binary(op, pa, pb)
    da, db = _d_binary(op, pa, pb)
    if type(a if a_top else b) is TapeCell:
        return _record(primal, level, a, da, b, db)
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


def _d_binary(op, a, b):
    if op == "+":
        return 1.0, 1.0
    if op == "-":
        return 1.0, -1.0
    if op == "*":
        return b, a
    inv = lift_binary("/", 1.0, b)  # "/"
    return inv, lift_binary("-", 0.0,
                            lift_binary("/", lift_binary("/", a, b), b))


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
