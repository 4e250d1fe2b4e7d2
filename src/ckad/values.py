"""Runtime values and environments.

Values are:

* numbers        — Python floats (the language works in doubles); Python
                   ints appear only in machinery positions (step counts,
                   budgets) and are never produced by language arithmetic
* booleans       — Python bools
* the empty list — the ``EMPTY`` singleton
* pairs          — ``Pair``
* closures       — ``Closure`` (the stored lambda may be a source-level
                   ``Lambda`` or one of the converted-form lambdas)
* capsules       — ``Capsule``: an interrupted computation, holding the
                   continuation at the interruption point and a nullary
                   restart closure
* ``BOTTOM``     — the placeholder argument used to resume a capsule
* ``INFINITY``   — the "no step limit" sentinel

AD values (``Dual``, ``TapeCell``) live in :mod:`ckad.ad`.  Closures,
capsules and the continuation records of :mod:`ckad.cps` name the fields
that hold values in ``CHILDREN``, the order the AD leaf index walks them.
"""

from __future__ import annotations

from .ast import free_variables
from .errors import UnboundVariableError


class _Singleton:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: The empty list.
EMPTY = _Singleton("#empty")

#: Placeholder argument passed when resuming a capsule.
BOTTOM = _Singleton("#bottom")

#: Step-limit sentinel meaning "never interrupt".  Comparisons of an int
#: step count against INFINITY are always false, which is exactly the
#: behaviour the limit check needs.
INFINITY = _Singleton("#infinity")

# the separators Pair.__repr__ stacks between the parts of a pair
_SPACE = _Singleton(" ")
_CLOSE = _Singleton(")")


class Pair:
    __slots__ = ("car", "cdr")

    def __init__(self, car, cdr):
        self.car = car
        self.cdr = cdr

    def __repr__(self) -> str:
        # ``(cons car cdr)``, written with its own stack so that a long
        # list formats at any recursion limit
        parts = []
        stack = [self]
        while stack:
            v = stack.pop()
            if type(v) is Pair:
                parts.append("(cons ")
                stack += (_CLOSE, v.cdr, _SPACE, v.car)
            else:
                parts.append(repr(v))
        return "".join(parts)


class Env:
    """A frame of bindings plus an optional parent environment.

    On all three evaluators a function value closes over one flat frame
    holding exactly the free variables of its lambda (see
    :func:`make_closure`), except for the closures installed by top-level
    definitions, which close over the global environment itself so that
    (mutually) recursive definitions resolve by late binding.  Only the
    environments of a running evaluation have parents; pipeline A's
    continuation records and pipeline B's continuation and restart
    closures keep such environments until a capture copies them flat, so
    no capsule holds an environment with a parent.
    """

    __slots__ = ("frame", "parent")

    def __init__(self, frame: dict, parent: "Env | None" = None):
        self.frame = frame
        self.parent = parent

    def lookup(self, name: str):
        env = self
        while env is not None:
            frame = env.frame
            if name in frame:
                return frame[name]
            env = env.parent
        raise UnboundVariableError(f"unbound variable: {name}")

    def extend(self, name: str, value) -> "Env":
        return Env({name: value}, self)

    def __repr__(self) -> str:
        names = []
        env = self
        while env is not None:
            names.extend(env.frame.keys())
            env = env.parent
        return f"<env {' '.join(names)}>"


class Closure:
    """A lambda together with its captured environment."""

    __slots__ = ("lam", "env")
    CHILDREN = ("env",)

    def __init__(self, lam, env: Env):
        self.lam = lam
        self.env = env

    def __repr__(self) -> str:
        return f"<closure {self.lam!r}>"


def flat_env(names, env: Env) -> Env:
    """One parentless frame binding each of ``names`` (in their order) to
    its value in ``env``: the flat rule by which a closure, and a
    continuation record that pipeline A captures, holds exactly what it
    will still read.  A name ``env`` does not bind is left out, so reading
    it fails where it is read, as on pipeline B."""
    frame = {}
    for name in names:
        scope = env
        while scope is not None:
            if name in scope.frame:
                frame[name] = scope.frame[name]
                break
            scope = scope.parent
    return Env(frame, None)


def make_closure(lam, env: Env) -> Closure:
    """Close source lambda ``lam`` over exactly its free variables (one
    flat frame)."""
    fvs = lam.fvs
    if fvs is None:
        fvs = free_variables(lam)
    return Closure(lam, flat_env(fvs, env))


class Capsule:
    """An interrupted computation: the continuation ``k`` at the point of
    interruption and a restart closure ``f`` that, when applied (to the
    ``BOTTOM`` placeholder), re-enters the computation exactly where it
    stopped."""

    __slots__ = ("k", "f")
    CHILDREN = ("k", "f")

    def __init__(self, k, f):
        self.k = k
        self.f = f

    def __repr__(self) -> str:
        return "<capsule>"
