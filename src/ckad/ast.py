"""Abstract syntax.

Two node families share this module:

* the source language: ``Const``, ``Var``, ``Lambda``, ``App``, ``If``,
  ``Unary``, ``Binary``, the AD forms ``ForwardJ`` / ``ReverseJ`` /
  ``CheckpointReverseJ``, and the machinery forms ``Interrupt`` /
  ``Resume`` (the latter two are not parseable from user source; they are
  only built internally), and

* the converted form produced by :mod:`ckad.convert`: three- and
  four-argument lambdas and applications (``Lambda3`` / ``Lambda4`` /
  ``App3`` / ``App4``), the per-site step-limit check ``LimitCheck``, and
  ``HostOp`` for the AD operators appearing in converted code.

Every node carries an integer ``TAG`` class attribute used for fast
dispatch in the evaluators, and two field lists: ``EXPRS`` names the
fields that hold sub-expressions and ``BINDS`` the parameter fields of a
lambda.  :func:`free_variables` walks either family through them and
caches each node's result in its ``fvs`` slot (set from the start on
variables and constants, computed on first use for the rest).
``Lambda3`` and ``Lambda4`` also have a ``code`` slot, where pipeline B
keeps the lambda's compiled body from its first call on (see
:mod:`ckad.extended`); it is None until then.
"""

from __future__ import annotations

# -- source language tags -------------------------------------------------
T_CONST = 0
T_VAR = 1
T_LAMBDA = 2
T_APP = 3
T_IF = 4
T_UNARY = 5
T_BINARY = 6
T_FORWARD_J = 7
T_REVERSE_J = 8
T_CHECKPOINT_J = 9
T_INTERRUPT = 10
T_RESUME = 11

# -- converted form tags ---------------------------------------------------
T_LAMBDA3 = 12
T_LAMBDA4 = 13
T_APP3 = 14
T_APP4 = 15
T_LIMIT = 16
T_HOSTOP = 17


class Expr:
    __slots__ = ("fvs",)
    EXPRS = ()
    BINDS = ()


class Const(Expr):
    __slots__ = ("value",)
    TAG = T_CONST

    def __init__(self, value):
        self.value = value
        self.fvs = ()


class Var(Expr):
    __slots__ = ("name",)
    TAG = T_VAR

    def __init__(self, name: str):
        self.name = name
        self.fvs = (name,)


class Lambda(Expr):
    __slots__ = ("param", "body")
    TAG = T_LAMBDA
    EXPRS = ("body",)
    BINDS = ("param",)

    def __init__(self, param: str, body: Expr):
        self.param = param
        self.body = body
        self.fvs = None


class App(Expr):
    __slots__ = ("fn", "arg")
    TAG = T_APP
    EXPRS = ("fn", "arg")

    def __init__(self, fn: Expr, arg: Expr):
        self.fn = fn
        self.arg = arg
        self.fvs = None


class If(Expr):
    __slots__ = ("cond", "then", "alt")
    TAG = T_IF
    EXPRS = ("cond", "then", "alt")

    def __init__(self, cond: Expr, then: Expr, alt: Expr):
        self.cond = cond
        self.then = then
        self.alt = alt
        self.fvs = None


class Unary(Expr):
    __slots__ = ("op", "arg")
    TAG = T_UNARY
    EXPRS = ("arg",)

    def __init__(self, op: str, arg: Expr):
        self.op = op
        self.arg = arg
        self.fvs = None


class Binary(Expr):
    __slots__ = ("op", "left", "right")
    TAG = T_BINARY
    EXPRS = ("left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right
        self.fvs = None


class _TripleForm(Expr):
    __slots__ = ("e1", "e2", "e3")
    EXPRS = ("e1", "e2", "e3")

    def __init__(self, e1: Expr, e2: Expr, e3: Expr):
        self.e1 = e1
        self.e2 = e2
        self.e3 = e3
        self.fvs = None


class ForwardJ(_TripleForm):
    """(j* f x x-tangent)"""

    __slots__ = ()
    TAG = T_FORWARD_J


class ReverseJ(_TripleForm):
    """(*j f x y-cotangent)"""

    __slots__ = ()
    TAG = T_REVERSE_J


class CheckpointReverseJ(_TripleForm):
    """(checkpoint-*j f x y-cotangent)"""

    __slots__ = ()
    TAG = T_CHECKPOINT_J


class Interrupt(_TripleForm):
    """(interrupt f x limit) — internal machinery form."""

    __slots__ = ()
    TAG = T_INTERRUPT


class Resume(Expr):
    """(resume z) — internal machinery form."""

    __slots__ = ("arg",)
    TAG = T_RESUME
    EXPRS = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg
        self.fvs = None


# -- converted form --------------------------------------------------------

class Lambda3(Expr):
    """A continuation lambda binding (count, limit, value)."""

    __slots__ = ("n", "l", "x", "body", "code")
    TAG = T_LAMBDA3
    EXPRS = ("body",)
    BINDS = ("n", "l", "x")

    def __init__(self, n: str, l: str, x: str, body: Expr):
        self.n = n
        self.l = l
        self.x = x
        self.body = body
        self.fvs = None
        self.code = None


class Lambda4(Expr):
    """A converted function lambda binding (continuation, count, limit, value)."""

    __slots__ = ("k", "n", "l", "x", "body", "n_offset", "code")
    TAG = T_LAMBDA4
    EXPRS = ("body",)
    BINDS = ("k", "n", "l", "x")

    def __init__(self, k: str, n: str, l: str, x: str, body: Expr,
                 n_offset: int = 0):
        self.k = k
        self.n = n
        self.l = l
        self.x = x
        self.body = body
        self.fvs = None
        self.code = None
        # Restart closures built by the limit check bind the count
        # variable to (supplied count - n_offset) so that the counts the
        # body derives restart from the supplied count (see convert._wrap).
        self.n_offset = n_offset


class App3(Expr):
    __slots__ = ("fn", "n", "l", "arg")
    TAG = T_APP3
    EXPRS = ("fn", "n", "l", "arg")

    def __init__(self, fn: Expr, n: Expr, l: Expr, arg: Expr):
        self.fn = fn
        self.n = n
        self.l = l
        self.arg = arg
        self.fvs = None


class App4(Expr):
    __slots__ = ("fn", "k", "n", "l", "arg")
    TAG = T_APP4
    EXPRS = ("fn", "k", "n", "l", "arg")

    def __init__(self, fn: Expr, k: Expr, n: Expr, l: Expr, arg: Expr):
        self.fn = fn
        self.k = k
        self.n = n
        self.l = l
        self.arg = arg
        self.fvs = None


class LimitCheck(Expr):
    """Per-site step-limit check wrapping a converted clause.

    If the current count (``n_expr``) equals the current limit
    (``l_expr``) the evaluator packages the pending work as a capsule
    whose restart closure is ``relam`` closed over the current
    environment; otherwise it evaluates ``body``.  ``relam`` is prebuilt
    at conversion time and always has ``body`` as its body.
    """

    __slots__ = ("k_expr", "n_expr", "l_expr", "body", "relam")
    TAG = T_LIMIT
    EXPRS = ("k_expr", "n_expr", "l_expr", "body")  # relam shares body

    def __init__(self, k_expr: Expr, n_expr: Expr, l_expr: Expr, body: Expr,
                 relam: Lambda4):
        self.k_expr = k_expr
        self.n_expr = n_expr
        self.l_expr = l_expr
        self.body = body
        self.relam = relam
        self.fvs = None


class HostOp(Expr):
    """An AD operator site inside converted code: ``form`` is the source
    operator's tag (``T_FORWARD_J``, ``T_REVERSE_J`` or
    ``T_CHECKPOINT_J``)."""

    __slots__ = ("form", "e1", "e2", "e3")
    TAG = T_HOSTOP
    EXPRS = ("e1", "e2", "e3")

    def __init__(self, form: int, e1: Expr, e2: Expr, e3: Expr):
        self.form = form
        self.e1 = e1
        self.e2 = e2
        self.e3 = e3
        self.fvs = None


# -- free variables ---------------------------------------------------------

_EXIT = object()  # stack marker: the node below it has had its parts walked


def free_variables(e: Expr) -> tuple:
    """The sorted free variable names of ``e``, of either node family.

    The result is cached in ``e.fvs``, and so is that of every node the
    walk passes, so each node is computed once, on first use.  The walk
    keeps its own stack and skips any node that already has its result;
    converted code is a DAG (the conversion splices one continuation into
    both branches of an ``if``), and that keeps its walk linear.
    """
    if e.fvs is not None:
        return e.fvs
    stack = [e]
    pop = stack.pop
    push = stack.append
    while stack:
        node = pop()
        if node is _EXIT:
            node = pop()
            names = set()
            for field in node.EXPRS:
                names.update(getattr(node, field).fvs)
            for field in node.BINDS:
                names.discard(getattr(node, field))
            node.fvs = tuple(sorted(names))
        elif node.fvs is None:
            push(node)
            push(_EXIT)
            for field in node.EXPRS:
                part = getattr(node, field)
                if part.fvs is None:
                    push(part)
    return e.fvs
