"""Compile-time CPS conversion that threads a step count and limit.

Every source expression becomes continuation-passing code over
three-argument continuations ``(count, limit, value)`` and four-argument
functions ``(continuation, count, limit, value)``.  Each source clause is
wrapped in exactly one :class:`~ckad.ast.LimitCheck`, so converted code
interrupts at exactly the same execution points, with exactly the same
counts, as the same program run under the CPS evaluator — which the tests
check (the two pipelines must be interchangeable).

Reserved variables ``%k``, ``%n``, ``%l`` name the current continuation,
count and limit; operand temporaries are ``%x1``, ``%x2``, ...  The ``%``
prefix cannot appear in user identifiers, so no capture is possible.
A site's count is ``%n`` plus a static offset, the number of clauses
entered since ``%n`` was bound, so its count expression is ``%n`` or
``%n + k``.

The conversion keeps its own stack (a generator per source clause, driven
by one loop), so nesting depth does not meet the recursion limit.

Input programs may not contain the machinery forms (interrupt/resume);
those exist in converted code only inside the wrappers that
:meth:`ckad.cps.Machine.make_I` / ``make_R`` build on pipeline B.
"""

from __future__ import annotations

from .ast import (App3, App4, Binary, Const, HostOp, If, Interrupt, Lambda,
                  Lambda3, Lambda4, LimitCheck, Resume, T_APP, T_BINARY,
                  T_CHECKPOINT_J, T_CONST, T_FORWARD_J, T_IF, T_INTERRUPT,
                  T_LAMBDA, T_RESUME, T_REVERSE_J, T_UNARY, T_VAR, Unary, Var)
from .errors import EvalError

K = "%k"
N = "%n"
L = "%l"
# the converted code's references to them (nodes are never mutated, so
# one node serves every site)
_VK = Var(K)
_VN = Var(N)
_VL = Var(L)


class _Gensym:
    def __init__(self):
        self.counter = 0

    def __call__(self) -> str:
        self.counter += 1
        return f"%x{self.counter}"


def _count(offset: int):
    # the count at a site: %n plus the clauses entered since %n was bound
    # (count arithmetic stays in machine integers)
    return _VN if offset == 0 else Binary("+", _VN, Const(offset))


def _wrap(k_expr, offset: int, body) -> LimitCheck:
    # The restart closure re-enters the pending clause body.  The body's
    # continuation references must keep resolving through the captured
    # environment (by construction they denote exactly the capsule's
    # continuation), so the k parameter is a dummy that shadows nothing.
    # The count variable is rebound shifted by this check's count offset,
    # so the body's derived counts restart from the supplied count.
    relam = Lambda4("%_k", N, L, "%_", body, n_offset=offset)
    return LimitCheck(k_expr, _count(offset), _VL, body, relam)


def _clause(e, k_expr, offset: int, gensym: _Gensym):
    """Convert the clause of source node ``e`` against continuation
    ``k_expr`` at count ``%n + offset``: a generator that yields
    (subexpression, continuation, offset) for each part it needs converted
    and is sent the converted part back (see :func:`_convert`)."""
    tag = e.TAG
    if tag == T_LAMBDA:
        lam4 = Lambda4(K, N, L, e.param, (yield e.body, _VK, 0))
        body = App3(k_expr, _count(offset + 1), _VL, lam4)
    elif tag == T_APP:
        x1 = gensym()
        x2 = gensym()
        inner = yield (e.arg, Lambda3(N, L, x2, App4(Var(x1), k_expr, _VN,
                                                     _VL, Var(x2))), 0)
        body = yield e.fn, Lambda3(N, L, x1, inner), offset + 1
    elif tag == T_IF:
        x1 = gensym()
        branch = If(Var(x1), (yield e.then, k_expr, 0),
                    (yield e.alt, k_expr, 0))
        body = yield e.cond, Lambda3(N, L, x1, branch), offset + 1
    elif tag == T_UNARY:
        x1 = gensym()
        inner = Lambda3(N, L, x1,
                        App3(k_expr, _VN, _VL, Unary(e.op, Var(x1))))
        body = yield e.arg, inner, offset + 1
    elif tag == T_BINARY:
        x1 = gensym()
        x2 = gensym()
        deliver = Lambda3(N, L, x2,
                          App3(k_expr, _VN, _VL,
                               Binary(e.op, Var(x1), Var(x2))))
        inner = yield e.right, deliver, 0
        body = yield e.left, Lambda3(N, L, x1, inner), offset + 1
    elif tag in (T_FORWARD_J, T_REVERSE_J, T_CHECKPOINT_J):
        x1 = gensym()
        x2 = gensym()
        x3 = gensym()
        deliver = Lambda3(N, L, x3,
                          App3(k_expr, _VN, _VL,
                               HostOp(tag, Var(x1), Var(x2), Var(x3))))
        c3 = yield e.e3, deliver, 0
        c2 = yield e.e2, Lambda3(N, L, x2, c3), 0
        body = yield e.e1, Lambda3(N, L, x1, c2), offset + 1
    elif tag in (T_INTERRUPT, T_RESUME):
        raise EvalError(
            "interrupt/resume cannot appear in programs given to the "
            "CPS conversion")
    else:
        raise EvalError(f"cannot convert node tag {tag}")
    return _wrap(k_expr, offset, body)


def _convert(e, k_expr, gensym: _Gensym):
    """Convert expression ``e`` against continuation ``k_expr`` at count
    ``%n``.  The clause converters of the enclosing nodes wait on this
    loop's own stack, so nesting depth does not meet the recursion
    limit."""
    offset = 0
    waiting = []
    while True:
        tag = e.TAG
        if tag == T_CONST or tag == T_VAR:
            value = _wrap(k_expr, offset,
                          App3(k_expr, _count(offset + 1), _VL, e))
        else:
            waiting.append(_clause(e, k_expr, offset, gensym))
            value = None
        while waiting:
            try:
                e, k_expr, offset = waiting[-1].send(value)
                break
            except StopIteration as done:
                waiting.pop()
                value = done.value
        else:  # no clause waits: value is the whole expression's
            return value


def convert_lambda(lam: Lambda, gensym: _Gensym | None = None) -> Lambda4:
    """Convert a source lambda into a four-argument lambda."""
    if gensym is None:
        gensym = _Gensym()
    return Lambda4(K, N, L, lam.param, _convert(lam.body, _VK, gensym))


def convert_top(e, gensym: _Gensym | None = None):
    """Convert a top-level expression; ``%k``, ``%n`` and ``%l`` must be
    bound in the evaluation environment (continuation, 0, limit)."""
    if gensym is None:
        gensym = _Gensym()
    return _convert(e, _VK, gensym)


# prebuilt wrapper lambdas of pipeline B's make_I / make_R;
# the captured budget lives in %b so the bound contextual limit %l cannot
# shadow it
I_LAMBDA4 = Lambda4(K, N, L, "%x", Interrupt(Var("%f"), Var("%x"), Var("%b")))
R_LAMBDA4 = Lambda4(K, N, L, "%z", Resume(Var("%z")))
