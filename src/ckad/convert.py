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

Input programs may not contain the machinery forms (interrupt/resume);
those exist in converted code only inside the wrappers that
:meth:`ckad.cps.Machine.make_I` / ``make_R`` build on pipeline B.
"""

from __future__ import annotations

from .ast import (App3, App4, Binary, Const, HostOp, If, Interrupt, Lambda,
                  Lambda3, Lambda4, LimitCheck, Resume, T_APP, T_APP3,
                  T_APP4, T_BINARY, T_CHECKPOINT_J, T_CONST, T_FORWARD_J,
                  T_HOSTOP, T_IF, T_INTERRUPT, T_LAMBDA, T_LAMBDA3,
                  T_LAMBDA4, T_LIMIT, T_RESUME, T_REVERSE_J, T_UNARY, T_VAR,
                  Unary, Var)
from .errors import EvalError

K = "%k"
N = "%n"
L = "%l"

class _Gensym:
    def __init__(self):
        self.counter = 0

    def __call__(self) -> str:
        self.counter += 1
        return f"%x{self.counter}"


def _inc(n_expr):
    # count arithmetic stays in machine integers
    return Binary("+", n_expr, Const(1))


def _n_offset(n_expr) -> int:
    # count expressions are always Var(%n) under zero or more +1 wrappers
    offset = 0
    while n_expr.TAG == T_BINARY:
        offset += 1
        n_expr = n_expr.left
    return offset


def _wrap(k_expr, n_expr, l_expr, body) -> LimitCheck:
    # The restart closure re-enters the pending clause body.  The body's
    # continuation references must keep resolving through the captured
    # environment (by construction they denote exactly the capsule's
    # continuation), so the k parameter is a dummy that shadows nothing.
    # The count variable is rebound shifted by the static offset of this
    # check's count expression, so the body's derived counts restart from
    # the supplied count.
    relam = Lambda4("%_k", N, L, "%_", body, n_offset=_n_offset(n_expr))
    return LimitCheck(k_expr, n_expr, l_expr, body, relam)


def convert(e, k_expr, n_expr, l_expr, gensym: _Gensym):
    """Convert expression ``e`` against continuation/count/limit
    expressions."""
    tag = e.TAG
    if tag == T_CONST:
        return _wrap(k_expr, n_expr, l_expr,
                     App3(k_expr, _inc(n_expr), l_expr, e))
    if tag == T_VAR:
        return _wrap(k_expr, n_expr, l_expr,
                     App3(k_expr, _inc(n_expr), l_expr, e))
    if tag == T_LAMBDA:
        lam4 = convert_lambda(e, gensym)
        return _wrap(k_expr, n_expr, l_expr,
                     App3(k_expr, _inc(n_expr), l_expr, lam4))
    if tag == T_APP:
        x1 = gensym()
        x2 = gensym()
        inner = convert(
            e.arg,
            Lambda3(N, L, x2, App4(Var(x1), k_expr, Var(N), Var(L), Var(x2))),
            Var(N), Var(L), gensym)
        outer = convert(e.fn, Lambda3(N, L, x1, inner),
                        _inc(n_expr), l_expr, gensym)
        return _wrap(k_expr, n_expr, l_expr, outer)
    if tag == T_IF:
        x1 = gensym()
        branch = If(Var(x1),
                    convert(e.then, k_expr, Var(N), Var(L), gensym),
                    convert(e.alt, k_expr, Var(N), Var(L), gensym))
        outer = convert(e.cond, Lambda3(N, L, x1, branch),
                        _inc(n_expr), l_expr, gensym)
        return _wrap(k_expr, n_expr, l_expr, outer)
    if tag == T_UNARY:
        x1 = gensym()
        inner = Lambda3(N, L, x1,
                        App3(k_expr, Var(N), Var(L), Unary(e.op, Var(x1))))
        outer = convert(e.arg, inner, _inc(n_expr), l_expr, gensym)
        return _wrap(k_expr, n_expr, l_expr, outer)
    if tag == T_BINARY:
        x1 = gensym()
        x2 = gensym()
        deliver = Lambda3(N, L, x2,
                          App3(k_expr, Var(N), Var(L),
                               Binary(e.op, Var(x1), Var(x2))))
        inner = convert(e.right, deliver, Var(N), Var(L), gensym)
        outer = convert(e.left, Lambda3(N, L, x1, inner),
                        _inc(n_expr), l_expr, gensym)
        return _wrap(k_expr, n_expr, l_expr, outer)
    if tag in (T_FORWARD_J, T_REVERSE_J, T_CHECKPOINT_J):
        x1 = gensym()
        x2 = gensym()
        x3 = gensym()
        deliver = Lambda3(N, L, x3,
                          App3(k_expr, Var(N), Var(L),
                               HostOp(tag, Var(x1), Var(x2), Var(x3))))
        c3 = convert(e.e3, deliver, Var(N), Var(L), gensym)
        c2 = convert(e.e2, Lambda3(N, L, x2, c3), Var(N), Var(L), gensym)
        c1 = convert(e.e1, Lambda3(N, L, x1, c2),
                     _inc(n_expr), l_expr, gensym)
        return _wrap(k_expr, n_expr, l_expr, c1)
    if tag in (T_INTERRUPT, T_RESUME):
        raise EvalError(
            "interrupt/resume cannot appear in programs given to the "
            "CPS conversion")
    raise EvalError(f"cannot convert node tag {tag}")


def _fv(node, memo) -> frozenset:
    """Free-variable set of a converted node, memoized by object identity.

    Converted expressions are DAGs — the conversion splices one
    continuation expression into several branches — so a tree walk would
    revisit shared subtrees exponentially often.
    """
    key = id(node)
    hit = memo.get(key)
    if hit is not None:
        return hit
    tag = node.TAG
    if tag == T_VAR:
        r = frozenset((node.name,))
    elif tag == T_CONST:
        r = frozenset()
    elif tag == T_LAMBDA3:
        if node.fvs is None:
            node.fvs = tuple(sorted(
                _fv(node.body, memo) - {node.n, node.l, node.x}))
        r = frozenset(node.fvs)
    elif tag == T_LAMBDA4:
        if node.fvs is None:
            node.fvs = tuple(sorted(
                _fv(node.body, memo) - {node.k, node.n, node.l, node.x}))
        r = frozenset(node.fvs)
    elif tag == T_APP3:
        r = (_fv(node.fn, memo) | _fv(node.n, memo) | _fv(node.l, memo)
             | _fv(node.arg, memo))
    elif tag == T_APP4:
        r = (_fv(node.fn, memo) | _fv(node.k, memo) | _fv(node.n, memo)
             | _fv(node.l, memo) | _fv(node.arg, memo))
    elif tag == T_LIMIT:  # relam shares body; adds nothing
        r = (_fv(node.k_expr, memo) | _fv(node.n_expr, memo)
             | _fv(node.l_expr, memo) | _fv(node.body, memo))
    elif tag == T_IF:
        r = (_fv(node.cond, memo) | _fv(node.then, memo)
             | _fv(node.alt, memo))
    elif tag == T_UNARY:
        r = _fv(node.arg, memo)
    elif tag == T_BINARY:
        r = _fv(node.left, memo) | _fv(node.right, memo)
    elif tag in (T_HOSTOP, T_INTERRUPT):
        r = _fv(node.e1, memo) | _fv(node.e2, memo) | _fv(node.e3, memo)
    elif tag == T_RESUME:
        r = _fv(node.arg, memo)
    else:
        raise EvalError(f"cannot take free variables of node tag {tag}")
    memo[key] = r
    return r


def converted_free_variables(e) -> tuple:
    """Free variables of a converted expression (cached on lambda nodes).

    Converted user functions can only be free in user variables and
    top-level names: every ``%k``/``%n``/``%l``/temporary reference is
    bound by an enclosing converted lambda.
    """
    if e.TAG in (T_LAMBDA3, T_LAMBDA4):
        if e.fvs is None:
            _fv(e, {})
        return e.fvs
    return tuple(sorted(_fv(e, {})))


def convert_lambda(lam: Lambda, gensym: _Gensym | None = None) -> Lambda4:
    """Convert a source lambda into a four-argument lambda."""
    if gensym is None:
        gensym = _Gensym()
    body = convert(lam.body, Var(K), Var(N), Var(L), gensym)
    return Lambda4(K, N, L, lam.param, body)


def convert_top(e, gensym: _Gensym | None = None):
    """Convert a top-level expression; ``%k``, ``%n`` and ``%l`` must be
    bound in the evaluation environment (continuation, 0, limit)."""
    if gensym is None:
        gensym = _Gensym()
    return convert(e, Var(K), Var(N), Var(L), gensym)


# prebuilt wrapper lambdas of pipeline B's make_I / make_R;
# the captured budget lives in %b so the bound contextual limit %l cannot
# shadow it
I_LAMBDA4 = Lambda4(K, N, L, "%x", Interrupt(Var("%f"), Var("%x"), Var("%b")))
R_LAMBDA4 = Lambda4(K, N, L, "%z", Resume(Var("%z")))
