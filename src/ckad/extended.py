"""Evaluator for converted (count/limit-threaded CPS) code, by closure
compilation.

Converted code is fully tail-structured: operands of an application are
simple (variables, constants, lambdas, primitive operations), and every
transfer of control — applying a three- or four-argument closure, taking
an if branch, entering a limit-check body — is in tail position.  So it
compiles directly to Python closures (Feeley & Lapalme, "Using closures
for code generation", 1987):

* an operand becomes a function ``(machine, env) -> value``;
* a tail node (an application, an ``if``, an interrupt, a resume, or the
  terminal operand of a host-level bottom continuation) becomes a
  function ``(machine, env) -> (code, env)`` that returns the next
  node's code and environment, or None and the run's result when the
  run ends at a terminal operand or a limit check packages a capsule;
* :meth:`ExtendedMachine._run` is the trampoline over those pairs.

A lambda's body compiles on its first call and is kept on the
``Lambda3``/``Lambda4`` node (``code``), as the node's free variables are
(``fvs``); the body's operands and limit checks compile with it, but no
lambda nested in it.  The top-level expressions compile once each, as
they run.  Nothing compiles at conversion, and a function that is never
called never compiles.  Each limit check reads the count and the limit
from the current frame, which binds them in every converted lambda.  A
left-nested source expression nests limit checks directly in each other,
as deep as the source; such a chain compiles with a loop into one
function, so neither compiling nor running it recurses.  A restart
lambda's body enters a chain partway, and compiles on its own.

Closures follow the rule of ``direct`` and pipeline A: a function value
closes over exactly its free variables, in one flat frame
(:func:`ckad.values.make_closure`).  Continuation closures keep the
environment they were made in while the run goes on; only at capture are
the stopped run's own closures copied flat (:func:`_canonical`), so a
capsule's structure depends only on the execution point.  A continuation
lambda written in operator position is applied without making its
closure.

The machine inherits its host interface from :class:`ckad.cps.Machine`,
as :class:`ckad.cps.CpsMachine` does, and supplies only the two runners
and the converted-code ``make_I``/``make_R`` lambdas; so the checkpointing
drivers run unchanged on either pipeline.
"""

from __future__ import annotations

from .ast import (T_APP3, T_APP4, T_BINARY, T_CONST, T_HOSTOP, T_IF,
                  T_INTERRUPT, T_LAMBDA3, T_LAMBDA4, T_LIMIT, T_RESUME,
                  T_UNARY, T_VAR, Lambda3, Var)
from .ad import apply_binary, apply_unary
from .convert import (I_LAMBDA4, K, L, N, R_LAMBDA4, _Gensym, convert_lambda,
                      convert_top)
from .cps import Machine, host_ad
from .errors import EvalError, NotAFunctionError
from .parser import Program
from .values import BOTTOM, INFINITY, Capsule, Closure, Env, make_closure

# the host-level bottom continuation (a genuine converted-code value)
K3_VALUE = Closure(Lambda3(N, L, "%v", Var("%v")), Env({}, None))


def _canonical(k, f) -> Capsule:
    """The capsule of continuation ``k`` and restart closure ``f``, with
    each of the stopped run's own closures copied flat by
    :func:`ckad.values.make_closure`.

    Function values are made flat by the same rule, and every capsule a
    run holds was made flat at its own capture, so the only closures
    whose environment has a parent are the run's continuation closures
    and the restart closure: reached from ``k`` and ``f`` and from those
    closures' frames, never through a pair or a capsule.  Copying them
    makes a resumed run's capsule, whose chains have the restart lambda's
    extra frame, the same as a straight run's; the reverse sweep pairs
    cotangents with a capsule's leaves by position, so it must be.

    A closure's copy exists from its first visit; its frame is fixed up,
    to point at the other copies, once the walk is done.
    """
    memo = {}    # id of a parented closure -> its flat copy
    frames = []  # the copies' frames, still holding the originals
    stack = [f, k]
    pop = stack.pop
    while stack:
        v = pop()
        if type(v) is not Closure or v.env.parent is None or id(v) in memo:
            continue
        copy = make_closure(v.lam, v.env)
        memo[id(v)] = copy
        frame = copy.env.frame
        frames.append(frame)
        stack.extend(frame.values())
    for frame in frames:
        for name, value in frame.items():
            frame[name] = memo.get(id(value), value)
    return Capsule(memo.get(id(k), k), memo.get(id(f), f))


# -- the compiler -------------------------------------------------------------
# A compiled operand is a function (machine, env) -> value.  A compiled tail
# node is a function (machine, env) -> (code, env): the next node's code and
# environment, or None and the run's result.  ``own`` names what the
# current frame binds: the parameters of the lambda whose body is compiled.
# Every converted lambda binds the count and the limit, so those are read
# from the current frame, where the conversion's count and limit operands
# (``%n + c`` and ``%l``) name them.


def _compile(lam):
    """Compile converted lambda ``lam``'s body and keep it on the node."""
    own = (lam.n, lam.l, lam.x)
    if lam.TAG == T_LAMBDA4:
        own += (lam.k,)
    lam.code = code = _tail(lam.body, own)
    return code


def _count(n_expr) -> int:
    # a count operand is %n + c, or %n when c is 0 (see convert._count)
    return n_expr.right.value if n_expr.TAG == T_BINARY else 0


def _operand(e, own):
    tag = e.TAG
    if tag == T_VAR:
        name = e.name
        if name in own:
            return lambda m, env: env.frame[name]
        # a free variable of the lambda: start at its closure's frame
        return lambda m, env: env.parent.lookup(name)
    if tag == T_CONST:
        v = e.value
        if type(v) is float:
            # Copy float literals so object identity over numbers always
            # means dataflow sharing (the reverse sweep relies on this);
            # float() would hand back the same object, arithmetic won't.
            return lambda m, env: v * 1.0
        return lambda m, env: v
    if tag == T_LAMBDA3:
        return lambda m, env: Closure(e, env)
    if tag == T_LAMBDA4:
        return lambda m, env: make_closure(e, env)
    if tag == T_UNARY:
        op = e.op
        arg = _operand(e.arg, own)
        return lambda m, env: apply_unary(op, arg(m, env))
    if tag == T_BINARY:
        op = e.op
        a = _operand(e.left, own)
        b = _operand(e.right, own)
        return lambda m, env: apply_binary(op, a(m, env), b(m, env))
    if tag == T_HOSTOP:
        form = e.form
        a = _operand(e.e1, own)
        b = _operand(e.e2, own)
        c = _operand(e.e3, own)
        return lambda m, env: host_ad(m, form, a(m, env), b(m, env),
                                      c(m, env))
    raise EvalError(f"unexpected node in operand position: tag {tag}")


def _tail(e, own):
    """Compile tail node ``e``.

    A limit check whose body is another check starts a chain, as deep as
    a left-nested source expression; it compiles with a loop, into one
    function.  The checks of a chain read one frame and have distinct
    count offsets, so the one that fires, if any, is the one whose offset
    is the limit minus the count."""
    checks = []
    while e.TAG == T_LIMIT:
        checks.append(e)
        e = e.body
    body = _TAIL.get(e.TAG, _terminal)(e, own)
    if not checks:
        return body
    at = {_count(c.n_expr): i for i, c in enumerate(checks)}
    ks = [_operand(c.k_expr, own) for c in checks]

    def limit(m, env):
        frame = env.frame
        l = frame[L]
        if l is not INFINITY:
            i = at.get(l - frame[N])
            if i is not None:
                return None, _canonical(ks[i](m, env),
                                        Closure(checks[i].relam, env))
        return body(m, env)
    return limit


def _app3(e, own):
    c = _count(e.n)
    arg = _operand(e.arg, own)
    lam = e.fn
    if lam.TAG == T_LAMBDA3:
        # a redex: the continuation is applied where it is written, so its
        # frame's parent is this one, and no closure is made
        n, l, x = lam.n, lam.l, lam.x

        def redex(m, env):
            frame = env.frame
            return lam.code or _compile(lam), Env(
                {n: frame[N] + c, l: frame[L], x: arg(m, env)}, env)
        return redex
    fn = _operand(lam, own)

    def app3(m, env):
        f = fn(m, env)
        if type(f) is not Closure or f.lam.TAG != T_LAMBDA3:
            raise NotAFunctionError(f"not a continuation: {f!r}")
        lam = f.lam
        frame = env.frame
        return lam.code or _compile(lam), Env(
            {lam.n: frame[N] + c, lam.l: frame[L], lam.x: arg(m, env)},
            f.env)
    return app3


def _enter(f, k, n, l, v):
    """The code and environment that apply function value ``f`` to ``v``
    under continuation ``k``, count ``n`` and limit ``l``."""
    if type(f) is not Closure or f.lam.TAG != T_LAMBDA4:
        raise NotAFunctionError(f"not a function: {f!r}")
    lam = f.lam
    return lam.code or _compile(lam), Env(
        {lam.k: k, lam.n: n - lam.n_offset, lam.l: l, lam.x: v}, f.env)


def _app4(e, own):
    fn = _operand(e.fn, own)
    k = _operand(e.k, own)
    c = _count(e.n)
    arg = _operand(e.arg, own)

    def app4(m, env):
        frame = env.frame
        return _enter(fn(m, env), k(m, env), frame[N] + c, frame[L],
                      arg(m, env))
    return app4


def _if(e, own):
    cond = _operand(e.cond, own)
    then = _tail(e.then, own)
    alt = _tail(e.alt, own)

    def branch(m, env):
        c = cond(m, env)
        if c is True:
            return then(m, env)
        if c is False:
            return alt(m, env)
        raise EvalError(f"if condition must be a boolean, got {c!r}")
    return branch


def _interrupt(e, own):
    fn = _operand(e.e1, own)
    arg = _operand(e.e2, own)
    budget = _operand(e.e3, own)

    def interrupt(m, env):
        f = fn(m, env)
        v = arg(m, env)
        b = budget(m, env)
        k = env.lookup(K)
        l = env.lookup(L)
        if l is INFINITY:
            # tail: fresh count, the budget becomes the limit
            return _enter(f, k, 0, b, v)
        res = m.apply4(f, k, 0, l, v)
        if type(res) is Capsule:
            res = Capsule(res.k, m.make_I(res.f, b - l))
        return None, res
    return interrupt


def _resume(e, own):
    arg = _operand(e.arg, own)

    def resume(m, env):
        z = arg(m, env)
        if type(z) is not Capsule:
            raise EvalError(f"resume expects a capsule, got {z!r}")
        return _enter(z.f, z.k, 0, env.lookup(L), BOTTOM)
    return resume


def _terminal(e, own):
    # a bottom continuation's body is a simple operand: the run's result
    value = _operand(e, own)

    def terminal(m, env):
        m.steps = env.frame[N]
        return None, value(m, env)
    return terminal


_TAIL = {T_APP3: _app3, T_APP4: _app4, T_IF: _if, T_INTERRUPT: _interrupt,
         T_RESUME: _resume}


class ExtendedMachine(Machine):
    """Pipeline B: the evaluator for converted code."""

    name = "b"
    I_LAMBDA = I_LAMBDA4
    R_CLOSURE = Closure(R_LAMBDA4, Env({}, None))

    def _run(self, code, env):
        # the trampoline: each tail node hands back the next one, and a
        # run ends with None and its result
        while code is not None:
            code, env = code(self, env)
        return env

    # -- the runners ---------------------------------------------------------------

    def apply4(self, f, k, n, l, v):
        return self._run(*_enter(f, k, n, l, v))

    def _start(self, f, x, l):
        return self.apply4(f, K3_VALUE, 0, l, x)

    def _restart(self, z):
        return self.apply4(z.f, z.k, 0, INFINITY, BOTTOM)

    # -- whole programs --------------------------------------------------------------

    def _run_top(self, expr, genv, gensym):
        converted = convert_top(expr, gensym)
        env = Env({K: K3_VALUE, N: 0, L: INFINITY}, genv)
        res = self._run(_tail(converted, (K, N, L)), env)
        if type(res) is Capsule:
            raise EvalError("top-level expression interrupted itself")
        return res

    def run_program(self, program: Program):
        """Evaluate a program body; returns (value, step_count)."""
        gensym = _Gensym()
        genv = Env({}, None)
        for name, expr in program.defines:
            if expr.TAG == 2:  # T_LAMBDA
                genv.frame[name] = Closure(convert_lambda(expr, gensym), genv)
            else:
                genv.frame[name] = self._run_top(expr, genv, gensym)
        if program.body is None:
            raise EvalError("program has no body expression")
        value = self._run_top(program.body, genv, gensym)
        return value, self.steps
