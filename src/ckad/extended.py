"""Direct-style evaluator for converted (count/limit-threaded CPS) code.

Converted code is fully tail-structured: operands of an application are
simple (variables, constants, lambdas, primitive operations), and every
transfer of control — applying a three- or four-argument closure, taking
an if branch, entering a limit-check body — is in tail position.  The
evaluator is therefore a flat loop over (environment, expression) states;
it returns when it reaches a terminal operand (the body of a host-level
bottom continuation) or when a limit check packages a capsule.

Closures follow the rule of ``direct`` and pipeline A: a function value
closes over exactly its free variables, in one flat frame
(:func:`ckad.values.make_closure`).  Continuation closures keep the
environment they were made in while the run goes on; only at capture are
the stopped run's own closures copied flat (:func:`_canonical`), so a
capsule's structure depends only on the execution point.

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


class ExtendedMachine(Machine):
    """Pipeline B: the evaluator for converted code."""

    name = "b"
    I_LAMBDA = I_LAMBDA4
    R_CLOSURE = Closure(R_LAMBDA4, Env({}, None))

    # -- the evaluator ---------------------------------------------------------

    def _run(self, env: Env, e):
        while True:
            tag = e.TAG
            if tag == T_LIMIT:
                n = self._operand(env, e.n_expr)
                l = self._operand(env, e.l_expr)
                if n == l:
                    k = self._operand(env, e.k_expr)
                    return _canonical(k, Closure(e.relam, env))
                e = e.body
                continue
            if tag == T_APP3:
                fn = self._operand(env, e.fn)
                if type(fn) is not Closure or fn.lam.TAG != T_LAMBDA3:
                    raise NotAFunctionError(
                        f"not a continuation: {fn!r}")
                lam = fn.lam
                env = Env({lam.n: self._operand(env, e.n),
                           lam.l: self._operand(env, e.l),
                           lam.x: self._operand(env, e.arg)}, fn.env)
                e = lam.body
                continue
            if tag == T_APP4:
                fn = self._operand(env, e.fn)
                if type(fn) is not Closure or fn.lam.TAG != T_LAMBDA4:
                    raise NotAFunctionError(f"not a function: {fn!r}")
                lam = fn.lam
                env = Env({lam.k: self._operand(env, e.k),
                           lam.n: self._operand(env, e.n) - lam.n_offset,
                           lam.l: self._operand(env, e.l),
                           lam.x: self._operand(env, e.arg)}, fn.env)
                e = lam.body
                continue
            if tag == T_IF:
                c = self._operand(env, e.cond)
                if c is True:
                    e = e.then
                elif c is False:
                    e = e.alt
                else:
                    raise EvalError(
                        f"if condition must be a boolean, got {c!r}")
                continue
            if tag == T_INTERRUPT:
                f = self._operand(env, e.e1)
                v = self._operand(env, e.e2)
                budget = self._operand(env, e.e3)
                k = env.lookup(K)
                l = env.lookup(L)
                if type(f) is not Closure or f.lam.TAG != T_LAMBDA4:
                    raise NotAFunctionError(f"not a function: {f!r}")
                if l is INFINITY:
                    # tail: fresh count, the budget becomes the limit
                    lam = f.lam
                    env = Env({lam.k: k, lam.n: -lam.n_offset,
                               lam.l: budget, lam.x: v}, f.env)
                    e = lam.body
                    continue
                res = self.apply4(f, k, 0, l, v)
                if type(res) is Capsule:
                    return Capsule(res.k, self.make_I(res.f, budget - l))
                return res
            if tag == T_RESUME:
                z = self._operand(env, e.arg)
                if type(z) is not Capsule:
                    raise EvalError(f"resume expects a capsule, got {z!r}")
                l = env.lookup(L)
                lam = z.f.lam
                env = Env({lam.k: z.k, lam.n: -lam.n_offset, lam.l: l,
                           lam.x: BOTTOM}, z.f.env)
                e = lam.body
                continue
            # terminal: a bottom continuation's body is a simple operand
            self.steps = env.frame[N]
            return self._operand(env, e)

    def _operand(self, env: Env, e):
        tag = e.TAG
        if tag == T_VAR:
            return env.lookup(e.name)
        if tag == T_CONST:
            v = e.value
            # Copy float literals so object identity over numbers always
            # means dataflow sharing (the reverse sweep relies on this);
            # float() would hand back the same object, arithmetic won't.
            return v * 1.0 if type(v) is float else v
        if tag == T_LAMBDA3:
            return Closure(e, env)
        if tag == T_LAMBDA4:
            return make_closure(e, env)
        if tag == T_BINARY:
            a = self._operand(env, e.left)
            b = self._operand(env, e.right)
            if type(a) is int and type(b) is int:
                # count arithmetic stays in machine integers
                if e.op == "+":
                    return a + b
            return apply_binary(e.op, a, b)
        if tag == T_UNARY:
            return apply_unary(e.op, self._operand(env, e.arg))
        if tag == T_HOSTOP:
            f = self._operand(env, e.e1)
            x = self._operand(env, e.e2)
            s = self._operand(env, e.e3)
            return host_ad(self, e.form, f, x, s)
        raise EvalError(
            f"unexpected node in operand position: tag {tag}")

    # -- the runners ---------------------------------------------------------------

    def apply4(self, f, k, n, l, v):
        if type(f) is not Closure or f.lam.TAG != T_LAMBDA4:
            raise NotAFunctionError(f"not a function: {f!r}")
        lam = f.lam
        env = Env({lam.k: k, lam.n: n - lam.n_offset, lam.l: l, lam.x: v},
                  f.env)
        return self._run(env, lam.body)

    def _start(self, f, x, l):
        return self.apply4(f, K3_VALUE, 0, l, x)

    def _restart(self, z):
        return self.apply4(z.f, z.k, 0, INFINITY, BOTTOM)

    # -- whole programs --------------------------------------------------------------

    def _run_top(self, expr, genv, gensym):
        converted = convert_top(expr, gensym)
        env = Env({K: K3_VALUE, N: 0, L: INFINITY}, genv)
        res = self._run(env, converted)
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
