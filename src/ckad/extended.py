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

An operand, and a redex (a continuation lambda applied where it is
written) together with its limit checks and its operand, compile to one
generated Python function each (:func:`ckad.cps.generate`), so reading a
variable or applying a primitive within one costs no call of its own.

A lambda's body compiles on its first call and is kept on the
``Lambda3``/``Lambda4`` node (``code``), as the node's free variables are
(``fvs``); the body's operands and limit checks compile with it, but no
lambda nested in it.  A program converts on its first run, and its
top-level expressions compile then; both are kept with the program.
Nothing compiles at conversion, and a function that is never called
never compiles.  Each limit check reads the count and the limit
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
                  T_INTERRUPT, T_LAMBDA, T_LAMBDA3, T_LAMBDA4, T_LIMIT,
                  T_RESUME, T_UNARY, T_VAR, Lambda3, Lambda4, Var)
from .ad import BINARY, UNARY
from .convert import (I_LAMBDA4, K, L, N, R_LAMBDA4, _Gensym, convert_lambda,
                      convert_top)
from .cps import Machine, bind, generate, host_ad
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


def _generate(lines, names):
    """One generated function ``(machine, env)`` with body ``lines``, which
    read the current frame as ``fr`` and the objects in ``names``."""
    return generate("def f(m, env):\n    fr = env.frame\n"
                    + "".join(f"    {line}\n" for line in lines), names)


def _operand(e, own):
    """Compile operand ``e`` into one generated function."""
    names = dict(_NAMES)
    return _generate([f"return {_operand_source(e, own, names)}"], names)


def _operand_source(e, own, names):
    """A Python expression of operand ``e``'s value in ``env``, whose
    frame is ``fr``; the objects it refers to are bound in ``names``.
    Operands nest at most two deep: a primitive or an AD operator over
    variables."""
    tag = e.TAG
    if tag == T_VAR:
        name = bind(names, e.name)
        if e.name in own:
            return f"fr[{name}]"
        # a free variable of the lambda: start at its closure's frame
        return (f"(env.parent.frame[{name}] if {name} in env.parent.frame "
                f"else env.parent.lookup({name}))")
    if tag == T_CONST:
        # Copy float literals so object identity over numbers always
        # means dataflow sharing (the reverse sweep relies on this);
        # float() would hand back the same object, arithmetic won't.
        value = bind(names, e.value)
        return f"({value} * 1.0)" if type(e.value) is float else value
    if tag == T_LAMBDA3:
        return f"Closure({bind(names, e)}, env)"
    if tag == T_LAMBDA4:
        return f"make_closure({bind(names, e)}, env)"
    if tag == T_UNARY:
        fn = bind(names, UNARY[e.op])
        return f"{fn}({_operand_source(e.arg, own, names)})"
    if tag == T_BINARY:
        fn = bind(names, BINARY[e.op])
        return (f"{fn}({_operand_source(e.left, own, names)}, "
                f"{_operand_source(e.right, own, names)})")
    if tag == T_HOSTOP:
        parts = ", ".join(_operand_source(part, own, names)
                          for part in (e.e1, e.e2, e.e3))
        return f"host_ad(m, {bind(names, e.form)}, {parts})"
    raise EvalError(f"unexpected node in operand position: tag {tag}")


def _tail(e, own):
    """Compile tail node ``e``.

    A limit check whose body is another check starts a chain, as deep as
    a left-nested source expression; it compiles with a loop, into one
    function.  The checks of a chain read one frame and have distinct
    count offsets, so the one that fires, if any, is the one whose offset
    is the limit minus the count.  A redex compiles into the same
    function as its checks, its operand inline."""
    checks = []
    while e.TAG == T_LIMIT:
        checks.append(e)
        e = e.body
    names = dict(_NAMES, own=own)
    lines = []
    if checks:
        names["at"] = {_count(c.n_expr): c for c in checks}
        lines += ["l = fr[L]",
                  "if l is not INFINITY:",
                  "    c = at.get(l - fr[N])",
                  "    if c is not None:",
                  "        return None, canonical(operand(c.k_expr, own)"
                  "(m, env), Closure(c.relam, env))"]
    lam = e.fn if e.TAG == T_APP3 else None
    if lam is not None and lam.TAG == T_LAMBDA3:
        # a redex: the continuation is applied where it is written, so its
        # frame's parent is this one, and no closure is made
        names["lam"] = lam
        arg = _operand_source(e.arg, own, names)
        lines.append(
            f"return lam.code or compile(lam), Env({{"
            f"{bind(names, lam.n)}: fr[N] + {bind(names, _count(e.n))}, "
            f"{bind(names, lam.l)}: fr[L], {bind(names, lam.x)}: {arg}}}, "
            "env)")
    else:
        body = _TAIL.get(e.TAG, _terminal)(e, own)
        if not checks:
            return body
        names["body"] = body
        lines.append("return body(m, env)")
    return _generate(lines, names)


def _app3(e, own):
    # the continuation is a value (a redex compiles in _tail)
    c = _count(e.n)
    arg = _operand(e.arg, own)
    fn = _operand(e.fn, own)

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
# what generated code refers to by name
_NAMES = {"Closure": Closure, "Env": Env, "INFINITY": INFINITY, "L": L,
          "N": N, "canonical": _canonical, "compile": _compile,
          "host_ad": host_ad, "make_closure": make_closure,
          "operand": _operand}


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

    def _run_top(self, code, genv):
        env = Env({K: K3_VALUE, N: 0, L: INFINITY}, genv)
        res = self._run(code, env)
        if type(res) is Capsule:
            raise EvalError("top-level expression interrupted itself")
        return res

    def run_program(self, program: Program):
        """Evaluate a program body; returns (value, step_count).

        The program is converted on its first run, and its top-level
        expressions compiled; both are kept with it, so a later run
        converts and compiles nothing again.  Gensym names restart per
        program, so a kept conversion names what a fresh one would."""
        if program.converted is None:
            gensym = _Gensym()

            def top(expr):
                return _tail(convert_top(expr, gensym), (K, N, L))
            program.converted = (
                [(name, convert_lambda(expr, gensym)
                  if expr.TAG == T_LAMBDA else top(expr))
                 for name, expr in program.defines],
                None if program.body is None else top(program.body))
        defines, body = program.converted
        genv = Env({}, None)
        for name, part in defines:
            if type(part) is Lambda4:
                genv.frame[name] = Closure(part, genv)
            else:
                genv.frame[name] = self._run_top(part, genv)
        if body is None:
            raise EvalError("program has no body expression")
        value = self._run_top(body, genv)
        return value, self.steps
