"""Step-counting CPS evaluator (pipeline A) and the host interface both
pipelines share.

The machine threads a step count ``n`` and a step limit ``l`` through
evaluation.  Entering the evaluator on any expression first checks the
limit: when ``n == l`` the pending work is packaged as a *capsule* — the
continuation at that point plus a restart closure — and returned to the
host.  Otherwise each expression clause increments the count exactly
once.  Continuations are defunctionalized records so that the reverse-AD
structural walks can traverse (and tape through) a capsule.

The capture rule: a capsule holds only what the rest of the run reads.
Each record names in ``PENDING`` the fields holding the expressions it
will still evaluate (``KArg.e``, ``KIf.then``/``alt``, ``KBin1.right``,
``KAd1.e2``/``e3``, ``KAd2.e3``).  At capture the chain is copied, and
each copy with pending expressions closes over exactly their free
variables, in one flat frame, by the rule closures use
(:func:`ckad.values.flat_env`); the restart closure closes over those of
the expression the run stopped before.  While running, records keep the
whole environment they were made in.  So a capsule's structure depends
only on the execution point and the live values, not on how the run got
there (straight, resumed or wrapped), and its numeric leaves are those of
pipeline B's capsule at the same point.

Step accounting (checked by the tests):

* every expression clause costs exactly one step;
* applying a closure costs nothing beyond its body;
* the AD operators are atomic — their inner runs use a fresh count and no
  limit, and contribute nothing to the outer count;
* an interrupted run restarts its count at zero, so the steps needed to
  finish a computation after an interruption at budget ``l`` are exactly
  ``total - l``.

:class:`Machine` implements the host entry points the drivers and the AD
operators call (``apply``, ``primops``, ``interrupt``, ``resume``,
``make_I``, ``make_R``, ``reverse_base`` and ``steps``) once, on top of two
runners each pipeline supplies: :class:`CpsMachine` here and
:class:`ckad.extended.ExtendedMachine` for converted code.
"""

from __future__ import annotations

from .ast import (Interrupt, Lambda, Resume, T_APP, T_BINARY,
                  T_CHECKPOINT_J, T_CONST, T_FORWARD_J, T_IF, T_INTERRUPT,
                  T_LAMBDA, T_REVERSE_J, T_RESUME, T_UNARY, T_VAR, Var,
                  free_variables)
from .ad import apply_binary, apply_unary, forward_j, reverse_j
from .errors import EvalError, NotAFunctionError, RanToCompletionError
from .parser import Program
from .values import (BOTTOM, INFINITY, Capsule, Closure, Env, Pair,
                     flat_env, make_closure)


# -- defunctionalized continuations -----------------------------------------
# ``CHILDREN`` names the fields that hold runtime values, in the order the
# AD leaf index (:func:`ckad.ad.collect_leaves`) walks them.  ``PENDING``
# names the fields that hold the expressions the record will still
# evaluate in its ``env``; a captured copy's ``env`` binds exactly their
# free variables (see :func:`_capture`).

class KHost:
    """Bottom continuation: delivers the value and count to the host."""

    __slots__ = ()
    TAG = 0
    CHILDREN = ()
    PENDING = ()


K_HOST = KHost()


class KArg:
    """Waiting for the operator; will evaluate the operand next."""

    __slots__ = ("e", "env", "k")
    TAG = 1
    CHILDREN = ("env", "k")
    PENDING = ("e",)

    def __init__(self, e, env, k):
        self.e = e
        self.env = env
        self.k = k


class KApply:
    """Waiting for the operand; will apply the closure ``f``."""

    __slots__ = ("f", "k")
    TAG = 2
    CHILDREN = ("f", "k")
    PENDING = ()

    def __init__(self, f, k):
        self.f = f
        self.k = k


class KIf:
    __slots__ = ("then", "alt", "env", "k")
    TAG = 3
    CHILDREN = ("env", "k")
    PENDING = ("then", "alt")

    def __init__(self, then, alt, env, k):
        self.then = then
        self.alt = alt
        self.env = env
        self.k = k


class KUnary:
    __slots__ = ("op", "k")
    TAG = 4
    CHILDREN = ("k",)
    PENDING = ()

    def __init__(self, op, k):
        self.op = op
        self.k = k


class KBin1:
    __slots__ = ("op", "right", "env", "k")
    TAG = 5
    CHILDREN = ("env", "k")
    PENDING = ("right",)

    def __init__(self, op, right, env, k):
        self.op = op
        self.right = right
        self.env = env
        self.k = k


class KBin2:
    __slots__ = ("op", "left", "k")
    TAG = 6
    CHILDREN = ("left", "k")
    PENDING = ()

    def __init__(self, op, left, k):
        self.op = op
        self.left = left
        self.k = k


class KAd1:
    __slots__ = ("form", "e2", "e3", "env", "k")
    TAG = 7
    CHILDREN = ("env", "k")
    PENDING = ("e2", "e3")

    def __init__(self, form, e2, e3, env, k):
        self.form = form
        self.e2 = e2
        self.e3 = e3
        self.env = env
        self.k = k


class KAd2:
    __slots__ = ("form", "v1", "e3", "env", "k")
    TAG = 8
    CHILDREN = ("v1", "env", "k")
    PENDING = ("e3",)

    def __init__(self, form, v1, e3, env, k):
        self.form = form
        self.v1 = v1
        self.e3 = e3
        self.env = env
        self.k = k


class KAd3:
    __slots__ = ("form", "v1", "v2", "k")
    TAG = 9
    CHILDREN = ("v1", "v2", "k")
    PENDING = ()

    def __init__(self, form, v1, v2, k):
        self.form = form
        self.v1 = v1
        self.v2 = v2
        self.k = k


class KResume:
    __slots__ = ("k",)
    TAG = 10
    CHILDREN = ("k",)
    PENDING = ()

    def __init__(self, k):
        self.k = k


# The restart closure of a capsule wraps the pending expression in a
# one-parameter lambda whose (ignored) parameter receives BOTTOM on resume.
_IGNORED = "%_"


def _capture(k, e, env) -> Capsule:
    """The capsule of a run stopped before it evaluates ``e`` in ``env``
    under ``k``, by the capture rule of this module's docstring.

    The chain is read into a list (its own stack) and rebuilt from the
    bottom up.  A record already in captured form, over an unchanged rest
    of the chain, is kept; any other is copied, so records an earlier
    capsule shares are never changed."""
    records = []
    while k is not K_HOST:
        records.append(k)
        k = k.k
    for rec in reversed(records):
        t = type(rec)
        pending = t.PENDING
        if pending:
            names = ()
            for field in pending:
                names += free_variables(getattr(rec, field))
            if len(pending) > 1:
                names = tuple(dict.fromkeys(names))
            renv = rec.env
            if renv.parent is None and tuple(renv.frame) == names:
                if rec.k is k:
                    k = rec
                    continue
            else:
                renv = flat_env(names, renv)
        elif rec.k is k:
            k = rec
            continue
        copy = t.__new__(t)
        for name in t.__slots__:
            setattr(copy, name, getattr(rec, name))
        copy.k = k
        if pending:
            copy.env = renv
        k = copy
    return Capsule(k, make_closure(Lambda(_IGNORED, e), env))


def host_ad(machine, form, f, x, sensitivity):
    """Apply the AD operator with source tag ``form`` to ``f`` at ``x``;
    the host-level glue both pipelines share."""
    if form == T_FORWARD_J:
        y, yt = forward_j(f, x, sensitivity, machine.apply)
        return Pair(y, yt)
    if form == T_REVERSE_J:
        y, xbar = reverse_j(f, x, sensitivity, machine.apply)
        return Pair(y, xbar)
    # checkpoint-*j
    from .drivers import run_checkpoint
    y, xbar = run_checkpoint(machine, f, x, sensitivity, machine.config)
    return Pair(y, xbar)


class Machine:
    """The host entry points, shared by both pipelines.

    A pipeline supplies ``I_LAMBDA`` (the lambda of :meth:`make_I`'s
    wrapper; the captured budget lives in ``%b`` so the contextual limit
    cannot shadow it), ``R_CLOSURE`` and two runners:

    * ``_start(f, x, l)`` applies ``f`` to ``x`` from count 0 under limit
      ``l`` and returns the value or a capsule;
    * ``_restart(z)`` runs capsule ``z`` with no limit.

    ``steps`` is the count of the last run that delivered its value to the
    host (so a taped run reports its own length).  ``config`` (a
    :class:`ckad.drivers.RunConfig` or None) selects how the checkpointing
    reverse operator is carried out when a program uses it.
    """

    def __init__(self, config=None):
        self.config = config
        self.steps = None

    def apply(self, f, x):
        """Apply ``f`` to ``x`` with no limit; the result may be a capsule
        if the computation interrupts itself (an I-wrapped function)."""
        return self._start(f, x, INFINITY)

    def primops(self, f, x) -> int:
        """Number of evaluator steps ``f`` takes on ``x``."""
        if type(self._start(f, x, INFINITY)) is Capsule:
            raise EvalError("primops: the computation interrupted itself")
        return self.steps

    def interrupt(self, f, x, l: int) -> Capsule:
        """Run ``f`` on ``x`` for exactly ``l`` steps and capture the rest."""
        res = self._start(f, x, l)
        if type(res) is Capsule:
            return res
        raise RanToCompletionError(
            f"computation finished in {self.steps} steps, within the "
            f"budget {l}")

    def resume(self, z: Capsule):
        """Run an interrupted computation to completion."""
        if type(z) is not Capsule:
            raise EvalError(f"resume expects a capsule, got {z!r}")
        res = self._restart(z)
        if type(res) is Capsule:
            raise EvalError("resumed computation interrupted itself")
        return res

    def make_I(self, f, l) -> Closure:
        """A closure that runs ``f`` but interrupts after ``l`` steps."""
        return Closure(self.I_LAMBDA, Env({"%f": f, "%b": l}, None))

    def make_R(self) -> Closure:
        """The closure that resumes a capsule passed to it."""
        return self.R_CLOSURE

    def reverse_base(self, f, x, y_cotangent, need_y=True):
        """Plain (taping) reverse mode through this machine: (y, x
        cotangent).  A caller that drops y passes ``need_y=False`` and gets
        ``None`` for it, which spares the output's strip."""
        return reverse_j(f, x, y_cotangent, self.apply, need_y)


class CpsMachine(Machine):
    """Pipeline A: the interruptible evaluator over source expressions."""

    name = "a"
    I_LAMBDA = Lambda("%x", Interrupt(Var("%f"), Var("%x"), Var("%b")))
    R_CLOSURE = Closure(Lambda("%z", Resume(Var("%z"))), Env({}, None))

    # -- the machine ---------------------------------------------------------

    def run_apply(self, k, n, l, f, v):
        """Apply closure ``f`` to ``v`` under continuation ``k`` with count
        ``n`` and limit ``l``.  Returns the value the run delivers to
        ``K_HOST`` (setting ``steps``) or a ``Capsule``."""
        if type(f) is not Closure or f.lam.TAG != T_LAMBDA:
            raise NotAFunctionError(f"not a function: {f!r}")
        env = f.env.extend(f.lam.param, v)
        e = f.lam.body
        while True:
            # ---- evaluate e in env: the limit check comes first
            if n == l:
                return _capture(k, e, env)
            tag = e.TAG
            if tag == T_VAR:
                val = env.lookup(e.name)
                n += 1
            elif tag == T_CONST:
                val = e.value
                # Copy float literals so object identity over numbers
                # always means dataflow sharing (the reverse sweep relies
                # on this); float() would hand back the same object.
                if type(val) is float:
                    val = val * 1.0
                n += 1
            elif tag == T_APP:
                k = KArg(e.arg, env, k)
                e = e.fn
                n += 1
                continue
            elif tag == T_BINARY:
                k = KBin1(e.op, e.right, env, k)
                e = e.left
                n += 1
                continue
            elif tag == T_IF:
                k = KIf(e.then, e.alt, env, k)
                e = e.cond
                n += 1
                continue
            elif tag == T_UNARY:
                k = KUnary(e.op, k)
                e = e.arg
                n += 1
                continue
            elif tag == T_LAMBDA:
                val = make_closure(e, env)
                n += 1
            elif tag in (T_FORWARD_J, T_REVERSE_J, T_CHECKPOINT_J,
                         T_INTERRUPT):
                k = KAd1(tag, e.e2, e.e3, env, k)
                e = e.e1
                n += 1
                continue
            elif tag == T_RESUME:
                k = KResume(k)
                e = e.arg
                n += 1
                continue
            else:
                raise EvalError(
                    f"the CPS evaluator cannot handle node tag {tag}")
            # ---- deliver val to k
            while True:
                kt = k.TAG
                if kt == 1:  # KArg
                    f2 = val
                    e = k.e
                    env = k.env
                    k = KApply(f2, k.k)
                    break
                if kt == 2:  # KApply
                    f2 = k.f
                    if type(f2) is not Closure or f2.lam.TAG != T_LAMBDA:
                        raise NotAFunctionError(f"not a function: {f2!r}")
                    env = f2.env.extend(f2.lam.param, val)
                    e = f2.lam.body
                    k = k.k
                    break
                if kt == 5:  # KBin1
                    e = k.right
                    env = k.env
                    k = KBin2(k.op, val, k.k)
                    break
                if kt == 6:  # KBin2
                    val = apply_binary(k.op, k.left, val)
                    k = k.k
                    continue
                if kt == 3:  # KIf
                    if val is True:
                        e = k.then
                    elif val is False:
                        e = k.alt
                    else:
                        raise EvalError(
                            f"if condition must be a boolean, got {val!r}")
                    env = k.env
                    k = k.k
                    break
                if kt == 4:  # KUnary
                    val = apply_unary(k.op, val)
                    k = k.k
                    continue
                if kt == 7:  # KAd1
                    e = k.e2
                    env = k.env
                    k = KAd2(k.form, val, k.e3, k.env, k.k)
                    break
                if kt == 8:  # KAd2
                    e = k.e3
                    env = k.env
                    k = KAd3(k.form, k.v1, val, k.k)
                    break
                if kt == 9:  # KAd3
                    form = k.form
                    v1 = k.v1
                    v2 = k.v2
                    k = k.k
                    if form == T_INTERRUPT:
                        budget = val
                        if l is INFINITY:
                            # run inline: fresh count, the budget becomes
                            # the limit; an interruption propagates as the
                            # result of this whole run
                            if type(v1) is not Closure \
                                    or v1.lam.TAG != T_LAMBDA:
                                raise NotAFunctionError(
                                    f"not a function: {v1!r}")
                            env = v1.env.extend(v1.lam.param, v2)
                            e = v1.lam.body
                            n = 0
                            l = budget
                            break
                        # finite contextual limit: run nested under that
                        # limit and re-arm the residual budget
                        res = self.run_apply(k, 0, l, v1, v2)
                        if type(res) is Capsule:
                            return Capsule(res.k,
                                           self.make_I(res.f, budget - l))
                        return res
                    val = host_ad(self, form, v1, v2, val)
                    continue
                if kt == 10:  # KResume
                    if type(val) is not Capsule:
                        raise EvalError(f"resume expects a capsule, "
                                        f"got {val!r}")
                    # the current continuation is discarded: control
                    # returns to the capsule's continuation
                    f2 = val.f
                    k = val.k
                    n = 0
                    env = f2.env.extend(f2.lam.param, BOTTOM)
                    e = f2.lam.body
                    break
                # KHost
                self.steps = n
                return val

    def _start(self, f, x, l):
        return self.run_apply(K_HOST, 0, l, f, x)

    def _restart(self, z):
        return self.run_apply(z.k, 0, INFINITY, z.f, BOTTOM)

    # -- whole programs ----------------------------------------------------------

    def install(self, program: Program) -> Env:
        genv = Env({}, None)
        for name, expr in program.defines:
            if expr.TAG == T_LAMBDA:
                genv.frame[name] = Closure(expr, genv)
            else:
                genv.frame[name] = self.run_apply(
                    K_HOST, 0, INFINITY,
                    Closure(Lambda(_IGNORED, expr), genv), BOTTOM)
        return genv

    def run_program(self, program: Program):
        """Evaluate a program body; returns (value, step_count)."""
        genv = self.install(program)
        if program.body is None:
            raise EvalError("program has no body expression")
        value = self.run_apply(
            K_HOST, 0, INFINITY,
            Closure(Lambda(_IGNORED, program.body), genv), BOTTOM)
        return value, self.steps
