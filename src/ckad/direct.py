"""Direct-style reference evaluator.

This evaluator defines the baseline semantics of the language (including
the AD operators) without any step counting machinery in the programs it
runs.  It is written with an explicit work stack rather than Python
recursion so that deeply tail-recursive programs (loops) run in constant
Python stack.

An optional :class:`StepCounter` counts one step per expression-node
evaluation; this matches the step accounting of the CPS evaluator
(:mod:`ckad.cps`) exactly, which the test-suite checks.
"""

from __future__ import annotations

from .ast import (T_APP, T_BINARY, T_CHECKPOINT_J, T_CONST, T_FORWARD_J,
                  T_IF, T_LAMBDA, T_REVERSE_J, T_UNARY, T_VAR)
from .ad import apply_binary, apply_unary, forward_j, reverse_j
from .errors import EvalError, NotAFunctionError
from .parser import Program
from .values import Closure, Env, Pair, make_closure


class StepCounter:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


_OP_EV = 0
_OP_APPLY = 1
_OP_IF = 2
_OP_UNARY = 3
_OP_BINARY = 4
_OP_AD = 5


def eval_direct(e, env: Env, counter: StepCounter | None = None):
    """Evaluate source expression ``e`` in ``env``."""
    todo = [(_OP_EV, e, env)]
    vals: list = []
    push = todo.append
    pop = todo.pop
    while todo:
        item = pop()
        op = item[0]
        if op == _OP_EV:
            expr = item[1]
            scope = item[2]
            if counter is not None:
                counter.n += 1
            tag = expr.TAG
            if tag == T_CONST:
                v = expr.value
                # Copy float literals so object identity over numbers
                # always means dataflow sharing (the reverse sweep relies
                # on this); float() would hand back the same object.
                vals.append(v * 1.0 if type(v) is float else v)
            elif tag == T_VAR:
                vals.append(scope.lookup(expr.name))
            elif tag == T_LAMBDA:
                vals.append(make_closure(expr, scope))
            elif tag == T_APP:
                push((_OP_APPLY,))
                push((_OP_EV, expr.arg, scope))
                push((_OP_EV, expr.fn, scope))
            elif tag == T_IF:
                push((_OP_IF, expr.then, expr.alt, scope))
                push((_OP_EV, expr.cond, scope))
            elif tag == T_UNARY:
                push((_OP_UNARY, expr.op))
                push((_OP_EV, expr.arg, scope))
            elif tag == T_BINARY:
                push((_OP_BINARY, expr.op))
                push((_OP_EV, expr.right, scope))
                push((_OP_EV, expr.left, scope))
            elif tag in (T_FORWARD_J, T_REVERSE_J, T_CHECKPOINT_J):
                push((_OP_AD, tag))
                push((_OP_EV, expr.e3, scope))
                push((_OP_EV, expr.e2, scope))
                push((_OP_EV, expr.e1, scope))
            else:
                raise EvalError(
                    "the direct evaluator only handles source forms, got "
                    f"node tag {tag}")
        elif op == _OP_APPLY:
            v = vals.pop()
            f = vals.pop()
            if type(f) is not Closure or f.lam.TAG != T_LAMBDA:
                raise NotAFunctionError(f"not a function: {f!r}")
            push((_OP_EV, f.lam.body, f.env.extend(f.lam.param, v)))
        elif op == _OP_IF:
            c = vals.pop()
            if c is True:
                push((_OP_EV, item[1], item[3]))
            elif c is False:
                push((_OP_EV, item[2], item[3]))
            else:
                raise EvalError(f"if condition must be a boolean, got {c!r}")
        elif op == _OP_UNARY:
            v = vals.pop()
            vals.append(apply_unary(item[1], v))
        elif op == _OP_BINARY:
            b = vals.pop()
            a = vals.pop()
            vals.append(apply_binary(item[1], a, b))
        else:  # _OP_AD
            v3 = vals.pop()
            v2 = vals.pop()
            v1 = vals.pop()
            vals.append(_apply_ad(item[1], v1, v2, v3))
    return vals[-1]


def _apply_ad(tag, f, x, sensitivity):
    # AD operators are atomic: the steps of the inner run never flow into
    # the enclosing count (matching the CPS evaluator's accounting)
    applier = lambda fn, arg: apply_direct(fn, arg)  # noqa: E731
    if tag == T_FORWARD_J:
        y, yt = forward_j(f, x, sensitivity, applier)
        return Pair(y, yt)
    # In the direct evaluator there is no interruption machinery, so the
    # checkpointing variant of the reverse operator degenerates to the
    # plain one (they compute the same value by construction).
    y, xbar = reverse_j(f, x, sensitivity, applier)
    return Pair(y, xbar)


def apply_direct(f, v, counter: StepCounter | None = None):
    if type(f) is not Closure or f.lam.TAG != T_LAMBDA:
        raise NotAFunctionError(f"not a function: {f!r}")
    return eval_direct(f.lam.body, f.env.extend(f.lam.param, v), counter)


def install_program(program: Program) -> Env:
    """Build the global environment for a parsed program.

    Closures from top-level function definitions keep the global
    environment as their parent frame so that (mutually) recursive
    definitions resolve by late binding.
    """
    genv = Env({}, None)
    for name, expr in program.defines:
        if expr.TAG == T_LAMBDA:
            genv.frame[name] = Closure(expr, genv)
        else:
            genv.frame[name] = eval_direct(expr, genv)
    return genv


def run_program_direct(program: Program, counter: StepCounter | None = None):
    genv = install_program(program)
    if program.body is None:
        raise EvalError("program has no body expression")
    return eval_direct(program.body, genv, counter)
