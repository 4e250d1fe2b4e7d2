"""Divide-and-conquer checkpointing drivers for the reverse AD operator.

All drivers work against a *pipeline*, a :class:`ckad.cps.Machine`: they
measure with ``primops``, advance with ``interrupt``, wrap with ``make_I``
and ``make_R``, tape leaves with ``reverse_base``, and reverse mode reads
``L`` from ``steps``.

A driver reverses an ``L``-step computation by repeatedly splitting the
execution interval at a point chosen by :func:`mid`: it advances a capsule
to the split point, reverses the right part first (recursively), and then
reverses the left part against the cotangent coming out of the right part.
Leaves (intervals no longer than ``alpha`` steps, or intervals whose
snapshot/pass budgets are exhausted) are reversed by ordinary taping.
Only the rightmost leaf's output is the result: every other leaf calls
``reverse_base`` with ``need_y=False``, so its output capsule is used
for seeding but never stripped into a copy nobody reads.

Split budgets ``delta`` (remaining snapshot levels) and ``tau`` (remaining
re-advancement passes) follow the classic binomial checkpointing
accounting: the right part of a split costs a snapshot level, the left
part costs a pass.  ``eta(d, t) = C(d+t, t)`` is the maximal number of
leaf segments reversible with those budgets, and :func:`pick` derives the
missing budget from a termination criterion (fixed space, fixed time, or
logarithmic growth of both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import ConfigError, EvalError
from .metrics import METER
from .values import Capsule

INF_BUDGET = math.inf

#: Smallest permitted leaf size.  Interruption budgets in the drivers are
#: never smaller than ``alpha // 2``; keeping ``alpha >= 8`` guarantees
#: every budget covers the few bookkeeping steps an interrupting or
#: resuming wrapper needs before its count resets.
MIN_ALPHA = 8
DEFAULT_ALPHA = 64


# ---------------------------------------------------------------------------
# termination criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedSpace:
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError(f"fixed-space criterion needs d >= 1, "
                              f"got {self.d}")


@dataclass(frozen=True)
class FixedTime:
    t: int

    def __post_init__(self):
        if self.t < 1:
            raise ConfigError(f"fixed-time criterion needs t >= 1, "
                              f"got {self.t}")


@dataclass(frozen=True)
class Logarithmic:
    pass


def parse_criterion(text: str):
    if text == "log":
        return Logarithmic()
    if text.startswith("fixed-space="):
        return FixedSpace(int(text.split("=", 1)[1]))
    if text.startswith("fixed-time="):
        return FixedTime(int(text.split("=", 1)[1]))
    raise ValueError(f"unknown criterion: {text!r}")


def criterion_name(criterion) -> str:
    if isinstance(criterion, Logarithmic):
        return "log"
    if isinstance(criterion, FixedSpace):
        return f"fixed-space={criterion.d}"
    if isinstance(criterion, FixedTime):
        return f"fixed-time={criterion.t}"
    return str(criterion)


def eta(d: int, t: int) -> int:
    """Maximal number of leaf segments reversible with ``d`` snapshot
    levels and ``t`` re-advancement passes."""
    if d < 0 or t < 0:
        return 0
    return math.comb(d + t, t)


def pick(criterion, n: int, alpha: int = DEFAULT_ALPHA):
    """Derive the split budgets (d, t) for an ``n``-step run so that
    ``eta(d, t) * alpha >= n``."""
    alpha = max(alpha, MIN_ALPHA)
    if isinstance(criterion, FixedSpace):
        d = criterion.d
        t = 1
        while eta(d, t) * alpha < n:
            t += 1
        return d, t
    if isinstance(criterion, FixedTime):
        t = criterion.t
        d = 1
        while eta(d, t) * alpha < n:
            d += 1
        return d, t
    if isinstance(criterion, Logarithmic):
        d = 1
        while eta(d, d) * alpha < n:
            d += 1
        return d, d
    raise ValueError(f"unknown criterion: {criterion!r}")


# ---------------------------------------------------------------------------
# split-point selection
# ---------------------------------------------------------------------------

_DP_LIMIT = 160  # segment counts up to this use the exact schedule DP
_BUDGET_CAP = 60  # stand-in for an unlimited split budget


def _capped(b) -> int:
    return _BUDGET_CAP if b == INF_BUDGET or b > _BUDGET_CAP else int(b)


@lru_cache(maxsize=None)
def _r2(L: int, d: int, t: int):
    """Minimal recompute (in segments) to reverse ``L`` segments with both
    budgets enforced, mirroring the drivers' recursion: the right part of
    a split costs a snapshot level, the left part a pass.  Returns the cost
    and the first number of leading segments to advance past that attains
    it (``None`` when no split is feasible)."""
    if L <= 1:
        return 0, None
    if d == 0 or t == 0:
        return math.inf, None
    best, best_m = math.inf, None
    for m in range(1, L):
        right = _r2(L - m, d - 1, t)[0]
        if right is math.inf:
            continue
        left = _r2(m, d, t - 1)[0]
        if left is math.inf:
            continue
        c = m + right + left
        if c < best:
            best, best_m = c, m
    return best, best_m


def _binomial_lambda(L: int, delta, tau) -> int:
    """Number of leading segments to advance past when splitting ``L``
    segments binomially with budgets (delta, tau)."""
    d = _capped(delta)
    t = _capped(tau)
    if L <= _DP_LIMIT:
        m = _r2(L, d, t)[1]
        if m is not None:
            return m
        # infeasible budgets: fall through to the clamped closed form
    m = L - eta(d - 1, t)
    lo, hi = 1, min(eta(d, t - 1), L - 1)
    if m < lo:
        m = lo
    elif m > hi:
        m = hi
    return m


def mid(delta, tau, sigma: int, phi: int, split: str = "bisection",
        alpha: int = 1) -> int:
    """Split point for the execution interval [sigma, phi).

    Bisection puts the split at ``sigma + floor((phi - sigma) / 2)`` (the
    left part takes the floor, the right part the ceiling).  The binomial
    split works in segments of ``alpha`` steps (the last segment may be
    short) and advances past the number of segments that minimizes total
    recompute under the budgets.
    """
    length = phi - sigma
    if length < 2:
        raise ValueError("cannot split an interval of fewer than 2 steps")
    if split == "bisection":
        return sigma + length // 2
    if split == "binomial":
        segments = -(-length // alpha)
        if segments < 2:
            return sigma + length // 2
        lam = _binomial_lambda(segments, delta, tau)
        return sigma + lam * alpha
    raise ValueError(f"unknown split strategy: {split!r}")


def schedule_oracle(L: int, d: int) -> float:
    """Minimal total recompute (in segments) to reverse ``L`` segments with
    at most ``d`` simultaneously live snapshot levels and unlimited
    re-advancement passes.  Dynamic program:
    r(1, d) = 0;  r(L, 0) = inf for L > 1;
    r(L, d) = min over 1 <= m < L of  m + r(L - m, d - 1) + r(m, d).
    """
    return _r2(L, d, INF_BUDGET)[0]


def _dec(b):
    return b if b == INF_BUDGET else b - 1


# ---------------------------------------------------------------------------
# the drivers
# ---------------------------------------------------------------------------

def checkpoint_reverse_bisect(P, f, x, y_cotangent, alpha: int = DEFAULT_ALPHA,
                              length: int | None = None):
    """Reverse via pure binary bisection with unlimited budgets: intervals
    are halved until they are at most ``alpha`` steps long.  This is
    generalized binary checkpointing at its default budgets and split."""
    return checkpoint_reverse_binary(P, f, x, y_cotangent, alpha,
                                     length=length)


def checkpoint_reverse_binary(P, f, x, y_cotangent,
                              alpha: int = DEFAULT_ALPHA,
                              delta=INF_BUDGET, tau=INF_BUDGET,
                              split: str = "bisection",
                              length: int | None = None):
    """Generalized binary checkpointing with snapshot budget ``delta`` and
    pass budget ``tau``."""
    alpha = max(alpha, MIN_ALPHA)
    if length is None:
        length = P.primops(f, x)
    result = _binary(P, f, x, y_cotangent, alpha, delta, tau, split,
                     0, length, True)
    METER.done()
    return result


def _binary(P, f, x, ybar, alpha, delta, tau, split, base, phi, need_y):
    m = METER
    length = phi - base
    if length <= alpha or delta == 0 or tau == 0:
        m.leaf(base, phi)
        return P.reverse_base(f, x, ybar, need_y)
    kappa = mid(delta, tau, base, phi, split, alpha)
    sid = m.snapshot(base)
    z = P.interrupt(f, x, kappa - base)
    m.advance(base, kappa)
    y, zbar = _binary(P, P.make_R(), z, ybar, alpha, _dec(delta), tau,
                      split, kappa, phi, need_y)
    m.release(sid, base)
    # the left part's output is the capsule z: only its cotangent is used
    _z, xbar = _binary(P, P.make_I(f, kappa - base), x, zbar, alpha,
                       delta, _dec(tau), split, base, kappa, False)
    return y, xbar


def checkpoint_reverse_treeverse(P, f, x, y_cotangent,
                                 alpha: int = DEFAULT_ALPHA,
                                 delta=INF_BUDGET, tau=INF_BUDGET,
                                 split: str = "bisection",
                                 length: int | None = None):
    """Checkpointing in the style of the classic treeverse recursion: one
    snapshot is held per level while a loop of right-subtree reversals
    walks the interval from right to left."""
    alpha = max(alpha, MIN_ALPHA)
    if length is None:
        length = P.primops(f, x)
    result = _treeverse(P, f, x, y_cotangent, alpha, delta, tau, split,
                        0, 0, length, length)
    METER.done()
    return result


def _treeverse(P, f, x, ybar, alpha, delta, tau, split, beta, sigma, phi,
               end):
    if sigma > beta:
        z = P.interrupt(f, x, sigma - beta)
        METER.advance(beta, sigma)
        return _tv_first(P, P.make_R(), z, ybar, alpha, _dec(delta), tau,
                         split, beta, sigma, phi, end)
    return _tv_first(P, f, x, ybar, alpha, delta, tau, split, beta, sigma,
                     phi, end)


def _tv_leaf(P, f, x, ybar, sigma, phi, end):
    METER.leaf(sigma, phi)
    if phi == end:
        # the rightmost leaf runs to natural completion; its y is the result
        return P.reverse_base(f, x, ybar)
    return P.reverse_base(P.make_I(f, phi - sigma), x, ybar, False)


def _tv_first(P, f, x, ybar, alpha, delta, tau, split, beta, sigma, phi,
              end):
    m = METER
    if phi - sigma > alpha and delta != 0 and tau != 0:
        sid = m.snapshot(sigma)
        kappa = mid(delta, tau, sigma, phi, split, alpha)
        y, zbar = _treeverse(P, f, x, ybar, alpha, delta, tau, split,
                             sigma, kappa, phi, end)
        return _tv_rest(P, f, x, zbar, alpha, y, delta, _dec(tau), split,
                        sid, sigma, kappa, end)
    return _tv_leaf(P, f, x, ybar, sigma, phi, end)


def _tv_rest(P, f, x, ybar, alpha, y, delta, tau, split, sid, sigma, phi,
             end):
    m = METER
    if phi - sigma > alpha and delta != 0 and tau != 0:
        kappa = mid(delta, tau, sigma, phi, split, alpha)
        _y, zbar = _treeverse(P, f, x, ybar, alpha, delta, tau, split,
                              sigma, kappa, phi, end)
        return _tv_rest(P, f, x, zbar, alpha, y, delta, _dec(tau), split,
                        sid, sigma, kappa, end)
    m.release(sid, sigma)
    _y, xbar = _tv_leaf(P, f, x, ybar, sigma, phi, end)
    return y, xbar


# ---------------------------------------------------------------------------
# configuration and dispatch
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    mode: str = "checkpoint"           # "checkpoint" | "reverse"
    algorithm: str = "binary"          # "binary" | "treeverse" | "bisect"
    split: str = "bisection"           # "bisection" | "binomial"
    criterion: object = field(default_factory=Logarithmic)
    alpha: int = DEFAULT_ALPHA
    known_length: int | None = None    # checkpoint mode: skip the length pass
    last_length: int | None = None     # filled in by run_checkpoint


#: the accepted values of RunConfig's string options (the CLI's choices)
CONFIG_CHOICES = {"mode": ("reverse", "checkpoint"),
                  "algorithm": ("binary", "treeverse", "bisect"),
                  "split": ("bisection", "binomial")}


def run_checkpoint(P, f, x, y_cotangent, config: RunConfig | None = None):
    """Carry out the checkpointing reverse operator per ``config``."""
    if config is None:
        config = RunConfig()
    for option, choices in CONFIG_CHOICES.items():
        value = getattr(config, option)
        if value not in choices:
            raise ConfigError(f"unknown {option}: {value!r}")
    if config.mode == "reverse":
        # the taped run counts its own steps: no separate length pass
        y, xbar = P.reverse_base(f, x, y_cotangent)
        if type(y) is Capsule:
            raise EvalError("checkpoint-*j: the computation interrupted "
                            "itself")
        config.last_length = P.steps
        return y, xbar
    alpha = max(config.alpha, MIN_ALPHA)
    length = config.known_length
    if length is None:
        length = P.primops(f, x)
    config.last_length = length
    split = config.split
    if config.algorithm == "bisect":
        d = t = INF_BUDGET
        split = "bisection"
    elif length <= alpha:
        d = t = 1
    else:
        d, t = pick(config.criterion, length, alpha)
    driver = (checkpoint_reverse_treeverse
              if config.algorithm == "treeverse"
              else checkpoint_reverse_binary)
    return driver(P, f, x, y_cotangent, alpha, d, t, split, length=length)
