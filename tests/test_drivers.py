"""Checkpointing drivers: budget arithmetic, split points, schedule
optimality, and structural properties of the emitted schedules."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckad.cps import CpsMachine
from ckad.drivers import (INF_BUDGET, MIN_ALPHA, FixedSpace, FixedTime,
                          Logarithmic, RunConfig, checkpoint_reverse_binary,
                          checkpoint_reverse_bisect,
                          checkpoint_reverse_treeverse, criterion_name, eta,
                          mid, parse_criterion, pick, run_checkpoint,
                          schedule_oracle)
from ckad.errors import CkadError, ConfigError, EvalError
from ckad.extended import ExtendedMachine
from ckad.metrics import METER
from ckad.parser import parse_program

from conftest import bitwise_equal


# -- eta / pick ---------------------------------------------------------------

def test_eta_exact_values():
    assert eta(2, 2) == 6
    assert eta(3, 3) == 20
    assert eta(0, 5) == 1 and eta(5, 0) == 1
    assert eta(-1, 3) == 0


def test_eta_is_binomial_coefficient():
    for d in range(0, 8):
        for t in range(0, 8):
            assert eta(d, t) == math.comb(d + t, t)


def test_pick_fixed_space_pinned_case():
    # 200 leaf segments with d = 3: C(3+8,8)=165 < 200 <= C(3+9,9)=220
    assert pick(FixedSpace(3), 200 * 64, 64) == (3, 9)


def enum_min_t(d, n, alpha):
    t = 1
    while eta(d, t) * alpha < n:
        t += 1
    return t


def test_pick_inverts_eta_on_grid():
    # 100 (n, d) and 100 (n, t) cases, each checked by enumeration: the
    # returned budget is feasible and one less is not
    alpha = 64
    cases = [(n, b) for n in (65, 700, 5000, 40000, 333333,
                              1000, 9999, 123456, 2**20, 3**9)
             for b in (1, 2, 3, 5, 8, 13, 4, 6, 7, 10)]
    assert len(cases) == 100
    for n, d in cases:
        _d, t = pick(FixedSpace(d), n, alpha)
        assert _d == d
        assert eta(d, t) * alpha >= n
        assert t == 1 or eta(d, t - 1) * alpha < n
    for n, t in cases:
        d, _t = pick(FixedTime(t), n, alpha)
        assert _t == t
        assert eta(d, t) * alpha >= n
        assert d == 1 or eta(d - 1, t) * alpha < n


def test_pick_logarithmic_is_symmetric_and_minimal():
    for n in (100, 4595, 107004, 10**6):
        d, t = pick(Logarithmic(), n, 64)
        assert d == t
        assert eta(d, d) * 64 >= n
        assert d == 1 or eta(d - 1, d - 1) * 64 < n


def test_pick_enforces_min_alpha():
    # alpha below MIN_ALPHA is clamped up
    assert pick(Logarithmic(), 100, 1) == pick(Logarithmic(), 100, MIN_ALPHA)


def test_pick_rejects_bad_budgets():
    # the criterion itself rejects a budget below 1, before pick runs
    with pytest.raises(ConfigError):
        pick(FixedSpace(0), 100)
    with pytest.raises(ConfigError):
        pick(FixedTime(0), 100)


def test_criterion_parse_and_name_roundtrip():
    for text in ("log", "fixed-space=3", "fixed-time=7"):
        assert criterion_name(parse_criterion(text)) == text
    with pytest.raises(ValueError):
        parse_criterion("nonsense")


# -- mid ------------------------------------------------------------------------

def test_mid_bisection_floors_left():
    assert mid(INF_BUDGET, INF_BUDGET, 0, 10) == 5
    assert mid(INF_BUDGET, INF_BUDGET, 0, 11) == 5
    assert mid(INF_BUDGET, INF_BUDGET, 7, 10) == 8
    with pytest.raises(ValueError):
        mid(INF_BUDGET, INF_BUDGET, 3, 4)
    with pytest.raises(ValueError):
        mid(INF_BUDGET, INF_BUDGET, 0, 10, "diagonal")


def induced_recompute(L, d, t=INF_BUDGET):
    """Recompute (in segments) induced by following mid(binomial)."""
    if L <= 1:
        return 0
    m = mid(d, t, 0, L, "binomial", 1)
    right = induced_recompute(L - m, d - 1 if d != INF_BUDGET else d, t)
    left = induced_recompute(
        m, d, t - 1 if t != INF_BUDGET else t)
    return m + right + left


def test_schedule_oracle_closed_forms():
    # one snapshot level: must peel one segment per pass from the right
    for L in range(2, 12):
        assert schedule_oracle(L, 1) == L * (L - 1) // 2
    # unlimited levels: each split advances one segment
    for L in range(2, 12):
        assert schedule_oracle(L, L) == L - 1
    assert schedule_oracle(1, 0) == 0
    assert schedule_oracle(5, 0) == math.inf


def test_schedule_oracle_monotone_in_budget():
    for L in (7, 19, 33):
        costs = [schedule_oracle(L, d) for d in range(1, 8)]
        assert all(a >= b for a, b in zip(costs, costs[1:]))


def test_binomial_mid_induces_oracle_cost_small():
    for L in range(2, 24):
        for d in range(1, 5):
            assert induced_recompute(L, d) == schedule_oracle(L, d), (L, d)


def test_binomial_mid_respects_exhausted_pass_budget():
    # with tau passes the left part can recurse at most tau-1 more times;
    # the chosen split must keep the recursion feasible
    for L in range(2, 16):
        for d in range(1, 4):
            for t in range(1, 4):
                if eta(d, t) < L:
                    continue  # infeasible: leaves would exceed capacity
                m = mid(d, t, 0, L, "binomial", 1)
                assert 1 <= m <= L - 1
                assert eta(d - 1, t) >= L - m
                assert eta(d, t - 1) >= m


# -- drivers on a real computation ----------------------------------------------

LOOP = """
(define (step x i)
  (if (< i 0.5) x (step (+ (* 0.999 x) (* 0.05 (sin (* x 0.7)))) (- i 1.0))))
(define (main x) (step x 80.0))
(cons main 1.3)
"""


def setup_loop(m):
    pair, _ = m.run_program(parse_program(LOOP))
    f, x = pair.car, pair.cdr
    L = m.primops(f, x)
    ref = m.reverse_base(f, x, 1.0)
    return m, f, x, L, ref


@pytest.fixture(scope="module")
def pipeline():
    return setup_loop(CpsMachine(RunConfig(mode="reverse")))


@pytest.fixture(scope="module")
def pipeline_b():
    return setup_loop(ExtendedMachine(RunConfig(mode="reverse")))


def events(trace, kind):
    return [e for e in trace if e[0] == kind]


def check_leaves_partition(trace, L):
    leaves = sorted((frm, to) for (_, frm, to) in events(trace, "leaf"))
    pos = 0
    for frm, to in leaves:
        assert frm == pos, f"gap/overlap at {frm} (expected {pos})"
        assert to > frm
        pos = to
    assert pos == L


def test_bisect_schedule_structure(pipeline):
    m, f, x, L, ref = pipeline
    alpha = 16
    METER.reset(trace=True)
    y, xbar = checkpoint_reverse_bisect(m, f, x, 1.0, alpha, length=L)
    trace = METER.trace
    assert bitwise_equal(y, ref[0]) and bitwise_equal(xbar, ref[1])
    check_leaves_partition(trace, L)
    assert all(to - frm <= alpha for (_, frm, to) in events(trace, "leaf"))
    # every snapshot is released; none outlive the run
    assert METER.snap_live == 0
    assert len(events(trace, "snapshot")) == len(events(trace, "release"))
    # recompute equals the advances the driver announced
    assert METER.recompute_steps == sum(
        to - frm for (_, frm, to) in events(trace, "advance"))
    assert trace[-1] == ("done",)


@pytest.mark.parametrize("split", ["bisection", "binomial"])
@pytest.mark.parametrize("crit", [FixedSpace(2), FixedSpace(3), FixedTime(3),
                                  Logarithmic()])
def test_binary_matches_plain_reverse_bitwise(pipeline, split, crit):
    m, f, x, L, ref = pipeline
    alpha = 16
    d, t = pick(crit, L, alpha)
    METER.reset(trace=True)
    y, xbar = checkpoint_reverse_binary(m, f, x, 1.0, alpha, d, t, split,
                                        length=L)
    assert bitwise_equal(y, ref[0]) and bitwise_equal(xbar, ref[1])
    check_leaves_partition(METER.trace, L)
    # the snapshot budget bounds simultaneously live snapshots
    assert METER.snap_peak <= d
    # the capacity bound: at most eta(d, t) leaves
    assert METER.leaves <= eta(d, t)


@pytest.mark.parametrize("split", ["bisection", "binomial"])
@pytest.mark.parametrize("crit", [FixedSpace(2), FixedTime(3), Logarithmic()])
def test_treeverse_matches_plain_reverse_bitwise(pipeline, split, crit):
    m, f, x, L, ref = pipeline
    alpha = 16
    d, t = pick(crit, L, alpha)
    METER.reset(trace=True)
    y, xbar = checkpoint_reverse_treeverse(m, f, x, 1.0, alpha, d, t, split,
                                           length=L)
    assert bitwise_equal(y, ref[0]) and bitwise_equal(xbar, ref[1])
    check_leaves_partition(METER.trace, L)
    assert METER.snap_live == 0


def test_single_split_budget_sweep_bitwise(pipeline):
    # force a split at every feasible point with d = t = 1: the right
    # part and left part are both reversed as leaves
    m, f, x, L, ref = pipeline
    for kappa in range(MIN_ALPHA, L - MIN_ALPHA, 37):
        z = m.interrupt(f, x, kappa)
        METER.advance(0, kappa)
        y, zbar = m.reverse_base(m.make_R(), z, 1.0)
        _z, xbar = m.reverse_base(m.make_I(f, kappa), x, zbar)
        assert bitwise_equal(y, ref[0]) and bitwise_equal(xbar, ref[1])


def test_run_checkpoint_dispatch(pipeline, pipeline_b, monkeypatch):
    def no_length_pass(f, x):
        raise AssertionError("unexpected primops call")

    for m, f, x, L, ref in (pipeline, pipeline_b):
        for algorithm in ("binary", "treeverse", "bisect"):
            cfg = RunConfig(mode="checkpoint", algorithm=algorithm,
                            criterion=Logarithmic(), alpha=16)
            y, xbar = run_checkpoint(m, f, x, 1.0, cfg)
            assert bitwise_equal(y, ref[0]) and bitwise_equal(xbar, ref[1])
            assert cfg.last_length == L
        # reverse mode takes L from its own taped run, and bad options
        # are rejected before any evaluator work
        monkeypatch.setattr(m, "primops", no_length_pass)
        cfg = RunConfig(mode="reverse")
        y, xbar = run_checkpoint(m, f, x, 1.0, cfg)
        assert bitwise_equal(y, ref[0]) and bitwise_equal(xbar, ref[1])
        assert cfg.last_length == L
        with pytest.raises(EvalError):
            run_checkpoint(m, m.make_I(f, L // 2), x, 1.0, cfg)
        for bad in (RunConfig(algorithm="zigzag"), RunConfig(mode="taped"),
                    RunConfig(split="diagonal")):
            with pytest.raises(ValueError) as info:
                run_checkpoint(m, f, x, 1.0, bad)
            assert isinstance(info.value, CkadError)


@pytest.mark.parametrize("algorithm", ["binary", "treeverse", "bisect"])
def test_only_the_rightmost_leaf_asks_for_y(pipeline, pipeline_b,
                                            monkeypatch, algorithm):
    # every other leaf's output is dropped, so it is not stripped either
    for m, f, x, L, ref in (pipeline, pipeline_b):
        asked = []
        reverse_base = m.reverse_base

        def spy(f, x, ybar, need_y=True):
            asked.append(need_y)
            return reverse_base(f, x, ybar, need_y)

        monkeypatch.setattr(m, "reverse_base", spy)
        METER.reset()
        cfg = RunConfig(mode="checkpoint", algorithm=algorithm, alpha=16)
        y, xbar = run_checkpoint(m, f, x, 1.0, cfg)
        monkeypatch.undo()
        assert len(asked) == METER.leaves > 1
        assert asked.count(True) == 1
        assert bitwise_equal(y, ref[0]) and bitwise_equal(xbar, ref[1])


def test_run_checkpoint_reuses_known_length(pipeline):
    m, f, x, L, ref = pipeline
    cfg = RunConfig(mode="checkpoint", algorithm="bisect", alpha=16,
                    known_length=L)
    y, xbar = run_checkpoint(m, f, x, 1.0, cfg)
    assert bitwise_equal(xbar, ref[1])


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 60), st.integers(1, 6), st.integers(1, 6))
def test_mid_binomial_always_interior(L, d, t):
    m = mid(d, t, 0, L, "binomial", 1)
    assert 1 <= m <= L - 1


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 30), st.integers(1, 5))
def test_induced_cost_equals_oracle_property(L, d):
    assert induced_recompute(L, d) == schedule_oracle(L, d)
