"""One capture rule: a capsule's leaves depend only on the execution point.

A flat sensitivity pairs its entries with a capsule's numeric leaves by
their position in :func:`ckad.ad.collect_leaves` order, and only the count
is checked at run time.  So every capture of one execution point must list
the same leaves, reached from the same places, whatever run made it.
:func:`leaf_labels` labels each leaf by the container type and the field
or binding name that first reaches it, with a walk of its own in the same
order, so the check costs ``collect_leaves`` nothing.

At each point p the tests compare three captures on each pipeline:

* the straight run, ``interrupt(f, x, p)``;
* a resumed run, ``interrupt(make_R(), interrupt(f, x, k), p - k)``;
* the left-part form, ``apply(make_I(f, p), x)``, as a driver's leaf
  makes it.

Both pipelines capture by the same rule (a captured record or closure
holds exactly the free variables of what it will still evaluate, in one
parentless frame), so no capsule holds an environment with a parent, A's
and B's capsules hold the same number of leaves, and checkpointed runs
keep the same number of tape cells live on both.
"""

import pytest

from ckad.ad import Dual, TapeCell, collect_leaves
from ckad.bench import BenchmarkParams, build_example_program
from ckad.drivers import RunConfig, parse_criterion
from ckad.metrics import METER
from ckad.values import EMPTY, Env, Pair

from conftest import fn_arg_program, load_corpus, make_machine
from test_golden import ALPHA, PROGRAMS, SCHEDULES


def leaf_labels(v) -> list:
    """One label per unique numeric leaf of ``v``, in ``collect_leaves``
    order: the type of the container that first reaches it and the field
    or binding it sits in."""
    labels, leaves = [], []
    seen = set()
    stack = [(v, "root")]
    while stack:
        cur, label = stack.pop()
        t = type(cur)
        if t is float or t is Dual or t is TapeCell:
            if id(cur) not in seen:
                seen.add(id(cur))
                leaves.append(cur)
                labels.append(label)
            continue
        if t is bool or cur is EMPTY or id(cur) in seen:
            continue
        if t is Pair:
            seen.add(id(cur))
            stack += ((cur.cdr, "Pair.cdr"), (cur.car, "Pair.car"))
        elif t is Env:
            seen.add(id(cur))
            if cur.parent is not None:
                stack.append((cur.parent, "Env.parent"))
            stack += ((value, f"Env[{name}]")
                      for name, value in reversed(cur.frame.items()))
        elif getattr(t, "CHILDREN", None):
            seen.add(id(cur))
            stack += ((getattr(cur, name), f"{t.__name__}.{name}")
                      for name in reversed(t.CHILDREN))
    assert list(map(id, leaves)) == list(map(id, collect_leaves(v)))
    return labels


def captures(P, f, x, p):
    """The three captures of point ``p``."""
    k = max(1, p - 37)
    return (P.interrupt(f, x, p),
            P.interrupt(P.make_R(), P.interrupt(f, x, k), p - k),
            P.apply(P.make_I(f, p), x))


def is_flat(z) -> bool:
    """No environment in capsule ``z`` has a parent."""
    return all(node.parent is None for node in collect_leaves(z).nodes
               if type(node) is Env)


def function_and_input(program, pipeline):
    P = make_machine(pipeline)
    pair, _steps = P.run_program(fn_arg_program(program))
    return P, pair.car, pair.cdr


def check_points(program, points):
    """At every point, each capture is flat, the three captures agree on
    each pipeline, and A's capsule holds as many leaves as B's.  Returns
    the leaf counts."""
    counts = {}
    for pipeline in ("a", "b"):
        P, f, x = function_and_input(program, pipeline)
        counts[pipeline] = []
        for p in points:
            zs = captures(P, f, x, p)
            assert all(map(is_flat, zs)), (pipeline, p)
            straight, resumed, wrapped = map(leaf_labels, zs)
            assert resumed == straight, (pipeline, p)
            assert wrapped == straight, (pipeline, p)
            counts[pipeline].append(len(straight))
    assert counts["a"] == counts["b"]
    return counts["a"]


def test_captures_agree_across_the_benchmark_program():
    # the benchmark program at n=10, l=4: 40 points spread over its run
    program = build_example_program(BenchmarkParams(10, 4))
    P, f, x = function_and_input(program, "a")
    length = P.primops(f, x)
    assert length == 5646
    points = range(38, length, length // 40)
    assert len(points) >= 39
    check_points(program, points)


@pytest.mark.parametrize("name", PROGRAMS)
def test_captures_agree_across_corpus_programs(name):
    program = load_corpus(name)
    P, f, x = function_and_input(program, "a")
    length = P.primops(f, x)
    # the resumed capture needs a few steps past k to re-enter the run
    points = range(5, length, max(1, length // 8))
    check_points(program, points)


def test_wide_capsule_holds_only_live_leaves():
    # at n=100, l=4, halfway: the 100-element state once, not twice
    program = build_example_program(BenchmarkParams(100, 4))
    for pipeline in ("a", "b"):
        P, f, x = function_and_input(program, pipeline)
        z = P.interrupt(f, x, P.primops(f, x) // 2)
        assert len(collect_leaves(z)) == 107, pipeline


@pytest.mark.parametrize("name", PROGRAMS + ["bench_4_64"])
def test_tape_peak_is_the_same_on_both_pipelines(name):
    program = load_corpus(name)
    for mode, algorithm, split, criterion in SCHEDULES:
        peaks = []
        for pipeline in ("a", "b"):
            config = RunConfig(mode=mode, algorithm=algorithm, split=split,
                               criterion=parse_criterion(criterion),
                               alpha=ALPHA)
            METER.reset()
            make_machine(pipeline, config).run_program(program)
            peaks.append(METER.tape_peak)
        METER.reset()
        assert peaks[0] == peaks[1], (mode, algorithm, split, criterion)
