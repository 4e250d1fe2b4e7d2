"""Command-line interface: exit codes, output shapes, CSV and trace
artifacts, and determinism of everything but wall-clock time."""

import csv
import json
import sys

import pytest
from click.testing import CliRunner

from ckad.cli import format_value, main
from ckad.direct import run_program_direct
from ckad.errors import ArithmeticEvalError
from ckad.metrics import CSV_COLUMNS
from ckad.parser import parse_program
from ckad.values import EMPTY, Pair

from conftest import CORPUS_DIR


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_format_value():
    assert format_value(1.5) == "1.5"
    assert format_value(True) == "#t"
    assert format_value(False) == "#f"
    assert format_value(EMPTY) == "()"
    assert format_value(Pair(1.0, Pair(2.0, EMPTY))) == "(1.0 2.0)"
    assert format_value(Pair(1.0, 2.0)) == "(1.0 . 2.0)"


def test_run_corpus_program(runner):
    res = invoke(runner, "run", str(CORPUS_DIR / "poly1.cvl"))
    assert res.exit_code == 0
    assert res.output.startswith("(")


def test_run_is_deterministic_across_pipelines(runner):
    outs = []
    for pipeline in ("a", "b"):
        res = invoke(runner, "run", str(CORPUS_DIR / "trig1.cvl"),
                     "--pipeline", pipeline)
        assert res.exit_code == 0
        outs.append(res.output)
    assert outs[0] == outs[1]


def test_run_checkpoint_options_do_not_change_the_value(runner):
    path = str(CORPUS_DIR / "loop_linear.cvl")
    base = invoke(runner, "run", path, "--mode", "reverse").output
    for algorithm in ("binary", "treeverse", "bisect"):
        res = invoke(runner, "run", path, "--algorithm", algorithm,
                     "--split", "binomial", "--criterion", "fixed-space=3",
                     "--alpha", "32")
        assert res.exit_code == 0
        assert res.output == base


def test_run_writes_metrics_csv(runner, tmp_path):
    out = tmp_path / "metrics.csv"
    path = str(CORPUS_DIR / "poly1.cvl")
    for _ in range(2):
        res = invoke(runner, "run", path, "--metrics", str(out))
        assert res.exit_code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 3  # header written once, one row per run
    # everything but wall-clock time is identical across runs
    assert rows[1][:-1] == rows[2][:-1]


def test_run_writes_trace_jsonl(runner, tmp_path):
    out = tmp_path / "trace.jsonl"
    res = invoke(runner, "run", str(CORPUS_DIR / "loop_linear.cvl"),
                 "--trace", str(out), "--alpha", "32")
    assert res.exit_code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records[-1] == {"event": "done"}
    assert any(r["event"] == "leaf" for r in records)


def test_run_reports_evaluation_errors(runner, tmp_path):
    bad = tmp_path / "bad.cvl"
    bad.write_text("(/ 1.0 0.0)")
    res = invoke(runner, "run", str(bad))
    assert res.exit_code == 1
    assert "error" in res.output


INF = "(* 1e300 1e300)"


@pytest.mark.parametrize("src", [f"(sin {INF})", f"(floor (- {INF} {INF}))",
                                 f"(floor {INF})"])
def test_run_reports_primitives_of_infinities_and_nans(runner, tmp_path,
                                                        src):
    # an error line and exit code 1 on each pipeline, not a traceback
    bad = tmp_path / "bad.cvl"
    bad.write_text(src)
    for pipeline in ("a", "b"):
        res = invoke(runner, "run", str(bad), "--pipeline", pipeline)
        assert res.exit_code == 1
        assert res.output.startswith("error: ")
    with pytest.raises(ArithmeticEvalError):
        run_program_direct(parse_program(src))


def test_run_reports_too_deep_nesting(runner, tmp_path):
    deep = tmp_path / "deep.cvl"
    deep.write_text("(+ 1.0 " * 1200 + "1.0" + ")" * 1200)
    res = invoke(runner, "run", str(deep))
    assert res.exit_code == 1
    assert res.output.startswith("error: 1:7001: lists nested deeper")


def test_run_prints_a_value_nested_deeper_than_the_recursion_limit(
        runner, tmp_path):
    # the list is built at run time: the parser would reject its literal
    assert sys.getrecursionlimit() <= 1000
    deep = tmp_path / "deep_value.cvl"
    deep.write_text("(define (nest n v)\n"
                    "  (if (<= n 0.0) v (nest (- n 1.0) (cons v nil))))\n"
                    "(nest 1500.0 1.0)\n")
    res = invoke(runner, "run", str(deep))
    assert res.exit_code == 0
    assert res.output == "(" * 1500 + "1.0" + ")" * 1500 + "\n"


def test_run_rejects_bad_criterion(runner):
    res = invoke(runner, "run", str(CORPUS_DIR / "poly1.cvl"),
                 "--criterion", "sometimes")
    assert res.exit_code == 2


@pytest.mark.parametrize("criterion", ["fixed-space=0", "fixed-time=-2"])
def test_run_rejects_criterion_budget_below_one(runner, criterion):
    # a usage error before any evaluation, not a traceback from the driver
    res = invoke(runner, "run", str(CORPUS_DIR / "loop_linear.cvl"),
                 "--criterion", criterion)
    assert res.exit_code == 2
    assert "needs" in res.output


def test_bench_example_single_size(runner):
    res = invoke(runner, "bench", "example", "--n", "2", "--l", "8")
    assert res.exit_code == 0
    assert "L=4595" in res.output


def test_bench_example_sweep_appends_csv(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    res = invoke(runner, "bench", "example", "--n", "2",
                 "--l-list", "4,8", "--metrics", str(out))
    assert res.exit_code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 3
    assert [r[CSV_COLUMNS.index("l")] for r in rows[1:]] == ["4", "8"]


def test_bench_example_requires_exactly_one_size_option(runner):
    assert invoke(runner, "bench", "example").exit_code == 2
    assert invoke(runner, "bench", "example", "--l", "4",
                  "--l-list", "4,8").exit_code == 2


def test_bench_example_rejects_odd_dimension(runner):
    res = invoke(runner, "bench", "example", "--n", "3", "--l", "4")
    assert res.exit_code == 1


def test_selftest_passes(runner):
    res = invoke(runner, "selftest")
    assert res.exit_code == 0
    assert "all self-tests passed" in res.output
    assert "FAIL" not in res.output
    # checkpoint == reverse and interrupt/resume soundness on each pipeline
    for p in ("a", "b"):
        assert [line for line in res.output.splitlines()
                if line.endswith(f"pipeline {p})")] == [
            f"ok   checkpoint == reverse (Logarithmic(), pipeline {p})",
            f"ok   checkpoint == reverse (FixedSpace(d=3), pipeline {p})",
            f"ok   interrupt/resume soundness (pipeline {p})"]
