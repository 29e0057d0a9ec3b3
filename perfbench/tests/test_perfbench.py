"""Tests of the benchmark itself: golden counts through the workload code,
output checks that catch corrupted results, tracing, and the result contract.

Run from the root of the repository with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import run
import tracing
import workloads
from workloads import BallotFile, Montecarlo, OracleCheck, Ops

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- golden counts (ROADMAP) through the workload code ------------------------


@pytest.mark.parametrize("m, n, expected", [(3, 25, (2, 9181)), (3, 100, (0, 2880)),
                                            (3, 400, (0, 28))])
def test_experiment_reproduces_golden_counts(lib, m, n, expected):
    report = workloads.experiment(lib, m, n, 10_000, 0)
    assert workloads.check_experiment(report, m, n, 10_000, 0) is None
    assert (report["maybe_count"], report["pairfail_count"]) == expected


def test_exhaustive_m3_n3_reproduces_golden_counts(lib):
    assert workloads.exhaustive_counts(lib) == (96, 216, 216)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), cell=st.sampled_from([(3, 25), (3, 6), (4, 12)]))
def test_replay_counts_equal_run_trials_counts(seed, cell):
    # small n makes 'maybe' trials common, so both counts are exercised
    m, n = cell
    lib = run.load_library()
    report = workloads.experiment(lib, m, n, 30, seed)
    records = workloads.replay(lib, m, n, 30, seed)
    reference = (report["maybe_count"], report["pairfail_count"])
    assert workloads.replay_counts(records) == reference
    assert workloads.check_replay(records, reference) is None


# -- every workload passes its own checks; one corrupted output is counted ---


def small(name, lib, tmp_path, ops):
    if name == "montecarlo":
        return Montecarlo(lib, 3, ops, tmp_path, cells=((3, 25, 30), (4, 60, 5)), runs=2)
    if name == "ballot_file":
        return BallotFile(lib, 3, ops, tmp_path, m=6, n=50)
    return OracleCheck(lib, 3, ops, tmp_path, cells=((4, 12),), trials=2, triples=6)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_round_passes_all_checks(lib, tmp_path, name):
    ops = Ops()
    metrics = small(name, lib, tmp_path, ops).round(0)
    assert ops.failures == []
    assert ops.attempted > 0 and ops.failed_frac == 0
    assert metrics["round_s"] > 0


def corrupt_once(fn, corrupt):
    """``fn`` with only its first result passed through ``corrupt``."""
    calls = []

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append(None)
        return corrupt(out) if len(calls) == 1 else out
    return wrapper


@pytest.mark.parametrize("name, module, attr, corrupt", [
    # one experiment report with an extra 'maybe' trial: the replay disagrees
    ("montecarlo", "cli", "run_trials",
     lambda rep: dataclasses.replace(rep, maybe_count=rep.maybe_count + 1)),
    # one wrong score in the `score` command's JSON
    ("ballot_file", "cli", "greedy_score",
     lambda res: type(res)(res.score + 1, res.confidence)),
    # one decoded vote list reversed: the decoded ballot file differs
    ("ballot_file", "cli", "decode",
     lambda t: type(t)(type(t.election)(t.election.m, tuple(reversed(t.election.votes))),
                       t.candidate)),
    # one BFS score off by one: DP and BFS disagree on one triple
    ("oracle_check", "oracle", "bfs_swap_score", lambda s: s + 1),
])
def test_one_corrupted_output_is_counted_in_failed_frac(lib, tmp_path, name, module,
                                                        attr, corrupt):
    ops = Ops()
    workload = small(name, lib, tmp_path, ops)
    owner = getattr(lib, module)
    setattr(owner, attr, corrupt_once(getattr(owner, attr), corrupt))
    workload.round(0)
    assert ops.failed == 1, ops.failures
    assert ops.failed_frac == pytest.approx(1 / ops.attempted)


def test_operation_that_raises_is_counted(lib, tmp_path):
    ops = Ops()
    workload = small("oracle_check", lib, tmp_path, ops)

    def broken(*args, **kwargs):
        raise lib.bounds.SelfCheckError("injected")
    lib.bounds.run_trials = broken
    workload.round(0)
    assert ops.failed == 2  # the sampled cell and the exhaustive run
    assert any("SelfCheckError: injected" in f for f in ops.failures)


# -- tracing -----------------------------------------------------------------


def test_tracer_rebinds_every_name_and_restores_them(lib):
    original = lib.bounds.preference_counts
    assert lib.greedy.preference_counts is original is lib.election.preference_counts
    tracer = tracing.Tracer(lib)
    workload = Montecarlo(lib, 1, Ops(tracer), Path("."), cells=((3, 20, 5),), runs=1)
    tracer.install()
    try:
        for ns in (lib.bounds, lib.greedy, lib.election):
            assert ns.preference_counts is not original
            assert ns.preference_counts.__wrapped__ is original
        assert lib.cli.parse_ballots.__wrapped__ is lib.ballots.parse_ballots.__wrapped__
        workload.round(0)
    finally:
        tracer.uninstall()
    assert lib.bounds.preference_counts is original
    assert not hasattr(lib.greedy.greedy_score, "__wrapped__")
    assert "__wrapped__" not in vars(lib.election.Election.__init__)

    totals = tracer.layer_totals()
    assert totals["election.preference_counts"][0] == 5  # one per run_trials trial
    assert totals["greedy.greedy_winner"][0] == 5  # one per replayed trial
    assert totals["election.Election"][0] >= 5
    for calls, busy, own in totals.values():
        assert own <= busy + 1e-9
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(own for _, _, own in totals.values()) == pytest.approx(roots)
    # run_trials scores 3 candidates per trial; the replay scores them once
    # directly and once more inside greedy_winner
    assert tracer.scores == 5 * 3 + 5 * 6
    assert tracer.definite_scores <= tracer.scores
    assert totals[tracing.OP][0] == 2  # the experiment and the replay


def test_tracer_counts_distinct_oracle_work(lib, tmp_path):
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        lib.bounds.run_trials(lib.bounds.BoundParams(3, 9), 3, 0, oracle=True)
    finally:
        tracer.uninstall()
    # with every score definite, run_trials and dodgson_winners both solve it
    assert tracer.oracle_calls > len(tracer.oracle_keys) > 0
    assert tracer.budget_exceeded == 0


# -- the result contract -----------------------------------------------------


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_holds_exactly_the_declared_metrics(trace, key):
    proc = run_bench(ROOT, "--workload", "oracle_check", "--seed", "0", "--seconds", "0",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_gated_metrics_match_benchmark_json():
    assert tuple(m["name"] for m in BENCHMARK["end_to_end"]) == run.GATED
    for metric in BENCHMARK["end_to_end"]:
        unit, better, bound = workloads.METRICS[metric["name"]]
        assert (metric["unit"], metric["better"], metric["bound"]) == (unit, better, bound)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", "montecarlo", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
