import csv
import json
import math

import pytest

from dodgson import (
    BoundParams,
    Confidence,
    DodgsonTriple,
    Election,
    SamplerConfig,
    SelfCheckError,
    bound_pair,
    bound_winner,
    greedy_score,
    pair_condition_holds,
    run_trials,
    sample_stream,
    substream_seed,
)
from dodgson import bounds
from dodgson.bounds import CSV_COLUMNS, write_csv, write_report
from dodgson.greedy import GreedyScoreResult


class TestBoundFormulas:
    def test_winner_bound_zero_for_single_candidate(self):
        assert bound_winner(BoundParams(1, 7)) == 0.0

    def test_winner_bound_m2_n200(self):
        # 2(m^2-m) e^(-n/8m^2) = 4 e^(-6.25)
        val = bound_winner(BoundParams(2, 200))
        assert val == pytest.approx(4 * math.exp(-6.25), rel=1e-12)
        assert val == pytest.approx(0.0077218165, abs=1e-9)

    def test_winner_bound_m3_n1000(self):
        val = bound_winner(BoundParams(3, 1000))
        assert val == pytest.approx(12 * math.exp(-1000 / 72), rel=1e-12)
        assert val == pytest.approx(1.11509904e-05, abs=1e-12)

    def test_pair_bound_m2_n200(self):
        val = bound_pair(BoundParams(2, 200))
        assert val == pytest.approx(2 * math.exp(-6.25), rel=1e-12)
        assert val == pytest.approx(0.0038609083, abs=1e-9)

    def test_pair_bound_vacuous_for_tiny_n(self):
        # > 1, reported as-is
        assert bound_pair(BoundParams(2, 1)) == pytest.approx(
            2 * math.exp(-1 / 32), rel=1e-12
        )
        assert bound_pair(BoundParams(2, 1)) > 1

    def test_pair_bound_rejects_single_candidate(self):
        with pytest.raises(ValueError):
            bound_pair(BoundParams(1, 10))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            BoundParams(0, 1)
        with pytest.raises(ValueError):
            BoundParams(1, 0)


class TestPairCondition:
    def test_unanimous_preference_fails(self):
        # all four votes prefer b: count 4 > (2mn+n)/4m = 2.5
        e = Election(2, ((1, 2),) * 4)
        assert pair_condition_holds(DodgsonTriple(e, 1), 2) is False

    def test_balanced_votes_hold(self):
        # two votes each way: 2 <= 2.5 and adjacency 2 >= 1.5
        e = Election(2, ((1, 2), (1, 2), (2, 1), (2, 1)))
        assert pair_condition_holds(DodgsonTriple(e, 1), 2) is True

    def test_rejects_self_pair(self):
        e = Election(2, ((1, 2),))
        with pytest.raises(ValueError):
            pair_condition_holds(DodgsonTriple(e, 1), 1)

    def test_exact_rational_boundary(self):
        # m=2, n=8: threshold (2mn+n)/4m = 5 exactly; count 5 passes, 6 fails
        e5 = Election(2, ((1, 2),) * 5 + ((2, 1),) * 3)
        e6 = Election(2, ((1, 2),) * 6 + ((2, 1),) * 2)
        assert pair_condition_holds(DodgsonTriple(e5, 1), 2) is True
        assert pair_condition_holds(DodgsonTriple(e6, 1), 2) is False


class TestRunTrials:
    def test_single_candidate_trivial(self):
        rep = run_trials(BoundParams(1, 5), 100, seed=0)
        assert (rep.maybe_count, rep.pairfail_count, rep.mismatch_count) == (0, 0, 0)
        assert rep.bound_pair is None
        assert rep.trials == 100

    def test_exhaustive_m3_n2_with_oracle(self):
        rep = run_trials(BoundParams(3, 2), 1, seed=0, oracle=True, exhaustive=True)
        assert rep.trials == 36
        assert rep.mismatch_count == 0

    def test_exhaustive_cap(self):
        from dodgson import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            run_trials(BoundParams(4, 6), 1, seed=0, exhaustive=True)

    def test_exhaustive_cap_never_builds_the_count(self):
        from dodgson import BudgetExceededError

        # (10!)^1000 has 6560 digits, too many to print as an integer
        with pytest.raises(BudgetExceededError, match=r"exhaustive mode.*10\^6559\.8"):
            run_trials(BoundParams(10, 1000), 1, seed=0, exhaustive=True)

    def test_deterministic_given_seed(self):
        a = run_trials(BoundParams(3, 25), 500, seed=9)
        b = run_trials(BoundParams(3, 25), 500, seed=9)
        assert (a.maybe_count, a.pairfail_count) == (b.maybe_count, b.pairfail_count)

    def test_counts_match_direct_recomputation(self):
        # independent pass over the same substreams using the scalar API,
        # iterated in reverse trial order (the counters are commutative sums)
        params, trials, seed = BoundParams(3, 9), 400, 13
        rep = run_trials(params, trials, seed, oracle=True)
        maybe = pairfail = 0
        elections = list(sample_stream(SamplerConfig(params.m, params.n, seed), trials))
        for e in reversed(elections):
            results = [greedy_score(DodgsonTriple(e, c)) for c in e.candidates]
            if any(r.confidence is Confidence.MAYBE for r in results):
                maybe += 1
            if any(
                not pair_condition_holds(DodgsonTriple(e, c), d)
                for c in e.candidates
                for d in e.candidates
                if c != d
            ):
                pairfail += 1
        assert (rep.maybe_count, rep.pairfail_count) == (maybe, pairfail)

    def test_oracle_budget_propagates(self):
        from dodgson import BudgetExceededError

        # with m=2 the losing candidate always needs at least one flip, so a
        # one-state budget must trip on the first oracle call
        with pytest.raises(BudgetExceededError):
            run_trials(BoundParams(2, 10), 1, seed=0, oracle=True, oracle_budget=1)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_trials(BoundParams(2, 2), 0, seed=0)

    def test_exhaustive_ignores_trials(self):
        rep = run_trials(BoundParams(3, 3), 0, 0, exhaustive=True)
        assert (rep.maybe_count, rep.pairfail_count, rep.trials) == (96, 216, 216)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_exhaustive_checks_the_seed_as_sampling_does(self, seed):
        for exhaustive in (False, True):
            with pytest.raises(ValueError, match="unsigned 64-bit"):
                run_trials(BoundParams(3, 3), 1, seed, exhaustive=exhaustive)


def first_trial(m, n, seed, trials, has_event):
    """Index of the first sampled election of a run for which has_event holds."""
    stream = sample_stream(SamplerConfig(m, n, seed), trials)
    return next(i for i, e in enumerate(stream) if has_event(e))


class TestSelfCheckErrors:
    """Every self-check error names the trial and how to regenerate its election."""

    def test_oracle_mismatch_names_first_bad_trial(self, monkeypatch):
        monkeypatch.setattr(bounds, "exact_dodgson_score", lambda *args, **kwargs: -1)
        m, n, seed = 4, 6, 21
        with pytest.raises(SelfCheckError) as info:
            run_trials(BoundParams(m, n), 20, seed, oracle=True)
        i = first_trial(m, n, seed, 20, lambda e: any(
            greedy_score(DodgsonTriple(e, c)).confidence is Confidence.DEFINITELY
            for c in e.candidates))
        msg = str(info.value)
        assert f"trial {i}, substream seed {substream_seed(seed, i)}," in msg
        assert f"m={m}, n={n}, seed={seed}" in msg

    def test_oracle_mismatch_in_exhaustive_run_names_profile(self, monkeypatch):
        monkeypatch.setattr(bounds, "exact_dodgson_score", lambda *args, **kwargs: -1)
        # the first multiset is two votes 1<2<3: candidate 3 is a definite Condorcet winner
        with pytest.raises(SelfCheckError) as info:
            run_trials(BoundParams(3, 2), 1, 5, oracle=True, exhaustive=True)
        assert str(info.value).endswith(
            "first in trial 0, ballots [[3, 2, 1], [3, 2, 1]], m=3, n=2, seed=5")

    def test_implication_failure_names_trial(self, monkeypatch):
        maybe = GreedyScoreResult(0, Confidence.MAYBE)
        monkeypatch.setattr(bounds, "_score_all", lambda pref, adj: [maybe] * len(pref))
        m, n, seed = 2, 40, 3
        with pytest.raises(SelfCheckError, match="greedy confidence is 'maybe'") as info:
            run_trials(BoundParams(m, n), 50, seed)
        i = first_trial(m, n, seed, 50, lambda e: pair_condition_holds(DodgsonTriple(e, 1), 2)
                        or pair_condition_holds(DodgsonTriple(e, 2), 1))
        assert f"(trial {i}, substream seed {substream_seed(seed, i)}, m=2, n=40, seed=3)" \
            in str(info.value)


class TestReportSerialization:
    def test_json_field_names(self, tmp_path):
        rep = run_trials(BoundParams(2, 10), 50, seed=4)
        path = tmp_path / "report.json"
        write_report([rep], path)
        data = json.loads(path.read_text())
        assert set(data) == {
            "m", "n", "trials", "seed", "maybe_count", "pairfail_count",
            "mismatch_count", "bound_winner", "bound_pair", "wall_time",
        }
        assert data["m"] == 2 and data["trials"] == 50 and data["seed"] == 4

    def test_csv_columns_and_row(self, tmp_path):
        rep = run_trials(BoundParams(2, 10), 50, seed=4)
        path = tmp_path / "report.csv"
        write_csv([rep], path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert rows[1][0] == "2" and rows[1][2] == "50"
        assert float(rows[1][4]) == rep.maybe_freq

    def test_m1_csv_has_empty_pair_bound(self, tmp_path):
        rep = run_trials(BoundParams(1, 3), 5, seed=0)
        path = tmp_path / "r.csv"
        write_csv([rep], path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[1][CSV_COLUMNS.index("bound_pair")] == ""
