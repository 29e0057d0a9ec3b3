import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import triples
from dodgson import (
    BoundParams,
    BudgetExceededError,
    Confidence,
    DodgsonTriple,
    Election,
    SamplerConfig,
    ScoreMode,
    bfs_swap_score,
    condorcet_winner,
    dodgson_winners,
    exact_dodgson_score,
    flips_needed,
    greedy_score,
    run_trials,
    sample_election,
    sample_stream,
)
from dodgson import election, oracle
from dodgson.oracle import profile_count

STRICT = ScoreMode.STRICT
TIE = ScoreMode.TIE_OR_BEAT


class TestFlipsNeeded:
    def test_strict_vs_tie_gap(self):
        # even deficits need one extra flip under the strict goal
        assert flips_needed(-3, STRICT) == flips_needed(-3, TIE) == 0
        assert flips_needed(0, STRICT) == 1 and flips_needed(0, TIE) == 0
        assert flips_needed(1, STRICT) == 1 and flips_needed(1, TIE) == 1
        assert flips_needed(2, STRICT) == 2 and flips_needed(2, TIE) == 1
        assert flips_needed(5, STRICT) == 3 and flips_needed(5, TIE) == 3
        assert flips_needed(6, STRICT) == 4 and flips_needed(6, TIE) == 3


class TestExactScore:
    def test_sixty_forty_d_is_condorcet(self, sixty_forty):
        assert exact_dodgson_score(DodgsonTriple(sixty_forty, 4)) == 0

    def test_five_type_a_scores_twentytwo(self, five_type):
        assert exact_dodgson_score(DodgsonTriple(five_type, 1)) == 22

    def test_sixty_forty_a(self, sixty_forty):
        # 11 double lifts past b,c plus 40 more single swaps against b
        assert exact_dodgson_score(DodgsonTriple(sixty_forty, 1)) == 73

    def test_cycle_everyone_scores_one(self, cycle):
        for c in (1, 2, 3):
            assert exact_dodgson_score(DodgsonTriple(cycle, c)) == 1

    def test_two_candidate_mode_gap(self):
        e = Election(2, ((1, 2), (1, 2)))
        assert exact_dodgson_score(DodgsonTriple(e, 1), STRICT) == 2
        assert exact_dodgson_score(DodgsonTriple(e, 1), TIE) == 1

    def test_budget_error_never_builds_the_state_count(self):
        # candidate 1 is last on the one ballot: 2^14999 states, 4516 digits
        e = Election(15000, (tuple(range(1, 15001)),))
        with pytest.raises(BudgetExceededError, match=r"DP state space.*10\^4515\.1"):
            exact_dodgson_score(DodgsonTriple(e, 1))

    def test_budget_error(self, five_type):
        with pytest.raises(BudgetExceededError):
            exact_dodgson_score(DodgsonTriple(five_type, 1), state_budget=10)

    @given(triples(max_m=4, max_n=6))
    @settings(max_examples=60)
    def test_zero_iff_condorcet_winner(self, tc):
        e, c = tc
        score = exact_dodgson_score(DodgsonTriple(e, c))
        assert (score == 0) == (condorcet_winner(e) == c)

    @given(triples(max_m=4, max_n=6))
    @settings(max_examples=60)
    def test_mode_ordering(self, tc):
        e, c = tc
        strict = exact_dodgson_score(DodgsonTriple(e, c), STRICT)
        tie = exact_dodgson_score(DodgsonTriple(e, c), TIE)
        assert tie <= strict <= tie + (e.m - 1)

    @given(triples(max_m=4, max_n=6))
    @settings(max_examples=40)
    def test_relabeling_invariance(self, tc):
        e, c = tc
        perm = list(range(1, e.m + 1))
        random.Random(e.n).shuffle(perm)
        relabel = {old: perm[old - 1] for old in e.candidates}
        e2 = Election(e.m, tuple(tuple(relabel[x] for x in v) for v in e.votes))
        assert exact_dodgson_score(DodgsonTriple(e2, relabel[c])) == exact_dodgson_score(
            DodgsonTriple(e, c)
        )

    @given(triples(max_m=4, max_n=6))
    @settings(max_examples=40)
    def test_vote_reordering_invariance(self, tc):
        e, c = tc
        votes = list(e.votes)
        random.Random(1).shuffle(votes)
        e2 = Election(e.m, tuple(votes))
        assert exact_dodgson_score(DodgsonTriple(e2, c)) == exact_dodgson_score(
            DodgsonTriple(e, c)
        )


class TestBfsOracle:
    def test_cycle_distance_one(self, cycle):
        assert bfs_swap_score(DodgsonTriple(cycle, 1)) == 1

    def test_goal_at_depth_zero(self):
        e = Election(2, ((1, 2), (2, 1), (2, 1)))  # candidate 1 already wins
        assert bfs_swap_score(DodgsonTriple(e, 1)) == 0

    def test_single_candidate(self):
        assert bfs_swap_score(DodgsonTriple(Election(1, ((1,),)), 1)) == 0

    def test_budget_precondition(self):
        e = Election(5, tuple((1, 2, 3, 4, 5) for _ in range(4)))  # 120^4 profiles
        with pytest.raises(BudgetExceededError):
            bfs_swap_score(DodgsonTriple(e, 1))

    def test_configurable_budget(self, cycle):
        with pytest.raises(BudgetExceededError):
            bfs_swap_score(DodgsonTriple(cycle, 1), profile_budget=100)

    def test_budget_error_gives_the_excess(self):
        e = Election(10, tuple(tuple(range(1, 11)) for _ in range(1000)))
        with pytest.raises(BudgetExceededError, match=r"profile search.*10\^6559\.8.*10\^6553\.8"):
            bfs_swap_score(DodgsonTriple(e, 1))

    def test_reads_ranks_not_votes(self):
        e = Election(4, np.array([[1, 2, 3, 4], [2, 4, 1, 3], [4, 3, 2, 1]]))
        assert bfs_swap_score(DodgsonTriple(e, 1)) == 1  # 3 is just above 1 in vote 2
        assert "votes" not in vars(e)

    def test_independent_of_pairwise_stats(self, monkeypatch, cycle):
        # neither oracle reads the greedy's tally, and the BFS not the DP's positions
        def broken(*args, **kwargs):
            raise RuntimeError("shared scoring code called")

        monkeypatch.setattr(election, "pairwise_stats", broken)
        monkeypatch.setattr(oracle, "pairwise_stats", broken, raising=False)
        for c in cycle.candidates:
            for mode in (STRICT, TIE):
                assert exact_dodgson_score(DodgsonTriple(cycle, c), mode) == 1
                assert bfs_swap_score(DodgsonTriple(cycle, c), mode) == 1
        monkeypatch.setattr(Election, "positions", property(broken))
        for c in cycle.candidates:
            assert bfs_swap_score(DodgsonTriple(cycle, c)) == 1
            assert bfs_swap_score(DodgsonTriple(cycle, c), TIE) == 1

    def test_exhaustive_agreement_m3_n2(self):
        # every profile, every candidate, both modes: BFS == DP
        perms = list(itertools.permutations((1, 2, 3)))
        for prof in itertools.product(perms, repeat=2):
            e = Election(3, prof)
            for c in (1, 2, 3):
                for mode in (STRICT, TIE):
                    t = DodgsonTriple(e, c)
                    assert bfs_swap_score(t, mode) == exact_dodgson_score(t, mode)

    def test_random_agreement(self):
        rng = random.Random(99)
        for _ in range(60):
            m = rng.choice((2, 3, 4, 5))  # both modes stay covered at m=5
            n = rng.randint(1, {2: 9, 3: 6, 4: 3, 5: 2}[m])
            e = next(iter(sample_stream(SamplerConfig(m, n, rng.getrandbits(64)), 1)))
            c = rng.randint(1, m)
            for mode in (STRICT, TIE):
                t = DodgsonTriple(e, c)
                assert bfs_swap_score(t, mode) == exact_dodgson_score(t, mode)


class TestProfileCount:
    def test_exact_within_the_cap(self):
        assert profile_count(3, 3, 216, "test") == 216
        assert profile_count(4, 2, 10**6, "test") == 576

    def test_one_over_the_cap_raises(self):
        with pytest.raises(BudgetExceededError, match="test needs"):
            profile_count(3, 3, 215, "test")

    def test_single_candidate_has_one_profile(self):
        assert profile_count(1, 10**12, 1, "test") == 1

    def test_huge_spaces_are_never_built(self):
        # (2!)^(10^12) has about 3e11 digits; building it would not finish
        with pytest.raises(BudgetExceededError, match=r"10\^301029995664\.0"):
            profile_count(2, 10**12, 10**6, "test")
        with pytest.raises(BudgetExceededError):
            profile_count(10**5, 10**12, 0, "test")


class TestDodgsonWinners:
    def test_sixty_forty(self, sixty_forty):
        assert dodgson_winners(sixty_forty) == frozenset({4})

    def test_cycle_three_way_tie(self, cycle):
        assert dodgson_winners(cycle) == frozenset({1, 2, 3})

    def test_single_candidate(self):
        assert dodgson_winners(Election(1, ((1,),) * 2)) == frozenset({1})

    def test_propagates_budget_error(self, five_type):
        with pytest.raises(BudgetExceededError):
            dodgson_winners(five_type, state_budget=10)

    def test_greedy_definite_argmin_matches(self, cycle):
        results = {c: greedy_score(DodgsonTriple(cycle, c)) for c in cycle.candidates}
        assert all(r.confidence is Confidence.DEFINITELY for r in results.values())
        best = min(r.score for r in results.values())
        assert dodgson_winners(cycle) == frozenset(
            c for c, r in results.items() if r.score == best
        )


class TestScaleGoldens:
    """Values computed with the original dict-of-states DP, at sizes it took minutes on."""

    def test_winners_m8_n40(self):
        assert dodgson_winners(sample_election(SamplerConfig(8, 40, 0))) == frozenset({2})

    def test_winners_m6_n200(self):
        assert dodgson_winners(sample_election(SamplerConfig(6, 200, 1))) == frozenset({4})

    def test_oracle_trials_m6_n200(self):
        rep = run_trials(BoundParams(6, 200), 3, 0, oracle=True)
        assert (rep.maybe_count, rep.pairfail_count, rep.mismatch_count) == (0, 3, 0)
