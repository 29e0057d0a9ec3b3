import itertools
import random

import numpy as np
from hypothesis import example, given, settings

from conftest import elections, triples
from dodgson import (
    Confidence,
    DodgsonTriple,
    Election,
    SamplerConfig,
    bfs_swap_score,
    exact_dodgson_score,
    greedy_all_winners,
    greedy_score,
    greedy_winner,
    pair_condition_holds,
    pairwise_stats,
    sample_stream,
)
from dodgson.election import adjacency_counts, preference_counts
from dodgson.greedy import score_from_stats

D = Confidence.DEFINITELY
M = Confidence.MAYBE


class TestGreedyScore:
    def test_condorcet_winner_scores_zero(self, sixty_forty):
        res = greedy_score(DodgsonTriple(sixty_forty, 4))
        assert (res.score, res.confidence) == (0, D)

    def test_five_type_overestimates_with_maybe(self, five_type):
        # deficits 20/20/-20 against b/c/d; c is never adjacent above a, so
        # the certificate degrades and the score lands one above the true 22
        res = greedy_score(DodgsonTriple(five_type, 1))
        assert (res.score, res.confidence) == (23, M)
        assert exact_dodgson_score(DodgsonTriple(five_type, 1)) == 22

    def test_single_candidate(self):
        e = Election(1, ((1,),) * 5)
        res = greedy_score(DodgsonTriple(e, 1))
        assert (res.score, res.confidence) == (0, D)

    def test_two_candidates_is_exact(self):
        e = Election(2, ((1, 2), (1, 2)))
        res = greedy_score(DodgsonTriple(e, 1))
        assert (res.score, res.confidence) == (2, D)
        assert exact_dodgson_score(DodgsonTriple(e, 1)) == 2

    def test_sixty_forty_all_candidates(self, sixty_forty):
        # frozen from hand-executing the counting pass per candidate
        results = {c: greedy_score(DodgsonTriple(sixty_forty, c)) for c in range(1, 5)}
        assert (results[1].score, results[1].confidence) == (75, M)
        assert (results[2].score, results[2].confidence) == (23, M)
        assert (results[3].score, results[3].confidence) == (51, D)
        assert (results[4].score, results[4].confidence) == (0, D)

    @given(triples())
    def test_score_formula(self, tc):
        e, c = tc
        stats = pairwise_stats(DodgsonTriple(e, c))
        res = greedy_score(DodgsonTriple(e, c))
        base = sum(z // 2 + 1 for z in stats.deficit.values() if z >= 0)
        saturated = sum(
            1 for d, z in stats.deficit.items() if z >= 0 and z >= 2 * stats.swaps[d]
        )
        assert res.score == base + saturated
        assert (res.confidence is D) == (saturated == 0)

    @given(triples(max_m=4, max_n=6))
    def test_reorder_invariance(self, tc):
        # both the score and the tag are functions of the tallies alone
        e, c = tc
        votes = list(e.votes)
        rng = random.Random(0)
        for _ in range(5):
            rng.shuffle(votes)
            assert greedy_score(DodgsonTriple(Election(e.m, tuple(votes)), c)) == \
                greedy_score(DodgsonTriple(e, c))


class TestSelfKnowingCorrectness:
    def test_exhaustive_m3_n2(self):
        perms = list(itertools.permutations((1, 2, 3)))
        for prof in itertools.product(perms, repeat=2):
            e = Election(3, prof)
            for c in (1, 2, 3):
                res = greedy_score(DodgsonTriple(e, c))
                if res.confidence is D:
                    assert res.score == bfs_swap_score(DodgsonTriple(e, c))

    def test_random_definite_scores_are_exact(self):
        rng = random.Random(4)
        for _ in range(300):
            m, n = rng.randint(2, 5), rng.randint(1, 9)
            cfg = SamplerConfig(m, n, rng.getrandbits(64))
            e = next(iter(sample_stream(cfg, 1)))
            c = rng.randint(1, m)
            res = greedy_score(DodgsonTriple(e, c))
            if res.confidence is D:
                assert res.score == exact_dodgson_score(DodgsonTriple(e, c))

    def test_sufficient_tally_conditions_imply_definite(self):
        # when every pair of the candidate meets the tally conditions the
        # greedy score must certify itself
        rng = random.Random(7)
        fired = 0
        for _ in range(300):
            m, n = rng.randint(2, 3), rng.randint(8, 40)
            e = next(iter(sample_stream(SamplerConfig(m, n, rng.getrandbits(64)), 1)))
            for c in e.candidates:
                triple = DodgsonTriple(e, c)
                if all(pair_condition_holds(triple, d) for d in e.candidates if d != c):
                    fired += 1
                    assert greedy_score(triple).confidence is D
        assert fired > 50  # the check must not be vacuous


class TestGreedyWinner:
    def test_cycle_all_winners_definite(self, cycle):
        for c in (1, 2, 3):
            res = greedy_winner(DodgsonTriple(cycle, c))
            assert (res.winner, res.confidence) == (True, D)

    def test_single_candidate(self):
        res = greedy_winner(DodgsonTriple(Election(1, ((1,),)), 1))
        assert (res.winner, res.confidence) == (True, D)

    def test_sixty_forty_winner_d_confidence_is_global(self, sixty_forty):
        # d's own score is (0, definitely) but candidate a's subcall is
        # uncertain (its deficits against c and d have no adjacent swaps),
        # so the winner answer is yes with overall confidence maybe
        res = greedy_winner(DodgsonTriple(sixty_forty, 4))
        assert (res.winner, res.confidence) == (True, M)
        for c in (1, 2, 3):
            assert greedy_winner(DodgsonTriple(sixty_forty, c)).winner is False

    @given(triples(max_m=4, max_n=5))
    @settings(max_examples=60)
    def test_matches_per_candidate_scores(self, tc):
        e, c = tc
        res = greedy_winner(DodgsonTriple(e, c))
        scores = {d: greedy_score(DodgsonTriple(e, d)) for d in e.candidates}
        cscore = scores[c].score
        assert res.winner == all(s.score >= cscore for s in scores.values())
        expect_def = all(s.confidence is D for s in scores.values())
        assert (res.confidence is D) == expect_def

    def test_definite_answers_match_oracle_exhaustively(self):
        perms = list(itertools.permutations((1, 2)))
        for n in (1, 2, 3, 4, 5):
            for prof in itertools.product(perms, repeat=n):
                e = Election(2, prof)
                exact = {c: exact_dodgson_score(DodgsonTriple(e, c)) for c in (1, 2)}
                best = min(exact.values())
                for c in (1, 2):
                    res = greedy_winner(DodgsonTriple(e, c))
                    if res.confidence is D:
                        assert res.winner == (exact[c] == best)


class TestGreedyAllWinners:
    def test_sixty_forty(self, sixty_forty):
        res = greedy_all_winners(sixty_forty)
        assert res.winners == frozenset({4})
        assert res.confidence is M  # candidate a's score call is uncertain

    def test_cycle(self, cycle):
        res = greedy_all_winners(cycle)
        assert res.winners == frozenset({1, 2, 3})
        assert res.confidence is D

    def test_single_candidate(self):
        res = greedy_all_winners(Election(1, ((1,),) * 3))
        assert res.winners == frozenset({1})
        assert res.confidence is D

    @given(elections(max_m=5, max_n=6))
    @settings(max_examples=60)
    def test_agrees_with_per_candidate_calls(self, e):
        res = greedy_all_winners(e)
        scores = {c: greedy_score(DodgsonTriple(e, c)) for c in e.candidates}
        best = min(s.score for s in scores.values())
        assert res.winners == frozenset(c for c, s in scores.items() if s.score == best)
        expect_def = all(s.confidence is D for s in scores.values())
        assert (res.confidence is D) == expect_def

    def test_definite_set_is_exact_winner_set(self):
        # n=3: odd deficits leave room for fully certified profiles
        perms = list(itertools.permutations((1, 2, 3)))
        checked = 0
        for prof in itertools.product(perms, repeat=3):
            e = Election(3, prof)
            res = greedy_all_winners(e)
            if res.confidence is D:
                exact = {c: exact_dodgson_score(DodgsonTriple(e, c)) for c in e.candidates}
                best = min(exact.values())
                assert res.winners == frozenset(c for c in e.candidates if exact[c] == best)
                checked += 1
        assert checked > 0


def test_score_from_stats_is_pure():
    from dodgson import PairwiseStats

    stats = PairwiseStats({2: 4, 3: -1}, {2: 3, 3: 0})
    res = score_from_stats(stats)
    assert (res.score, res.confidence) == (3, D)
    stats2 = PairwiseStats({2: 4, 3: -1}, {2: 2, 3: 0})
    res2 = score_from_stats(stats2)
    assert (res2.score, res2.confidence) == (4, M)


def assert_maybe_iff_a_long_way_above(e):
    # b[c-1, d-1] counts the votes with d above c but not directly above it;
    # c's greedy score is maybe iff 2b >= n for some adversary d
    b = preference_counts(e.ranks).T - adjacency_counts(e.ranks)
    short = 2 * b >= e.n
    np.fill_diagonal(short, False)
    for c in e.candidates:
        assert (greedy_score(DodgsonTriple(e, c)).confidence is M) == short[c - 1].any()


@given(elections(max_m=9, max_n=40))
@example(Election(3, ((1, 2, 3), (3, 2, 1))))  # 2b == n: the deficit equals 2 * swaps
def test_maybe_iff_some_adversary_is_a_long_way_above(e):
    assert_maybe_iff_a_long_way_above(e)


def test_maybe_identity_exhaustively_m3_n3():
    perms = list(itertools.permutations((1, 2, 3)))
    maybe = 0
    for prof in itertools.product(perms, repeat=3):
        e = Election(3, prof)
        assert_maybe_iff_a_long_way_above(e)
        maybe += any(greedy_score(DodgsonTriple(e, c)).confidence is M for c in e.candidates)
    assert maybe == 96  # the golden exhaustive maybe_count
