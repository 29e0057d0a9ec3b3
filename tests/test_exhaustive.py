"""Exhaustive mode of ``run_trials``: one election per vote multiset.

Every count depends on a profile only through how many votes hold each
ranking, so ``run_trials(..., exhaustive=True)`` scores each multiset once
and weights it by its multinomial count of orderings.  These tests hold it
to the one-profile-at-a-time walk in ``reference_tally``, to golden counts
at the edge of the profile cap, to a closed form, and to the ballots that
each self-check error prints.
"""

import itertools
import json
import math
import re

import pytest

import reference_tally as ref
from dodgson import (BoundParams, Confidence, DodgsonTriple, Election, ScoreMode,
                     SelfCheckError, greedy_score, pair_condition_holds, run_trials)
from dodgson import bounds, oracle
from dodgson.election import adjacency_counts, preference_counts
from dodgson.bounds import EXHAUSTIVE_PROFILE_CAP
from dodgson.greedy import GreedyScoreResult

# every shape with (m!)^n <= 5000; the oracle runs where (m!)^n <= 720
SHAPES = ([(1, n) for n in (1, 2, 3)] + [(2, n) for n in range(1, 13)]
          + [(3, n) for n in range(1, 5)] + [(4, 1), (4, 2), (5, 1), (6, 1)])

# (m, n) -> (maybe_count, pairfail_count, trials), measured one profile at a time
CAP_EDGE = {
    (2, 19): (0, 188368, 524288),
    (3, 7): (29616, 264816, 279936),
    (4, 4): (331632, 331632, 331776),
}


def exhaustive(m, n, oracle=False, seed=0):
    return run_trials(BoundParams(m, n), 1, seed, oracle=oracle, exhaustive=True)


def profiles(m, n):
    """Every n-vote election over m candidates, in profile-index order."""
    perms = list(itertools.permutations(range(1, m + 1)))
    return [Election(m, votes) for votes in itertools.product(perms, repeat=n)]


@pytest.mark.parametrize("m, n", SHAPES)
def test_multiset_walk_matches_per_profile_reference(m, n):
    with_oracle = math.factorial(m) ** n <= 720
    rep = exhaustive(m, n, with_oracle)
    got = (rep.trials, rep.maybe_count, rep.pairfail_count, rep.mismatch_count)
    assert got == ref.exhaustive_counts(m, n, with_oracle)


@pytest.mark.parametrize("m, n", sorted(CAP_EDGE))
def test_golden_counts_at_the_cap_edge(m, n):
    assert math.factorial(m) ** n <= EXHAUSTIVE_PROFILE_CAP < math.factorial(m) ** (n + 1)
    rep = exhaustive(m, n, oracle=(m, n) != (4, 4))
    assert (rep.maybe_count, rep.pairfail_count, rep.trials) == CAP_EDGE[m, n]
    assert rep.mismatch_count == 0


def m3_maybe_count(n):
    """Profiles of n votes over 3 candidates in which some candidate is 'maybe'.

    c is 'maybe' iff some d sits above c, not directly, in at least n/2 votes.
    At m=3 that is d on top and c at the bottom, one of the six rankings, and
    each vote does this for one ordered pair only.  So two pairs reach n/2
    together only when n is even and the votes split n/2 : n/2 between their
    two rankings, which the sum over the six pairs counts twice.
    """
    one_pair = sum(math.comb(n, k) * 5 ** (n - k) for k in range((n + 1) // 2, n + 1))
    two_pairs = math.comb(6, 2) * math.comb(n, n // 2) if n % 2 == 0 else 0
    return 6 * one_pair - two_pairs


@pytest.mark.parametrize("n, expected", [(1, 6), (3, 96), (5, 1656), (7, 29616)])
def test_m3_odd_n_maybe_count_closed_form(n, expected):
    # for odd n at most one pair can reach more than n/2 votes: the six pair
    # events are disjoint
    assert m3_maybe_count(n) == expected
    assert exhaustive(3, n).maybe_count == expected


@pytest.mark.parametrize("n, expected", [(2, 36), (4, 936), (6, 17136)])
def test_m3_even_n_maybe_count_closed_form(n, expected):
    # a '>' for '>=' in the greedy's short test leaves every odd n as it is
    # but reads 6, 126 and 2436 here
    assert m3_maybe_count(n) == expected
    assert exhaustive(3, n).maybe_count == expected


@pytest.mark.parametrize("n, observed", [(10, 882), (11, 239), (25, 2)])
def test_m3_sampled_maybe_count_within_five_sigma_of_the_closed_form(n, observed):
    trials = 10_000
    p = m3_maybe_count(n) / 6**n
    count = run_trials(BoundParams(3, n), trials, 0).maybe_count
    assert abs(count - trials * p) <= 5 * math.sqrt(trials * p * (1 - p))
    assert count == observed


def walk_position(e):
    """Where the walk meets e's vote multiset, and the ballots an error prints for it.

    The walk takes multisets in ``combinations_with_replacement`` order over
    the rankings; the ballots are the multiset's votes sorted, most preferred
    first.
    """
    perms = list(itertools.permutations(range(1, e.m + 1)))
    combo = tuple(sorted(perms.index(vote) for vote in e.votes))
    k = list(itertools.combinations_with_replacement(range(len(perms)), e.n)).index(combo)
    return k, [list(perms[j][::-1]) for j in combo]


def printed_election(message):
    """The election whose ballots an exhaustive self-check error prints."""
    ballots = json.loads(re.search(r"ballots (\[\[.*?\]\]),", message).group(1))
    return Election(len(ballots[0]), [tuple(reversed(b)) for b in ballots])


def distinct_votes(e):
    """No two votes are the same ranking; profile 0 (every vote 1<2<3) is not."""
    return len(set(e.votes)) == e.n


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_mismatch_names_least_failing_profile_and_counts_all(monkeypatch, n):
    real = bounds.exact_dodgson_score

    def wrong_on_distinct_votes(triple, *args, **kwargs):
        return -1 if distinct_votes(triple.election) else real(triple, *args, **kwargs)

    monkeypatch.setattr(bounds, "exact_dodgson_score", wrong_on_distinct_votes)
    failing = [i for i, e in enumerate(profiles(3, n)) if distinct_votes(e) and any(
        greedy_score(DodgsonTriple(e, c)).confidence is Confidence.DEFINITELY
        for c in e.candidates)]
    assert failing[0] > 0
    k, ballots = walk_position(profiles(3, n)[failing[0]])
    with pytest.raises(SelfCheckError) as info:
        exhaustive(3, n, oracle=True, seed=5)
    assert str(info.value) == (
        f"{len(failing)} definite greedy answers disagreed with the exact oracle; "
        f"the first in trial {k}, ballots {ballots}, m=3, n={n}, seed=5")


@pytest.mark.parametrize("n", [2, 3])
def test_implication_failure_names_least_failing_profile(monkeypatch, n):
    real = bounds._score_all
    maybe = GreedyScoreResult(0, Confidence.MAYBE)

    def maybe_when_1_beats_3_once(pref, adj):
        # profile 0 puts 3 over 1 in every vote
        return [maybe] * len(pref) if pref[0, 2] > 0 else real(pref, adj)

    monkeypatch.setattr(bounds, "_score_all", maybe_when_1_beats_3_once)
    failing = [
        (i, c) for i, e in enumerate(profiles(3, n))
        if any(vote.index(1) > vote.index(3) for vote in e.votes)
        for c in e.candidates
        if all(pair_condition_holds(DodgsonTriple(e, c), d) for d in e.candidates if d != c)]
    i, c = failing[0]
    assert i > 0
    k, ballots = walk_position(profiles(3, n)[i])
    with pytest.raises(SelfCheckError) as info:
        exhaustive(3, n, seed=5)
    assert str(info.value) == (
        f"tally conditions hold for candidate {c} but greedy confidence is 'maybe' "
        f"(trial {k}, ballots {ballots}, m=3, n={n}, seed=5)")


def test_printed_ballots_fail_the_patched_check(monkeypatch):
    """Each self-check, patched to fail, fails again on the ballots its error prints."""
    real_score, real_all = bounds.exact_dodgson_score, bounds._score_all
    maybe = GreedyScoreResult(0, Confidence.MAYBE)

    def wrong_on_distinct_votes(triple, *args, **kwargs):
        return -1 if distinct_votes(triple.election) else real_score(triple, *args, **kwargs)

    monkeypatch.setattr(bounds, "exact_dodgson_score", wrong_on_distinct_votes)
    with pytest.raises(SelfCheckError, match="disagreed with the exact oracle") as info:
        exhaustive(3, 3, oracle=True)
    e = printed_election(str(info.value))
    assert any(greedy_score(t).confidence is Confidence.DEFINITELY
               and greedy_score(t).score != bounds.exact_dodgson_score(t, ScoreMode.STRICT)
               for t in map(DodgsonTriple, [e] * e.m, e.candidates))

    monkeypatch.setattr(bounds, "_score_all", lambda pref, adj: (
        [maybe] * len(pref) if pref[0, 2] > 0 else real_all(pref, adj)))
    with pytest.raises(SelfCheckError, match="greedy confidence is 'maybe'") as info:
        exhaustive(3, 3)
    e = printed_election(str(info.value))
    results = bounds._score_all(preference_counts(e.ranks), adjacency_counts(e.ranks))
    assert any(results[c - 1].confidence is Confidence.MAYBE
               and all(pair_condition_holds(DodgsonTriple(e, c), d)
                       for d in e.candidates if d != c)
               for c in e.candidates)


def test_exhaustive_oracle_solves_each_multiset_once(monkeypatch):
    real = oracle.exact_dodgson_score
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(bounds, "exact_dodgson_score", counted)
    monkeypatch.setattr(oracle, "exact_dodgson_score", counted)  # dodgson_winners' solves
    rep = exhaustive(3, 3, oracle=True)
    assert (rep.maybe_count, rep.pairfail_count, rep.trials) == (96, 216, 216)
    # 56 multisets of 3 votes over 6 rankings, at most 2m solves each; the
    # per-profile walk made about 900
    assert 0 < calls <= math.comb(6 + 3 - 1, 3) * 6
