"""Brute-force reference implementations of the per-candidate tallies.

These are the original one-vote-at-a-time versions of
:func:`dodgson.election.pairwise_stats`,
:func:`dodgson.election.preference_counts`,
:func:`dodgson.election.condorcet_winner` and
:func:`dodgson.bounds.pair_condition_holds`, and the original
candidate-by-candidate loop of :func:`dodgson.greedy.greedy_winner`, and
the one-profile-at-a-time walk of :func:`dodgson.bounds.run_trials` with
``exhaustive=True``.  The implementations in the package must agree with
them on every election, candidate and adversary, and on every exhaustive
count.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from dodgson import election
from dodgson.bounds import _pair_condition_matrix
from dodgson.election import DodgsonTriple, Election, PairwiseStats
from dodgson.greedy import Confidence, GreedyWinnerResult, _score_all, _winner_set, greedy_score
from dodgson.oracle import ScoreMode, dodgson_winners, exact_dodgson_score


def pairwise_stats(triple: DodgsonTriple) -> PairwiseStats:
    """Deficits and greedy-swap opportunities in one pass over the votes."""
    e, c = triple.election, triple.candidate
    deficit = {d: 0 for d in e.candidates if d != c}
    swaps = dict.fromkeys(deficit, 0)
    m = e.m
    for vote in e.votes:
        i = 0
        while vote[i] != c:
            deficit[vote[i]] -= 1
            i += 1
        if i + 1 < m:
            swaps[vote[i + 1]] += 1
        for j in range(i + 1, m):
            deficit[vote[j]] += 1
    return PairwiseStats(deficit, swaps)


def preference_counts(ranks: np.ndarray) -> np.ndarray:
    """(m, m) matrix P with P[x-1, y-1] = #votes preferring x to y, one vote at a time."""
    m = ranks.shape[1]
    counts = [[0] * m for _ in range(m)]
    for vote in ranks.tolist():  # ascending: each candidate beats those before it
        for i, x in enumerate(vote):
            row = counts[x - 1]
            for y in vote[:i]:
                row[y - 1] += 1
    return np.array(counts, dtype=np.int64).reshape(m, m)


def condorcet_winner(e: Election) -> Optional[int]:
    """The candidate that more than half of the votes put above each other one."""
    for c in e.candidates:
        if all(2 * sum(vote.index(c) > vote.index(d) for vote in e.votes) > e.n
               for d in e.candidates if d != c):
            return c
    return None


def pair_condition_holds(triple: DodgsonTriple, d: int) -> bool:
    """#votes(d over c) <= (2mn + n) / 4m and #votes(d just above c) >= 3n / 4m."""
    e, c = triple.election, triple.candidate
    if d == c or not 1 <= d <= e.m:
        raise ValueError(f"adversary {d} invalid for candidate {c} in 1..{e.m}")
    prefer_d = 0
    adjacent = 0
    for vote in e.votes:
        ic = vote.index(c)
        idx = vote.index(d)
        if ic < idx:
            prefer_d += 1
            if idx == ic + 1:
                adjacent += 1
    m, n = e.m, e.n
    return 4 * m * prefer_d <= 2 * m * n + n and 4 * m * adjacent >= 3 * n


def greedy_winner(triple: DodgsonTriple) -> GreedyWinnerResult:
    """Guess whether the candidate is a Dodgson winner.

    Scores every candidate greedily; the answer is "no" exactly when some
    other candidate gets a strictly smaller greedy score (ties keep "yes").
    Confidence is ``definitely`` only if every per-candidate score call was
    definite, in which case the answer is guaranteed correct.
    """
    e, c = triple.election, triple.candidate
    cres = greedy_score(triple)
    winner = True
    confidence = cres.confidence
    for d in e.candidates:
        if d == c:
            continue
        dres = greedy_score(DodgsonTriple(e, d))
        if dres.score < cres.score:
            winner = False
        if dres.confidence is Confidence.MAYBE:
            confidence = Confidence.MAYBE
    return GreedyWinnerResult(winner, confidence)


def exhaustive_counts(m: int, n: int, oracle: bool = False) -> tuple[int, int, int, int]:
    """(trials, maybe_count, pairfail_count, mismatch_count) over every ordered profile.

    Tallies and scores each of the (m!)^n profiles of ``itertools.product``
    on its own, as :func:`dodgson.bounds.run_trials` did before it scored one
    election per vote multiset.  Mismatches with the exact oracle are
    counted, not raised.
    """
    perms = list(itertools.permutations(range(1, m + 1)))
    trials = maybe = pairfail = mismatches = 0
    for profile in itertools.product(perms, repeat=n):
        ranks = np.array(profile, dtype=np.int32)
        pref, adj = election.preference_counts(ranks), election.adjacency_counts(ranks)
        results = _score_all(pref, adj)
        definite = [r.confidence is Confidence.DEFINITELY for r in results]
        trials += 1
        maybe += not all(definite)
        pairfail += not _pair_condition_matrix(pref, adj, m, n).all()
        if oracle:
            e = Election(m, ranks)
            bad = any(exact_dodgson_score(DodgsonTriple(e, c), ScoreMode.STRICT)
                      != results[c - 1].score for c in e.candidates if definite[c - 1])
            if all(definite):
                bad = bad or _winner_set(results).winners != dodgson_winners(e)
            mismatches += bad
    return trials, maybe, pairfail, mismatches
