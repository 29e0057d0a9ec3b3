"""Brute-force reference implementations of the per-candidate tallies.

These are the original one-vote-at-a-time versions of
:func:`dodgson.election.pairwise_stats`,
:func:`dodgson.election.preference_counts`,
:func:`dodgson.election.condorcet_winner` and
:func:`dodgson.bounds.pair_condition_holds`.  The array implementations in
the package must agree with them on every election, candidate and adversary.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from dodgson.election import DodgsonTriple, Election, PairwiseStats


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
