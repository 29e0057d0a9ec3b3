"""Greedy Dodgson score/winner heuristics with correctness certificates.

Each result carries a confidence tag.  A ``definitely`` tag is a guarantee:
the reported score equals the exact Dodgson score (resp. the winner answer is
correct).  A ``maybe`` score is a half-hearted stab with no accuracy contract
at all; it can be high, right, or low.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .election import (
    DodgsonTriple,
    Election,
    PairwiseStats,
    adjacency_counts,
    pairwise_stats,
    preference_counts,
)


class Confidence(str, Enum):
    DEFINITELY = "definitely"
    MAYBE = "maybe"


@dataclass(frozen=True)
class GreedyScoreResult:
    score: int
    confidence: Confidence


@dataclass(frozen=True)
class GreedyWinnerResult:
    winner: bool
    confidence: Confidence


@dataclass(frozen=True)
class GreedyWinnersResult:
    winners: frozenset[int]
    confidence: Confidence


def score_from_stats(stats: PairwiseStats) -> GreedyScoreResult:
    """The greedy scoring rule applied to precomputed pairwise tallies.

    Every adversary with a nonnegative deficit costs floor(deficit/2)+1
    swaps.  If some such adversary lacks enough greedily swappable votes
    (deficit >= 2*swaps), the certificate degrades to ``maybe`` and the
    score takes a +1 penalty for that adversary.
    """
    score = 0
    confidence = Confidence.DEFINITELY
    for d, z in stats.deficit.items():
        if z >= 0:
            score += z // 2 + 1
            if z >= 2 * stats.swaps[d]:
                confidence = Confidence.MAYBE
                score += 1
    return GreedyScoreResult(score, confidence)


def greedy_score(triple: DodgsonTriple) -> GreedyScoreResult:
    """Greedy Dodgson score of the triple's candidate, with confidence tag."""
    return score_from_stats(pairwise_stats(triple))


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


def greedy_all_winners(e: Election) -> GreedyWinnersResult:
    """Greedy argmin set over all candidates (the finding-variant of the heuristic).

    One greedy score per candidate, computed from shared vectorized tallies.
    When confidence is ``definitely`` the returned set is exactly the Dodgson
    winner set.
    """
    results = _score_all(preference_counts(e.ranks), adjacency_counts(e.ranks))
    best = min(r.score for r in results)
    winners = frozenset(c for c, r in zip(e.candidates, results) if r.score == best)
    confidence = Confidence.DEFINITELY
    if any(r.confidence is Confidence.MAYBE for r in results):
        confidence = Confidence.MAYBE
    return GreedyWinnersResult(winners, confidence)


def _score_all(pref, adj) -> list[GreedyScoreResult]:
    """Greedy score for every candidate from full preference/adjacency matrices."""
    return [score_from_stats(stats_from_matrices(pref, adj, c))
            for c in range(1, pref.shape[0] + 1)]


def stats_from_matrices(pref, adj, c: int) -> PairwiseStats:
    """PairwiseStats for candidate c out of full preference/adjacency matrices."""
    against, beats, above = pref[:, c - 1].tolist(), pref[c - 1].tolist(), adj[c - 1].tolist()
    others = [d for d in range(1, pref.shape[0] + 1) if d != c]
    return PairwiseStats({d: against[d - 1] - beats[d - 1] for d in others},
                         {d: above[d - 1] for d in others})
