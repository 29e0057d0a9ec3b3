"""Ranked-ballot elections and the pairwise tallies everything else consumes.

Candidates are the integers 1..m.  A vote stores a strict ranking in
ascending preference order: ``vote[0]`` is the least preferred candidate and
``vote[-1]`` the most preferred.  (Human-facing ballot files list the most
preferred candidate first; see :mod:`dodgson.ballots`.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

Vote = tuple[int, ...]


@dataclass(frozen=True)
class Election:
    """An ordered profile of n strict rankings over candidates 1..m.

    ``votes`` may be given as any sequence of rows or as an (n, m) integer
    array; it is stored as a tuple of tuples.  Immutable after construction;
    zero candidates or zero voters are not valid elections.
    """

    m: int
    votes: tuple[Vote, ...]
    ranks: np.ndarray = field(init=False, repr=False, compare=False)
    """Read-only (n, m) int32 array of the votes; row i lists vote i ascending."""

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"need at least one candidate, got m={self.m}")
        votes = self.votes
        if isinstance(votes, np.ndarray):
            ranks = _validated_ranks(self.m, votes, votes)
            votes = tuple(map(tuple, ranks.tolist()))
        else:
            if not isinstance(votes, tuple) or not all(isinstance(v, tuple) for v in votes):
                votes = tuple(tuple(v) for v in votes)
            for i, vote in enumerate(votes):  # shape first: no oversized allocation
                if len(vote) != self.m:
                    raise _not_a_permutation(self.m, i, vote)
            ranks = _validated_ranks(self.m, np.array(votes), votes)
        object.__setattr__(self, "votes", votes)
        object.__setattr__(self, "ranks", ranks)

    @property
    def n(self) -> int:
        return len(self.votes)

    @property
    def candidates(self) -> range:
        return range(1, self.m + 1)

    @classmethod
    def from_rows(cls, m: int, rows: Iterable[Sequence[int]]) -> "Election":
        """Election from an (n, m) array of ascending rows (or any iterable of rows)."""
        return cls(m, rows)


def invalid_votes(m: int, ranks: np.ndarray) -> np.ndarray:
    """Indices of the rows of an (n, m) integer array that are not permutations of 1..m.

    A row is a permutation exactly when it sorts to 1..m, which also bounds its range.
    """
    return np.flatnonzero((np.sort(ranks, axis=1) != np.arange(1, m + 1)).any(axis=1))


def _not_a_permutation(m: int, i: int, vote) -> ValueError:
    if isinstance(vote, np.ndarray):
        vote = vote.tolist()
    return ValueError(f"vote {i} is not a permutation of 1..{m}: {tuple(vote)!r}")


def _validated_ranks(m: int, arr: np.ndarray, rows) -> np.ndarray:
    """Read-only int32 copy of ``arr`` after checking every row is a permutation.

    ``rows`` are the votes as the caller gave them (``arr`` itself, or what
    it was built from); they only feed the error message for the first bad row.
    """
    if arr.shape[:1] == (0,):
        raise ValueError("need at least one vote")
    if arr.ndim != 2 or arr.shape[1] != m:
        raise ValueError(f"expected an (n, {m}) array of votes, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":  # floats, strings, oversized ints
        i = next((i for i, row in enumerate(rows) if np.asarray(row).dtype.kind not in "iu"), 0)
        raise _not_a_permutation(m, i, rows[i])
    bad = invalid_votes(m, arr)
    if len(bad):
        raise _not_a_permutation(m, int(bad[0]), rows[bad[0]])
    ranks = arr.astype(np.int32)
    ranks.setflags(write=False)
    return ranks


@dataclass(frozen=True)
class DodgsonTriple:
    """An election together with the candidate under consideration."""

    election: Election
    candidate: int

    def __post_init__(self) -> None:
        if not 1 <= self.candidate <= self.election.m:
            raise ValueError(
                f"candidate {self.candidate} out of range 1..{self.election.m}"
            )


@dataclass(frozen=True)
class PairwiseStats:
    """Per-adversary tallies for one candidate c.

    deficit[d] = (#votes preferring d to c) - (#votes preferring c to d);
    negative when c already beats d.  swaps[d] counts the votes in which d
    sits immediately above c, i.e. the votes where a single adjacent swap
    moves one pairwise vote from d to c.
    """

    deficit: dict[int, int]
    swaps: dict[int, int]


def pairwise_stats(triple: DodgsonTriple) -> PairwiseStats:
    """Compute deficits and greedy-swap opportunities in one pass over the votes."""
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


def condorcet_winner(e: Election) -> Optional[int]:
    """The candidate beating every other in a strict pairwise majority, if any.

    At most one such candidate exists; a single-candidate election wins
    vacuously.
    """
    for c in e.candidates:
        stats = pairwise_stats(DodgsonTriple(e, c))
        if all(z < 0 for z in stats.deficit.values()):
            return c
    return None


def _positions(ranks: np.ndarray) -> np.ndarray:
    # pos[i, c-1] = ascending position of candidate c in vote i
    return np.argsort(ranks, axis=1)


def preference_counts(ranks: np.ndarray) -> np.ndarray:
    """(m, m) matrix P with P[x-1, y-1] = #votes preferring x to y.

    Vectorized equivalent of tallying every pairwise race; chunked so the
    intermediate boolean block stays small for large profiles.
    """
    n, m = ranks.shape
    pos = _positions(ranks)
    out = np.zeros((m, m), dtype=np.int64)
    chunk = max(1, 1_000_000 // (m * m))
    for lo in range(0, n, chunk):
        block = pos[lo : lo + chunk]
        out += (block[:, :, None] > block[:, None, :]).sum(axis=0)
    return out


def adjacency_counts(ranks: np.ndarray) -> np.ndarray:
    """(m, m) matrix A with A[x-1, y-1] = #votes where y sits immediately above x."""
    n, m = ranks.shape
    if m == 1:
        return np.zeros((1, 1), dtype=np.int64)
    # stay in the input's small dtype; codes are < m*m
    codes = (ranks[:, :-1] - 1) * ranks.dtype.type(m) + (ranks[:, 1:] - 1)
    return np.bincount(codes.ravel(), minlength=m * m).reshape(m, m)
