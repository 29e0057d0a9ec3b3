"""Ranked-ballot elections and the pairwise tallies everything else consumes.

Candidates are the integers 1..m.  A vote stores a strict ranking in
ascending preference order: ``vote[0]`` is the least preferred candidate and
``vote[-1]`` the most preferred.  (Human-facing ballot files list the most
preferred candidate first; see :mod:`dodgson.ballots`.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

Vote = tuple[int, ...]


@dataclass(frozen=True, init=False, eq=False)
class Election:
    """An ordered profile of n strict rankings over candidates 1..m.

    ``votes`` may be given as any sequence of rows or as an (n, m) integer
    array.  The only stored form is ``ranks``; the tuple form ``votes`` is
    derived from it on first read.  Equality and hashing compare
    ``(m, ranks)``.  Immutable after construction; zero candidates or zero
    voters are not valid elections.
    """

    m: int
    ranks: np.ndarray = field(repr=False)
    """Read-only (n, m) int32 array of the votes; row i lists vote i ascending."""

    def __init__(self, m: int, votes) -> None:
        if m < 1:
            raise ValueError(f"need at least one candidate, got m={m}")
        if isinstance(votes, np.ndarray):
            ranks = _validated_ranks(m, votes, votes)
        else:
            if not isinstance(votes, tuple) or not all(isinstance(v, tuple) for v in votes):
                votes = tuple(tuple(v) for v in votes)
            for i, vote in enumerate(votes):  # shape first: no oversized allocation
                if len(vote) != m:
                    raise _not_a_permutation(m, i, vote)
            ranks = _validated_ranks(m, np.array(votes), votes)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "ranks", ranks)

    @cached_property
    def votes(self) -> tuple[Vote, ...]:
        """The votes as tuples of Python ints, built from ``ranks`` on first read."""
        return tuple(map(tuple, self.ranks.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Election):
            return NotImplemented
        return self.m == other.m and np.array_equal(self.ranks, other.ranks)

    def __hash__(self) -> int:
        return hash((self.m, self.ranks.shape, self.ranks.tobytes()))

    @property
    def n(self) -> int:
        return len(self.ranks)

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
    """Compute deficits and greedy-swap opportunities in one O(nm) pass over ``ranks``."""
    e, c = triple.election, triple.candidate
    ranks, m, n = e.ranks, e.m, e.n
    is_c = ranks == c
    pos = is_c.argmax(axis=1)  # position of c in each vote
    below = np.bincount(ranks[np.arange(m) < pos[:, None]], minlength=m + 1).tolist()
    swaps = np.bincount(ranks[:, 1:][is_c[:, :-1]], minlength=m + 1).tolist()  # just above c
    others = [d for d in e.candidates if d != c]
    return PairwiseStats({d: n - 2 * below[d] for d in others}, {d: swaps[d] for d in others})


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


def preference_counts(ranks: np.ndarray) -> np.ndarray:
    """(m, m) matrix P with P[x-1, y-1] = #votes preferring x to y.

    Vectorized equivalent of tallying every pairwise race.  Positions are
    stored in the smallest unsigned dtype that holds m - 1, and votes are
    compared in blocks of at most 10**6 cells and 65535 votes, so each
    block's counts fit uint16 partial sums before they join the int64 total.
    """
    n, m = ranks.shape
    # pos[i, c-1] = ascending position of candidate c in vote i
    pos = np.argsort(ranks, axis=1).astype(np.min_scalar_type(m - 1))
    out = np.zeros((m, m), dtype=np.int64)
    chunk = max(1, min(65535, 1_000_000 // (m * m)))
    for lo in range(0, n, chunk):
        block = pos[lo : lo + chunk]
        beats = (block[:, :, None] > block[:, None, :]).view(np.uint8)
        out += beats.sum(axis=0, dtype=np.uint16)
    return out


def adjacency_counts(ranks: np.ndarray) -> np.ndarray:
    """(m, m) matrix A with A[x-1, y-1] = #votes where y sits immediately above x."""
    n, m = ranks.shape
    if m == 1:
        return np.zeros((1, 1), dtype=np.int64)
    # stay in the input's small dtype; codes are < m*m
    codes = (ranks[:, :-1] - 1) * ranks.dtype.type(m) + (ranks[:, 1:] - 1)
    return np.bincount(codes.ravel(), minlength=m * m).reshape(m, m)
