"""Ranked-ballot elections and the pairwise tallies everything else consumes.

Candidates are the integers 1..m.  A vote stores a strict ranking in
ascending preference order: ``vote[0]`` is the least preferred candidate and
``vote[-1]`` the most preferred.  (Human-facing ballot files list the most
preferred candidate first; see :mod:`dodgson.ballots`.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

Vote = tuple[int, ...]

# Cells that one step of a blocked pass over a profile handles (ballot entries,
# tally cells, or the fields or bits of its encoding), so that the scratch of
# parsing, formatting, tallying and the bit codec stays near a fixed size
# however many votes there are.
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True, init=False, eq=False)
class Election:
    """An ordered profile of n strict rankings over candidates 1..m.

    ``votes`` may be given as an (n, m) integer array or as any iterable of
    rows, read once into a list of tuples that becomes an array; both forms
    take the same checks.  The only stored form is ``ranks``; the tuple form
    ``votes`` and the position table ``positions`` are derived from it on
    first read.
    Equality and hashing compare ``(m, ranks)``.  Immutable after
    construction; zero candidates or zero voters are not valid elections.
    """

    m: int
    ranks: np.ndarray = field(repr=False)
    """Read-only (n, m) int32 array of the votes; row i lists vote i ascending."""

    def __init__(self, m: int, votes) -> None:
        if m < 1:
            raise ValueError(f"need at least one candidate, got m={m}")
        if not isinstance(votes, np.ndarray):
            votes = [tuple(v) for v in votes]  # drains an iterator once
            for i, vote in enumerate(votes):  # shape first: no oversized allocation
                if len(vote) != m:
                    raise _not_a_permutation(m, i, vote)
        ranks = _validated_ranks(m, np.asarray(votes), votes)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "ranks", ranks)

    @cached_property
    def votes(self) -> tuple[Vote, ...]:
        """The votes as tuples of Python ints, built from ``ranks`` on first read."""
        return tuple(map(tuple, self.ranks.tolist()))

    @cached_property
    def positions(self) -> np.ndarray:
        """Read-only (n, m) array: ``positions[i, c-1]`` is c's ascending position in vote i.

        Built from ``ranks`` on first read, in the smallest unsigned dtype
        that holds m - 1, so it costs n*m bytes up to m = 256.
        """
        pos = _positions(self.ranks)
        pos.setflags(write=False)
        return pos

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


def invalid_votes(m: int, ranks: np.ndarray) -> np.ndarray:
    """Indices of the rows of an (n, m) integer array that are not permutations of 1..m.

    A row is a permutation exactly when it sorts to 1..m, which also bounds its range.
    Rows are sorted one block at a time.
    """
    target = np.arange(1, m + 1)
    bad = [rows.start + np.flatnonzero((np.sort(ranks[rows], axis=1) != target).any(axis=1))
           for rows in _row_blocks(len(ranks), m)]
    return np.concatenate(bad) if bad else np.empty(0, dtype=np.intp)


def _block_rows(m: int) -> int:
    """Rows of m cells in one block of a blocked whole-profile pass (at least one)."""
    return max(1, _BLOCK_CELLS // m)


def _row_blocks(count: int, width: int, unit: int = 1) -> Iterator[slice]:
    """Consecutive slices, one per block of ``_block_rows(width)`` of ``count`` rows.

    A row spans ``unit`` items of what is sliced, so they cover
    ``range(count * unit)``: rows of an array by default, or else the
    characters or bytes that encode the rows.
    """
    step = _block_rows(width)
    return (slice(lo * unit, min(lo + step, count) * unit) for lo in range(0, count, step))


def _positions(ranks: np.ndarray) -> np.ndarray:
    """(n, m) table with each candidate's ascending position in each vote.

    Its dtype is the smallest unsigned one that holds m - 1; rows are
    argsorted one block at a time, so the int64 argsort scratch stays small.
    """
    n, m = ranks.shape
    pos = np.empty((n, m), dtype=np.min_scalar_type(m - 1))
    for rows in _row_blocks(n, m):
        pos[rows] = np.argsort(ranks[rows], axis=1)
    return pos


def _not_a_permutation(m: int, i: int, vote) -> ValueError:
    if isinstance(vote, np.ndarray):
        vote = vote.tolist()
    return ValueError(f"vote {i} is not a permutation of 1..{m}: {tuple(vote)!r}")


def _validated_ranks(m: int, arr: np.ndarray, rows) -> np.ndarray:
    """Read-only int32 copy of ``arr`` after checking every row is a permutation.

    ``rows`` are the votes as the caller gave them (``arr`` itself, or the
    tuples it was built from); they only feed the error message for the first
    bad row.
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
    below = swaps = None
    for rows in _row_blocks(n, m):
        block = ranks[rows]
        is_c = block == c
        pos = is_c.argmax(axis=1)  # position of c in each vote
        b = np.bincount(block[np.arange(m) < pos[:, None]], minlength=m + 1)
        s = np.bincount(block[:, 1:][is_c[:, :-1]], minlength=m + 1)  # just above c
        below, swaps = (b, s) if below is None else (below + b, swaps + s)
    below, swaps = below.tolist(), swaps.tolist()
    others = [d for d in e.candidates if d != c]
    return PairwiseStats({d: n - 2 * below[d] for d in others}, {d: swaps[d] for d in others})


def condorcet_winner(e: Election) -> Optional[int]:
    """The candidate beating every other in a strict pairwise majority, if any.

    At most one such candidate exists; a single-candidate election wins
    vacuously.  One elimination pass over the columns of ``e.positions``
    (a champion that does not strictly beat the next candidate gives way to
    it) leaves the only possible winner.  It already beat every candidate
    after it in that pass, so the same column test confirms it against the
    candidates before it: O(nm) in all.
    """
    pos, n = e.positions, e.n

    def beats(c: int, d: int) -> bool:
        return 2 * np.count_nonzero(pos[:, c] > pos[:, d]) > n

    champion = 0
    for d in range(1, e.m):
        if not beats(champion, d):
            champion = d
    return champion + 1 if all(beats(champion, d) for d in range(champion)) else None


def preference_counts(ranks: np.ndarray) -> np.ndarray:
    """(m, m) matrix P with P[x-1, y-1] = #votes preferring x to y.

    Vectorized equivalent of tallying every pairwise race.  Votes are turned
    into positions (see :func:`_positions`) and compared in chunks of their
    own rule, not :func:`_row_blocks`: each vote costs m*m cells of the
    comparison cube, so a chunk holds at most 10**6 // (m*m) votes, and at
    most 65535 so that its counts fit the uint16 partial sums that then join
    the int64 total.
    """
    n, m = ranks.shape
    out = np.zeros((m, m), dtype=np.int64)
    chunk = max(1, min(65535, 1_000_000 // (m * m)))
    for lo in range(0, n, chunk):
        block = _positions(ranks[lo : lo + chunk])  # block[i, c-1]: position of c in vote i
        beats = (block[:, :, None] > block[:, None, :]).view(np.uint8)
        out += beats.sum(axis=0, dtype=np.uint16)
    return out


def adjacency_counts(ranks: np.ndarray) -> np.ndarray:
    """(m, m) matrix A with A[x-1, y-1] = #votes where y sits immediately above x.

    Counted one row block at a time: ``bincount`` widens its input to intp.
    """
    n, m = ranks.shape
    out = np.zeros(m * m, dtype=np.int64)
    for rows in _row_blocks(n, m):
        block = ranks[rows]
        # stay in the input's small dtype; codes are < m*m
        codes = (block[:, :-1] - 1) * ranks.dtype.type(m) + (block[:, 1:] - 1)
        out += np.bincount(codes.ravel(), minlength=m * m)
    return out.reshape(m, m)
