"""Exact Dodgson-score oracles, used as ground truth for the heuristics.

Two independent routes:

* :func:`exact_dodgson_score` -- dynamic programming over per-vote "lifts"
  (raising the candidate some number of adjacent positions within a vote)
  on a dense numpy table; exact winners at m=8, n=40 take well under a
  second.  It models the search space as upward moves of the candidate only.
* :func:`bfs_swap_score` -- assumption-free breadth-first search over whole
  vote profiles, one adjacent swap (any pair, in any vote) per edge.  Only
  feasible for tiny elections; exists to cross-validate the DP's model.

Both support the strict goal (beat every other candidate head-on) and the
tie-or-beat variant, which needs ceil(deficit/2) vote flips per adversary
instead of floor(deficit/2)+1.
"""

from __future__ import annotations

import itertools
from enum import Enum
from math import lgamma, log, log10
from typing import Iterable, Optional

import numpy as np

from .election import DodgsonTriple, Election, pairwise_stats

DEFAULT_DP_STATE_BUDGET = 10**8
DEFAULT_BFS_PROFILE_BUDGET = 10**6


class ScoreMode(str, Enum):
    STRICT = "strict"
    TIE_OR_BEAT = "tie-or-beat"


class BudgetExceededError(RuntimeError):
    """Instance is too large for the configured oracle search budget."""


def _capped_product(factors: Iterable[int], cap: int) -> Optional[int]:
    """Product of ``factors`` (each at least 2), or None once it exceeds ``cap``.

    That takes at most ceil(log2 cap) + 1 multiplications, so no integer much
    larger than ``cap`` is ever built.
    """
    total = 1
    for f in factors:
        total *= f
        if total > cap:
            return None
    return total


def _over_budget(what: str, log10_size: float, cap: int) -> BudgetExceededError:
    excess = log10_size - log10(max(cap, 1))
    return BudgetExceededError(
        f"{what} ~ 10^{log10_size:.1f}, over the budget of {cap} by a factor of ~10^{excess:.1f}"
    )


def profile_count(m: int, n: int, cap: int, what: str) -> int:
    """(m!)^n, the number of n-vote profiles over m candidates, if it is at most ``cap``.

    Otherwise raises :class:`BudgetExceededError`; its message names ``what``
    and gives the excess as a power of ten.  The factors 2..m of each m! are
    multiplied in one at a time, so no huge integer is built.
    """
    if m == 1:
        return 1  # however many votes; and range(n) may be too long to walk
    total = _capped_product((k for _ in range(n) for k in range(2, m + 1)), cap)
    if total is None:
        raise _over_budget(f"{what} needs (m!)^n = ({m}!)^{n}", n * lgamma(m + 1) / log(10), cap)
    return total


def flips_needed(deficit: int, mode: ScoreMode) -> int:
    """Vote flips (d-over-c -> c-over-d) required against one adversary."""
    if deficit < 0:
        return 0
    if mode is ScoreMode.STRICT:
        return deficit // 2 + 1
    return (deficit + 1) // 2


def exact_dodgson_score(
    triple: DodgsonTriple,
    mode: ScoreMode = ScoreMode.STRICT,
    *,
    state_budget: int = DEFAULT_DP_STATE_BUDGET,
) -> int:
    """Minimum number of adjacent swaps making the candidate win every pairwise race.

    DP over votes on a dense table with one axis per adversary d that c does
    not yet beat, indexed by the flips still needed against d (clamped at
    zero; excess flips never help); a cell holds the least cost leaving at
    most that many.  A lift of t crosses the t candidates directly above c,
    flipping one pairwise vote against each: each crossing shifts a running
    copy one step down d's axis and adds to its cost, and the table keeps the
    cellwise minimum.

    Memory: one cell per state in each of up to three live tables, a cell
    being the smallest unsigned int holding n*m + m (two bytes up to n*m ~
    65000, four beyond): 0.6-1.2 GB at the default budget of 10^8 states.
    """
    e, c = triple.election, triple.candidate
    stats = pairwise_stats(triple)
    needs = {d: k for d, z in stats.deficit.items() if (k := flips_needed(z, mode)) > 0}
    if not needs:
        return 0
    if _capped_product((k + 1 for k in needs.values()), state_budget) is None:
        raise _over_budget(
            f"DP state space (m={e.m}, n={e.n})",
            sum(log10(k + 1) for k in needs.values()),
            state_budget,
        )
    axis = {d: j for j, d in enumerate(needs)}
    down = {d: np.minimum(np.arange(1, k + 2), k) for d, k in needs.items()}  # cell s reads s+1
    unreachable = e.n * e.m  # more than any real cost
    dtype = np.min_scalar_type(unreachable + e.m)
    table = np.full([k + 1 for k in needs.values()], unreachable, dtype=dtype)
    table.flat[-1] = 0  # no vote used yet: every flip still to go

    for row in e.ranks.tolist():
        running, lifted = table, 0
        for t, d in enumerate(row[row.index(c) + 1 :], start=1):  # nearest first
            if d in needs:  # crossing anyone else gains nothing
                running = running.take(down[d], axis=axis[d])
                running += t - lifted
                lifted = t
                np.minimum(table, running, out=table)

    best = int(table.flat[0])
    if best >= unreachable:
        raise AssertionError("all-zero residual must be reachable")
    return best


def bfs_swap_score(
    triple: DodgsonTriple,
    mode: ScoreMode = ScoreMode.STRICT,
    *,
    profile_budget: int = DEFAULT_BFS_PROFILE_BUDGET,
) -> int:
    """Reference oracle: BFS over vote profiles, one adjacent swap per edge.

    Edges cover *every* adjacent transposition in every vote, not just the
    ones involving the candidate of interest, so the distance returned makes
    no modeling assumption whatsoever.  Profiles are packed into single
    integers (one permutation id per vote) and pairwise deficits are updated
    incrementally, which keeps the search usable up to the profile budget.
    """
    e, c = triple.election, triple.candidate
    m, n = e.m, e.n
    if m == 1:
        return 0
    profile_count(m, n, profile_budget, "profile search")

    perms = list(itertools.permutations(range(1, m + 1)))
    perm_id = {p: i for i, p in enumerate(perms)}
    advs = [d for d in e.candidates if d != c]

    # neighbor[v][j]: permutation id after swapping positions j, j+1 of perm v.
    # delta[v][j]: per-adversary deficit change of that swap (None if c not involved).
    neighbor: list[list[int]] = []
    delta: list[list[tuple[int, ...] | None]] = []
    for p in perms:
        nrow, drow = [], []
        for j in range(m - 1):
            q = list(p)
            q[j], q[j + 1] = q[j + 1], q[j]
            nrow.append(perm_id[tuple(q)])
            if c == p[j]:  # c moved up past p[j+1]
                drow.append(tuple(-2 if d == p[j + 1] else 0 for d in advs))
            elif c == p[j + 1]:  # c moved down below p[j]
                drow.append(tuple(2 if d == p[j] else 0 for d in advs))
            else:
                drow.append(None)
        neighbor.append(nrow)
        delta.append(drow)

    shift = max(1, (len(perms) - 1).bit_length())
    mask = (1 << shift) - 1
    if mode is ScoreMode.STRICT:
        goal = lambda defs: all(z < 0 for z in defs)
    else:
        goal = lambda defs: all(z <= 0 for z in defs)

    start_stats = pairwise_stats(triple)
    start_def = tuple(start_stats.deficit[d] for d in advs)
    if goal(start_def):
        return 0
    start = 0
    for i, vote in enumerate(e.votes):
        start |= perm_id[vote] << (shift * i)

    offsets = [shift * i for i in range(n)]
    visited = {start}
    frontier: list[tuple[int, tuple[int, ...]]] = [(start, start_def)]
    depth = 0
    while frontier:
        depth += 1
        nxt: list[tuple[int, tuple[int, ...]]] = []
        for prof, defs in frontier:
            for off in offsets:
                vid = (prof >> off) & mask
                base = prof - (vid << off)
                nrow = neighbor[vid]
                drow = delta[vid]
                for j in range(m - 1):
                    q = base + (nrow[j] << off)
                    if q in visited:
                        continue
                    visited.add(q)
                    dl = drow[j]
                    if dl is None:
                        nxt.append((q, defs))
                        continue
                    nd = tuple(a + b for a, b in zip(defs, dl))
                    if goal(nd):
                        return depth
                    nxt.append((q, nd))
        if len(visited) > profile_budget:  # unreachable given the precheck; safety net
            raise BudgetExceededError(f"visited {len(visited)} profiles, over budget")
        frontier = nxt
    raise AssertionError("swap graph is connected; goal must be reachable")


def dodgson_winners(
    e: Election,
    mode: ScoreMode = ScoreMode.STRICT,
    *,
    state_budget: int = DEFAULT_DP_STATE_BUDGET,
) -> frozenset[int]:
    """Exact Dodgson winner set: candidates of minimum exact score."""
    scores = {
        c: exact_dodgson_score(DodgsonTriple(e, c), mode, state_budget=state_budget)
        for c in e.candidates
    }
    best = min(scores.values())
    return frozenset(c for c, s in scores.items() if s == best)
