"""Exact Dodgson-score oracles, used as ground truth for the heuristics.

Two independent routes:

* :func:`exact_dodgson_score` -- dynamic programming over per-vote "lifts"
  (raising the candidate some number of adjacent positions within a vote)
  on a dense numpy table; exact winners at m=8, n=40 take well under a
  second.  It models the search space as upward moves of the candidate only.
* :func:`bfs_swap_score` -- assumption-free breadth-first search over whole
  vote profiles, one adjacent swap (any pair, in any vote) per edge, one
  numpy step per BFS level.  Feasible while the (m!)^n profiles fit its
  budget (10^6 by default: up to m=9 with one vote, m=6 with two, m=2 with
  19); exists to cross-validate the DP's model.

Both support the strict goal (beat every other candidate head-on) and the
tie-or-beat variant, which needs ceil(deficit/2) vote flips per adversary
instead of floor(deficit/2)+1.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
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


@lru_cache(maxsize=8)  # every m the default profile budget admits (2..9)
def _swap_table(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(place, code, neighbor, pos) over the permutations of 1..m in lexicographic order.

    ``code[v] = perms[v] @ place`` reads permutation v as a base-(m+1)
    number, so the codes are sorted and ``searchsorted`` maps a code to its
    id.  ``neighbor[v, j]`` is the id after swapping positions j and j+1 of
    v, and ``pos[v, d-1]`` is the position of candidate d in v.
    """
    perms = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, m + 1):  # first entry a, then the perms of the rest renumbered
        perms = np.concatenate([
            np.column_stack((np.full(len(perms), a, dtype=np.int8), perms + (perms >= a)))
            for a in range(1, k + 1)
        ])
    place = (m + 1) ** np.arange(m - 1, -1, -1, dtype=np.int64)
    code = perms @ place
    step = (perms[:, 1:] - perms[:, :-1]) * (place[:-1] - place[1:])  # code change per swap
    neighbor = np.searchsorted(code, code[:, None] + step).astype(np.int32)
    pos = np.empty_like(perms)
    np.put_along_axis(pos, perms - 1, np.arange(m, dtype=np.int8), axis=1)
    for table in (place, code, neighbor, pos):
        table.setflags(write=False)  # shared by every caller through the cache
    return place, code, neighbor, pos


def bfs_swap_score(
    triple: DodgsonTriple,
    mode: ScoreMode = ScoreMode.STRICT,
    *,
    profile_budget: int = DEFAULT_BFS_PROFILE_BUDGET,
) -> int:
    """Reference oracle: BFS over vote profiles, one adjacent swap per edge.

    Edges cover *every* adjacent transposition in every vote, not just the
    ones involving the candidate of interest, so the distance returned makes
    no modeling assumption whatsoever.  A profile is one integer in mixed
    radix m! (digit i is the permutation id of vote i), and each BFS level
    is expanded and goal-tested as a whole with numpy.  Pairwise deficits
    are summed from the votes' positions, not taken from
    :func:`pairwise_stats`, so this oracle shares no scoring code with the
    DP.

    Memory: two bytes per profile, a visited and a fresh flag (2 MB at the
    default budget of 10^6), plus the swap table of each of the last 8 values
    of m, about 18 MB at m=9.
    """
    e, c = triple.election, triple.candidate
    m, n = e.m, e.n
    if m == 1:
        return 0
    size = profile_count(m, n, profile_budget, "profile search")

    place, code, neighbor, pos = _swap_table(m)
    k = len(code)
    weights = k ** np.arange(n, dtype=np.int64)
    # sign[v, d-1] is +1 if permutation v puts d above c, else -1 (also for d = c)
    sign = np.where(pos > pos[:, c - 1 : c], 1, -1).astype(np.min_scalar_type(-n))
    limit = -1 if mode is ScoreMode.STRICT else 0  # largest deficit the goal allows

    start = int(np.searchsorted(code, e.ranks @ place) @ weights)
    visited = np.zeros(size, dtype=bool)
    fresh = np.zeros(size, dtype=bool)
    visited[start] = True
    frontier = np.array([start])
    depth = 0
    while frontier.size:
        deficits = sum(sign[frontier // w % k] for w in weights)
        if (deficits.max(axis=1) <= limit).any():
            return depth
        depth += 1
        for w in weights:  # one vote at a time keeps the index array at (f, m-1)
            v = frontier // w % k
            fresh[frontier[:, None] + (neighbor[v] - v[:, None]) * w] = True
        np.greater(fresh, visited, out=fresh)  # fresh &= ~visited, with no temporary
        frontier = np.flatnonzero(fresh)
        visited |= fresh
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
