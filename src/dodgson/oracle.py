"""Exact Dodgson-score oracles, used as ground truth for the heuristics.

Two independent routes:

* :func:`exact_dodgson_score` -- dynamic programming over per-vote "lifts"
  (raising the candidate some number of adjacent positions within a vote)
  on a dense numpy table; exact winners at m=8, n=40 take well under a
  second.  It models the search space as upward moves of the candidate only.
* :func:`bfs_swap_score` -- assumption-free: the least adjacent swaps (any
  pair, in any vote) over whole profiles, as a search of all (m!)^n
  profiles would find it, computed by a DP over per-vote inversion costs.
  Admits only shapes whose (m!)^n profiles fit its budget (10^6 by default:
  up to m=9 with one vote, m=6 with two, m=2 with 19); exists to
  cross-validate the DP's model.

Both support the strict goal (beat every other candidate head-on) and the
tie-or-beat variant, which needs ceil(deficit/2) vote flips per adversary
instead of floor(deficit/2)+1.
"""

from __future__ import annotations

from enum import Enum
from math import lgamma, log, log10
from typing import Iterable, Optional

import numpy as np

from .election import DodgsonTriple, Election

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
    cellwise minimum.  The deficits come from the cached ``e.positions``, so
    one argsort serves every candidate and mode, and no exact oracle shares
    the greedy's tally.

    Memory: one cell per state in each of up to three live tables, a cell
    being the smallest unsigned int holding n*m + m (two bytes up to n*m ~
    65000, four beyond): 0.6-1.2 GB at the default budget of 10^8 states.
    """
    e, c = triple.election, triple.candidate
    pos = e.positions  # d's deficit: 2 * (votes ranking d above c) - n; c's own, -n, needs none
    deficits = (2 * np.count_nonzero(pos > pos[:, c - 1 : c], axis=0) - e.n).tolist()
    needs = {d: k for d, z in enumerate(deficits, 1) if (k := flips_needed(z, mode)) > 0}
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


def _above_set_costs(ranks: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Least swaps per vote that leave exactly a given set of adversaries above ``c``.

    Returns ``(subsets, cost)``: subset s holds adversary j (the j-th
    candidate other than c) when bit j of s, ``subsets[j, s]``, is set, and
    ``cost[i, s]`` is for vote i of the ascending ``(n, m)`` ``ranks``.
    Any ranking with above-set S puts S above c above the rest, so it
    disagrees with the vote on the symmetric difference of S and the vote's
    above-set A, and on each pair (x not in S, s in S) with x above s in the
    vote.  Keeping both parts in the vote's order disagrees on nothing else:
    |A| + sum over s in S of (m-1 - position of s - [s in A]) - |S|(|S|-1)/2.
    """
    m = ranks.shape[1]
    pos = np.argsort(ranks, axis=1)  # pos[i, x-1]: position of x in vote i, 0 at the bottom
    adv = np.delete(pos, c - 1, axis=1)
    above = adv > pos[:, c - 1 : c]
    subsets = (np.arange(2 ** (m - 1)) >> np.arange(m - 1)[:, None]) & 1
    size = subsets.sum(axis=0)
    cost = above.sum(axis=1)[:, None] + (m - 1 - adv - above) @ subsets - size * (size - 1) // 2
    return subsets, cost


def bfs_swap_score(
    triple: DodgsonTriple,
    mode: ScoreMode = ScoreMode.STRICT,
    *,
    profile_budget: int = DEFAULT_BFS_PROFILE_BUDGET,
) -> int:
    """Reference oracle: least adjacent swaps, any pair in any vote, to a winning profile.

    This is the distance a search of the profile swap graph (Bartholdi,
    Tovey & Trick 1989) would find, computed without visiting the (m!)^n
    profiles.  The graph is the Cartesian product of the per-vote graphs,
    so a distance is a sum of per-vote inversion counts, and whether a
    profile wins depends on each vote only through its set of adversaries
    above c, whose least cost has a closed form (:func:`_above_set_costs`).
    So a min-plus DP over votes keeps the least cost per count, for each
    adversary, of votes with it above c; a count over the goal's limit
    ((n-1)//2 strict, n//2 tie-or-beat) can never win and has no cell.
    ``source`` maps a cell and subset to the cell it came from, or to -1, an
    always-infinite cell.  Positions come from argsorting ``ranks``, not
    from the ``e.positions`` that the DP reads, so this oracle shares no
    scoring code with the DP.

    Memory: (2*(limit+1))^(m-1) eight-byte cells in ``source`` and in each
    vote's gather, never more than the (m!)^n that ``profile_budget``
    admits, since 2*(limit+1) <= 2^n and 2^(m-1) <= m!.
    """
    e, c = triple.election, triple.candidate
    m, n = e.m, e.n
    if m == 1:
        return 0
    profile_count(m, n, profile_budget, "profile search")

    subsets, cost = _above_set_costs(e.ranks, c)
    k = (n - 1) // 2 + 1 if mode is ScoreMode.STRICT else n // 2 + 1  # counts 0..limit
    place = k ** np.arange(m - 1)  # adversary j's count is digit j of a cell index
    cells = np.arange(k ** (m - 1))
    counts = cells // place[:, None] % k
    fits = (counts[:, :, None] >= subsets[:, None, :]).all(axis=0)  # no count below zero
    source = np.where(fits, cells[:, None] - place @ subsets, -1)
    table = np.full(len(cells) + 1, np.inf)
    table[0] = 0
    for row in cost:
        table[:-1] = (table[source] + row).min(axis=1)
    return int(table.min())


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
