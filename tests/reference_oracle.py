"""Reference implementations of both exact oracles.

``exact_dodgson_score`` is the original dict-of-states version of
:func:`dodgson.oracle.exact_dodgson_score`: one dict entry per reachable
residual state, updated one ballot and one lift at a time.
``bfs_swap_score`` is the original profile-at-a-time version of
:func:`dodgson.oracle.bfs_swap_score`: a Python set of visited profiles and
incrementally updated deficits.  The numpy implementations in the package
must agree with them on every election, candidate and mode, and raise the
same budget errors.
"""

from __future__ import annotations

import itertools
from math import log10

from dodgson.election import DodgsonTriple, pairwise_stats
from dodgson.oracle import (
    DEFAULT_BFS_PROFILE_BUDGET,
    DEFAULT_DP_STATE_BUDGET,
    BudgetExceededError,
    ScoreMode,
    _capped_product,
    _over_budget,
    flips_needed,
    profile_count,
)


def exact_dodgson_score(
    triple: DodgsonTriple,
    mode: ScoreMode = ScoreMode.STRICT,
    *,
    state_budget: int = DEFAULT_DP_STATE_BUDGET,
) -> int:
    """Minimum number of adjacent swaps making the candidate win every pairwise race.

    DP over votes.  State = residual flips still needed per adversary
    (clamped at zero; excess flips never help).  Per-vote transitions
    enumerate how many positions the candidate is lifted in that vote; a
    lift of t crosses the t candidates directly above it, flipping one
    pairwise vote against each.
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
    advs = sorted(needs)
    index = {d: j for j, d in enumerate(advs)}
    start = tuple(needs[d] for d in advs)
    states: dict[tuple[int, ...], int] = {start: 0}

    for vote in e.votes:
        chain = vote[vote.index(c) + 1 :]  # candidates above c, nearest first
        if not any(d in needs for d in chain):
            continue  # lifting here can never reduce a residual need
        nxt: dict[tuple[int, ...], int] = {}
        for state, cost in states.items():
            prev = nxt.get(state)
            if prev is None or cost < prev:
                nxt[state] = cost
            vec = list(state)
            for t, d in enumerate(chain, start=1):
                j = index.get(d)
                if j is None or vec[j] == 0:
                    continue  # crossing d gains nothing; stopping here is dominated
                vec[j] -= 1
                key = tuple(vec)
                total = cost + t
                prev = nxt.get(key)
                if prev is None or total < prev:
                    nxt[key] = total
        states = nxt

    done = (0,) * len(advs)
    assert done in states, "all-zero residual must be reachable"
    return states[done]


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
