"""Reference implementation of the exact lift DP.

This is the original dict-of-states version of
:func:`dodgson.oracle.exact_dodgson_score`: one dict entry per reachable
residual state, updated one ballot and one lift at a time.  The dense-table
implementation in the package must agree with it on every election,
candidate and mode, and raise the same budget error.
"""

from __future__ import annotations

from math import log10

from dodgson.election import DodgsonTriple, pairwise_stats
from dodgson.oracle import (
    DEFAULT_DP_STATE_BUDGET,
    ScoreMode,
    _capped_product,
    _over_budget,
    flips_needed,
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
