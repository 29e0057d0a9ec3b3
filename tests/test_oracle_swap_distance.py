"""The swap-distance DP behind ``bfs_swap_score``, checked on its own terms.

``_above_set_costs`` gives, per vote, the fewest adjacent swaps that leave
exactly a given set of adversaries above the candidate; it is compared with
a brute-force minimum of inversions over all m! rankings.  ``bfs_swap_score``
itself is compared with the lift DP at shapes whose (m!)^n profiles no
profile-by-profile search could hold.
"""

import itertools
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dodgson import DodgsonTriple, Election, ScoreMode, bfs_swap_score, exact_dodgson_score
from dodgson.oracle import _above_set_costs


def inversions(v, u):
    """Pairs that the rankings v and u order differently."""
    where = {x: i for i, x in enumerate(u)}
    return sum(where[a] > where[b] for a, b in itertools.combinations(v, 2))


def brute_costs(vote, c):
    """Least inversions from ``vote`` to any ranking per above-set bitmask of c."""
    adversaries = [x for x in sorted(vote) if x != c]
    best = {}
    for u in itertools.permutations(vote):
        above = u[u.index(c) + 1 :]
        s = sum(1 << j for j, d in enumerate(adversaries) if d in above)
        best[s] = min(best.get(s, len(vote) ** 2), inversions(vote, u))
    return [best[s] for s in range(2 ** len(adversaries))]


def assert_costs_match(vote, c):
    subsets, cost = _above_set_costs(np.array([vote]), c)
    assert cost.tolist() == [brute_costs(vote, c)]
    bits = [[s >> j & 1 for j in range(len(vote) - 1)] for s in range(2 ** (len(vote) - 1))]
    assert subsets.T.tolist() == bits


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_closed_form_cost_matches_brute_force_exhaustively(m):
    for vote in itertools.permutations(range(1, m + 1)):
        for c in vote:
            assert_costs_match(vote, c)


@st.composite
def votes_and_candidates(draw):
    m = draw(st.integers(5, 6))
    return tuple(draw(st.permutations(range(1, m + 1)))), draw(st.integers(1, m))


@given(votes_and_candidates())
@settings(max_examples=100, deadline=None)
def test_closed_form_cost_matches_brute_force_at_five_and_six_candidates(vc):
    assert_costs_match(*vc)


# shapes whose (m!)^n profiles are far past any flag-per-profile search
LARGE_SHAPES = [(3, n) for n in range(20, 42)] + [(4, n) for n in range(8, 16)] + [
    (5, n) for n in range(5, 8)
]


@st.composite
def large_triples(draw):
    m, n = draw(st.sampled_from(LARGE_SHAPES))
    votes = draw(st.lists(st.permutations(range(1, m + 1)), min_size=n, max_size=n))
    return DodgsonTriple(Election(m, tuple(map(tuple, votes))), draw(st.integers(1, m)))


@given(large_triples())
@settings(max_examples=150, deadline=None)
def test_matches_the_lift_dp_beyond_any_profile_search(t):
    m, n = t.election.m, t.election.n
    for mode in ScoreMode:
        got = bfs_swap_score(t, mode, profile_budget=factorial(m) ** n)
        assert got == exact_dodgson_score(t, mode)
