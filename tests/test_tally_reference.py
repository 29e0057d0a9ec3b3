"""The array tallies against the brute-force reference in reference_tally.

``pairwise_stats`` and ``pair_condition_holds`` must equal the one-vote-at-a-
time reference for every candidate and adversary, including one candidate,
one vote, and the candidate at the top or bottom of every vote; and each
``pair_condition_holds`` answer must equal its entry of the matrix that
``run_trials`` uses.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference_tally as ref
from conftest import elections
from dodgson import DodgsonTriple, Election, pair_condition_holds, pairwise_stats
from dodgson.bounds import _pair_condition_matrix
from dodgson.election import adjacency_counts, preference_counts


def assert_matches_reference(e):
    for c in e.candidates:
        t = DodgsonTriple(e, c)
        assert pairwise_stats(t) == ref.pairwise_stats(t)
        for d in e.candidates:
            if d != c:
                assert pair_condition_holds(t, d) is ref.pair_condition_holds(t, d)


@given(elections(max_m=6, max_n=10))
@example(Election(1, ((1,),)))
@example(Election(1, ((1,),) * 4))
@example(Election(3, ((2, 3, 1),)))
def test_every_pair_matches_reference(e):
    assert_matches_reference(e)


@st.composite
def pinned_elections(draw):
    """Elections where candidate m sits at the top or the bottom of every vote."""
    m = draw(st.integers(2, 6))
    votes = []
    for _ in range(draw(st.integers(1, 8))):
        rest = tuple(draw(st.permutations(range(1, m))))
        votes.append(rest + (m,) if draw(st.booleans()) else (m,) + rest)
    return Election(m, tuple(votes))


@given(pinned_elections())
def test_candidate_at_top_or_bottom_matches_reference(e):
    assert_matches_reference(e)


@given(elections(max_m=6, max_n=10))
def test_scalar_pair_condition_equals_matrix_entry(e):
    ok = _pair_condition_matrix(preference_counts(e.ranks), adjacency_counts(e.ranks),
                                e.m, e.n)
    for c in e.candidates:
        for d in e.candidates:
            if d != c:
                assert pair_condition_holds(DodgsonTriple(e, c), d) == ok[c - 1, d - 1]


def test_large_profile_matches_reference():
    rng = np.random.default_rng(3)
    ranks = rng.permuted(np.tile(np.arange(1, 9), (500, 1)), axis=1)
    assert_matches_reference(Election.from_rows(8, ranks))


@pytest.mark.parametrize("d", [0, 1, 4])
def test_invalid_adversary_rejected_like_reference(d):
    t = DodgsonTriple(Election(3, ((1, 2, 3),)), 1)
    for impl in (pair_condition_holds, ref.pair_condition_holds):
        with pytest.raises(ValueError, match=f"adversary {d} invalid"):
            impl(t, d)
