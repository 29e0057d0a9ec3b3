"""The array tallies against the brute-force reference in reference_tally.

``pairwise_stats`` and ``pair_condition_holds`` must equal the one-vote-at-a-
time reference for every candidate and adversary, including one candidate,
one vote, and the candidate at the top or bottom of every vote; and each
``pair_condition_holds`` answer must equal its entry of the matrix that
``run_trials`` uses, whether or not ``Election.positions`` was cached before.
``condorcet_winner`` must equal the reference's on every election, with ties,
cycles and one candidate on top of every vote, and must not read
``pairwise_stats``.  ``greedy_winner`` must equal the reference's
candidate-by-candidate loop for every candidate.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference_tally as ref
from conftest import elections
from dodgson import (DodgsonTriple, Election, condorcet_winner, election, greedy_winner,
                     pair_condition_holds, pairwise_stats)
from dodgson.bounds import _pair_condition_matrix
from dodgson.election import adjacency_counts, preference_counts


def assert_matches_reference(e):
    for c in e.candidates:
        t = DodgsonTriple(e, c)
        assert pairwise_stats(t) == ref.pairwise_stats(t)
        for d in e.candidates:
            if d != c:
                expected = ref.pair_condition_holds(t, d)
                fresh = DodgsonTriple(Election(e.m, e.ranks), c)
                assert "positions" not in vars(fresh.election)
                assert pair_condition_holds(fresh, d) is expected
                assert "positions" in vars(fresh.election)
                assert pair_condition_holds(fresh, d) is expected  # from the cached table
                assert pair_condition_holds(t, d) is expected
    assert condorcet_winner(e) == ref.condorcet_winner(e)


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
@example(Election(1, ((1,),) * 2))
@example(Election(2, ((1, 2), (2, 1))))  # a tie: no winner
@example(Election(3, ((1, 2, 3), (3, 2, 1), (2, 1, 3), (2, 3, 1))))  # 1 and 3 tie
@example(Election(3, ((1, 2, 3), (2, 3, 1), (3, 1, 2))))  # a Condorcet cycle
@example(Election(4, ((4, 1, 2, 3), (4, 2, 3, 1), (4, 3, 1, 2))))  # a cycle above 4
@example(Election(4, ((1, 2, 3, 4), (2, 3, 1, 4), (4, 3, 2, 1), (3, 1, 4, 2))))  # 4 ties 2
def test_condorcet_winner_matches_reference(e):
    assert condorcet_winner(e) == ref.condorcet_winner(e)


def every_profile(m, n):
    """Every election with m candidates and n votes."""
    perms = list(itertools.permutations(range(1, m + 1)))
    return (Election(m, prof) for prof in itertools.product(perms, repeat=n))


def test_condorcet_winner_reads_no_pairwise_stats(monkeypatch):
    # the confirmation must not borrow the tally that greedy_score reads
    def broken(*args, **kwargs):
        raise RuntimeError("pairwise_stats called")

    monkeypatch.setattr(election, "pairwise_stats", broken)
    examples = [Election(2, ((1, 2), (2, 1))), Election(1, ((1,),) * 2),
                Election(4, ((1, 2, 3, 4), (2, 3, 1, 4), (4, 3, 2, 1), (3, 1, 4, 2)))]
    for e in [*examples, *every_profile(3, 3)]:
        assert condorcet_winner(e) == ref.condorcet_winner(e)


def assert_greedy_winner_matches_reference(e):
    for c in e.candidates:
        t = DodgsonTriple(e, c)
        assert greedy_winner(t) == ref.greedy_winner(t)


@given(elections(max_m=6, max_n=4))  # few votes: ties and maybe tags are common
@example(Election(3, ((1, 2, 3), (2, 3, 1), (3, 1, 2))))  # all tie, all definite
@example(Election(4, tuple([(1, 2, 3, 4)] * 3 + [(3, 4, 1, 2)] * 2)))  # maybe elsewhere
def test_greedy_winner_matches_reference(e):
    assert_greedy_winner_matches_reference(e)


def test_greedy_winner_matches_reference_exhaustively_m3_n3():
    for e in every_profile(3, 3):
        assert_greedy_winner_matches_reference(e)


@st.composite
def top_elections(draw):
    """Elections where one drawn candidate sits on top of every vote."""
    m = draw(st.integers(1, 6))
    top = draw(st.integers(1, m))
    rest = [d for d in range(1, m + 1) if d != top]
    votes = [tuple(draw(st.permutations(rest))) + (top,) for _ in range(draw(st.integers(1, 8)))]
    return Election(m, tuple(votes)), top


@given(top_elections())
def test_candidate_on_top_of_every_vote_is_the_condorcet_winner(et):
    e, top = et
    assert condorcet_winner(e) == ref.condorcet_winner(e) == top


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
    assert_matches_reference(Election(8, ranks))


def test_positions_do_not_wrap_at_m_256():
    # positions are uint8 here; d at the bottom and c at the top of every vote
    # sit 255 apart, which an unsigned c + 1 would wrap onto d
    vote = (2, *range(3, 257), 1)
    e = Election(256, (vote,) * 3)
    assert e.positions.dtype == np.uint8
    assert pair_condition_holds(DodgsonTriple(e, 1), 2) is False
    mixed = Election(256, (vote, vote[::-1], vote))
    for c, d in ((1, 2), (2, 1), (1, 256), (256, 1), (2, 3)):
        t = DodgsonTriple(mixed, c)
        assert pair_condition_holds(t, d) is ref.pair_condition_holds(t, d)
    assert condorcet_winner(mixed) == ref.condorcet_winner(mixed) == 1


@pytest.mark.parametrize("d", [0, 1, 4])
def test_invalid_adversary_rejected_like_reference(d):
    t = DodgsonTriple(Election(3, ((1, 2, 3),)), 1)
    for impl in (pair_condition_holds, ref.pair_condition_holds):
        with pytest.raises(ValueError, match=f"adversary {d} invalid"):
            impl(t, d)
