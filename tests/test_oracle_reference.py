"""Both exact oracles against the original implementations in reference_oracle.

``exact_dodgson_score`` (dense-table lift DP) and ``bfs_swap_score``
(swap-distance DP over per-vote inversion costs) must equal their
references (a dict DP and a literal profile BFS) on every
candidate and in both modes, and raise the same ``BudgetExceededError``
message when the search space is over the budget.  The DP budget below
bounds each hypothesis example; the budget cases check that both sides
count states or profiles alike.

The hypothesis tests run without a per-example deadline: their time is
mostly the references'.  The dict DP grows with the number of states and
takes from under a millisecond to a few hundred milliseconds per example at
m=7, n=15.  The reference BFS builds its swap table of all m! permutations
in Python on every call, about 0.15 s at m=8 and 2 s at m=9, so its
hypothesis test draws one candidate per example and reaches m=9 (whose only
shape under the default budget is n=1) through one explicit example.
"""

import itertools
import re
from math import factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_oracle as ref
from conftest import elections
from dodgson import (
    BudgetExceededError,
    DodgsonTriple,
    Election,
    ScoreMode,
    bfs_swap_score,
    exact_dodgson_score,
    flips_needed,
    pairwise_stats,
)
from dodgson.oracle import DEFAULT_BFS_PROFILE_BUDGET

BUDGET = 20_000


def assert_matches_reference(e, budget=BUDGET):
    for c in e.candidates:
        t = DodgsonTriple(e, c)
        for mode in ScoreMode:
            try:
                expected = ref.exact_dodgson_score(t, mode, state_budget=budget)
            except BudgetExceededError as err:
                with pytest.raises(BudgetExceededError, match=re.escape(str(err))):
                    exact_dodgson_score(t, mode, state_budget=budget)
            else:
                assert exact_dodgson_score(t, mode, state_budget=budget) == expected


def state_count(t, mode):
    return prod(k + 1 for z in pairwise_stats(t).deficit.values() if (k := flips_needed(z, mode)))


@given(elections(max_m=7, max_n=15))
@settings(max_examples=150, deadline=None)
@example(Election(1, ((1,),)))
@example(Election(7, (tuple(range(1, 8)),) * 15))
def test_every_candidate_and_mode_matches_reference(e):
    assert_matches_reference(e)


@st.composite
def pinned_elections(draw, top):
    """Elections where candidate m sits at the top (or the bottom) of every vote."""
    m = draw(st.integers(2, 7))
    votes = []
    for _ in range(draw(st.integers(1, 15))):
        rest = tuple(draw(st.permutations(range(1, m))))
        votes.append(rest + (m,) if top else (m,) + rest)
    return Election(m, tuple(votes))


@given(pinned_elections(top=True))
@settings(deadline=None)
def test_candidate_on_top_of_every_vote_scores_zero(e):
    t = DodgsonTriple(e, e.m)
    for mode in ScoreMode:
        assert exact_dodgson_score(t, mode) == 0
    assert_matches_reference(e)


@given(pinned_elections(top=False))
@settings(deadline=None)
def test_candidate_at_the_bottom_of_every_vote_matches_reference(e):
    assert_matches_reference(e)


def test_needy_adversary_never_directly_above():
    # candidate 1 is last and 2 always sits between it and 3: every flip
    # against 3 must also cross 2, so two double lifts are optimal
    e = Election(3, ((1, 2, 3),) * 3)
    t = DodgsonTriple(e, 1)
    assert exact_dodgson_score(t) == ref.exact_dodgson_score(t) == 4
    assert exact_dodgson_score(t, ScoreMode.TIE_OR_BEAT) == 4


@pytest.mark.parametrize("mode", list(ScoreMode))
def test_budget_equal_to_the_state_count_passes_and_one_less_raises(five_type, mode):
    t = DodgsonTriple(five_type, 1)
    states = state_count(t, mode)
    assert states > 1
    assert exact_dodgson_score(t, mode, state_budget=states) == ref.exact_dodgson_score(t, mode)
    with pytest.raises(BudgetExceededError) as expected:
        ref.exact_dodgson_score(t, mode, state_budget=states - 1)
    with pytest.raises(BudgetExceededError, match=re.escape(str(expected.value))):
        exact_dodgson_score(t, mode, state_budget=states - 1)


# -- profile BFS ---------------------------------------------------------------

# every (m, n) with (m!)^n within the default profile budget, m=9 aside (see above)
BFS_SHAPES = [
    (m, n)
    for m in range(1, 9)
    for n in range(1, 20)
    if factorial(m) ** n <= DEFAULT_BFS_PROFILE_BUDGET
]


def assert_bfs_matches_reference(t):
    for mode in ScoreMode:
        assert bfs_swap_score(t, mode) == ref.bfs_swap_score(t, mode)


@st.composite
def bfs_triples(draw):
    m, n = draw(st.sampled_from(BFS_SHAPES))
    votes = draw(st.lists(st.permutations(range(1, m + 1)), min_size=n, max_size=n))
    return DodgsonTriple(Election(m, tuple(map(tuple, votes))), draw(st.integers(1, m)))


@given(bfs_triples())
@settings(max_examples=150, deadline=None)
@example(DodgsonTriple(Election(9, (tuple(range(1, 10)),)), 1))  # deepest search at m=9
@example(DodgsonTriple(Election(2, ((1, 2),) * 16), 1))  # frontiers up to C(16, 8)
def test_bfs_matches_reference_on_every_feasible_shape(t):
    assert_bfs_matches_reference(t)


def test_bfs_matches_reference_exhaustively_up_to_three_candidates_and_votes():
    for m in (1, 2, 3):
        perms = list(itertools.permutations(range(1, m + 1)))
        for n in (1, 2, 3):
            for votes in itertools.product(perms, repeat=n):
                e = Election(m, votes)
                for c in e.candidates:
                    assert_bfs_matches_reference(DodgsonTriple(e, c))


@pytest.mark.parametrize("n", [1, 2, 1000])
def test_bfs_single_candidate_scores_zero(n):
    t = DodgsonTriple(Election(1, ((1,),) * n), 1)
    for mode in ScoreMode:
        assert bfs_swap_score(t, mode) == ref.bfs_swap_score(t, mode) == 0


@pytest.mark.parametrize("m, n", [(2, 10), (3, 3), (4, 2), (6, 1)])
@pytest.mark.parametrize("mode", list(ScoreMode))
def test_bfs_budget_equal_to_the_profile_count_passes_and_one_less_raises(m, n, mode):
    t = DodgsonTriple(Election(m, (tuple(range(1, m + 1)),) * n), 1)  # 1 at the bottom
    profiles = factorial(m) ** n
    expected = ref.bfs_swap_score(t, mode)
    assert bfs_swap_score(t, mode, profile_budget=profiles) == expected > 0
    with pytest.raises(BudgetExceededError) as over:
        ref.bfs_swap_score(t, mode, profile_budget=profiles - 1)
    with pytest.raises(BudgetExceededError, match=re.escape(str(over.value))):
        bfs_swap_score(t, mode, profile_budget=profiles - 1)
