"""The dense-table lift DP against the dict-of-states reference in reference_oracle.

``exact_dodgson_score`` must equal the reference on every candidate and in
both modes, and raise the same ``BudgetExceededError`` message when the
state space is over the budget.  The budget below bounds each hypothesis
example; the budget cases check that both sides count states alike.

The hypothesis tests run without a per-example deadline: their time is
mostly the reference's dict DP, which grows with the number of states and
takes from under a millisecond to a few hundred milliseconds per example
at m=7, n=15.
"""

import re
from math import prod

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
    exact_dodgson_score,
    flips_needed,
    pairwise_stats,
)

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
