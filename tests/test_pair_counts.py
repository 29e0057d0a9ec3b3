"""Two-sided gates on the per-pair counts, against exact probabilities.

Under impartial culture (IC) each vote falls into one of three cases for an
ordered pair (c, d): d directly above c (probability 1/m), d above c but not
adjacent (1/2 - 1/m), or c above d (1/2).  The a votes of the first case and
the b votes of the second are therefore trinomial, and any event on (a, b)
has an exact probability as an O(n^2) sum.  Two such events are checked:

* the pair's tally conditions fail: ``#(d above c) = a + b`` exceeds
  (2mn + n) / 4m, or ``#(d directly above c) = a`` falls below 3n / 4m;
* the pair is short: ``2b >= n``, the event that makes a greedy score
  ``maybe`` (b ~ Bin(n, 1/2 - 1/m)).

Each test counts the event over every ordered pair of fixed-seed sampled
trials and accepts the total only inside the exact mean +- 5 standard
errors, the error taken from the per-trial counts' sample variance.  A
one-sided check (count <= bound) misses an undercount; this one does not.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from dodgson import SamplerConfig
from dodgson.bounds import _pair_condition_matrix
from dodgson.election import adjacency_counts, preference_counts
from dodgson.sampling import sample_ranks, substreams

TRIALS = 2000


def trinomial_probability(m: int, n: int, event) -> float:
    """Pr[event(a, b)] for a ~ votes with d directly above c, b ~ d above c but not adjacent."""
    logs = [math.log(1 / m), math.log(1 / 2 - 1 / m) if m > 2 else 0, math.log(1 / 2)]
    terms = []
    for a in range(n + 1):
        for b in range(n - a + 1 if m > 2 else 1):  # at m = 2 every d above c is adjacent
            if event(a, b):
                rest = n - a - b
                terms.append(math.exp(
                    math.lgamma(n + 1) - math.lgamma(a + 1) - math.lgamma(b + 1)
                    - math.lgamma(rest + 1) + a * logs[0] + b * logs[1] + rest * logs[2]))
    return math.fsum(terms)


def tally_conditions_fail(m: int, n: int):
    """Whether the paper's tally conditions fail for a vote split (a, b); not ``_pair_ok``."""
    return lambda a, b: not (4 * m * (a + b) <= 2 * m * n + n and 4 * m * a >= 3 * n)


def short(n: int):
    return lambda a, b: 2 * b >= n


def sampled_counts(m: int, n: int, seed: int, count) -> np.ndarray:
    """count(ranks) for each of ``TRIALS`` fixed-seed sampled trials."""
    return np.array([count(sample_ranks(cfg))
                     for cfg in substreams(SamplerConfig(m, n, seed), TRIALS)])


def within_five_standard_errors(counts: np.ndarray, expected: float) -> bool:
    """Whether the total of ``counts`` lies within 5 standard errors of ``expected``."""
    return abs(counts.sum() - expected) <= 5 * math.sqrt(len(counts) * counts.var(ddof=1))


@pytest.mark.parametrize("m, n", [(2, 5), (3, 7), (4, 10), (5, 9)])
def test_the_sum_is_a_distribution_and_its_short_side_is_the_binomial_tail(m, n):
    assert trinomial_probability(m, n, lambda a, b: True) == pytest.approx(1, abs=1e-12)
    p = Fraction(1, 2) - Fraction(1, m)
    tail = sum(math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range((n + 1) // 2, n + 1))
    assert trinomial_probability(m, n, short(n)) == pytest.approx(float(tail), rel=1e-12)


def test_failing_pair_count_is_two_sided_at_the_tally_edges():
    # at (4, 48) both conditions hold with equality at a + b = 27 and a = 9,
    # so a strict comparison in place of either one moves the count
    m, n = 4, 48
    expected = TRIALS * m * (m - 1) * trinomial_probability(m, n, tally_conditions_fail(m, n))
    assert expected == pytest.approx(6559.8, abs=0.05)

    def failing(ranks):
        ok = _pair_condition_matrix(preference_counts(ranks), adjacency_counts(ranks), m, n)
        return np.count_nonzero(~ok)

    assert within_five_standard_errors(sampled_counts(m, n, 31, failing), expected)


def test_short_pair_count_is_two_sided_and_excludes_the_strict_count():
    m, n = 6, 60
    expected = TRIALS * m * (m - 1) * trinomial_probability(m, n, short(n))
    strict = TRIALS * m * (m - 1) * trinomial_probability(m, n, lambda a, b: 2 * b > n)
    assert (expected, strict) == pytest.approx((333.2, 153.4), abs=0.05)

    def shorts(ranks):
        b = preference_counts(ranks).T - adjacency_counts(ranks)
        return np.count_nonzero(2 * b >= n)

    counts = sampled_counts(m, n, 32, shorts)
    assert within_five_standard_errors(counts, expected)
    assert not within_five_standard_errors(counts, strict)
