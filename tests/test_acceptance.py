"""Acceptance suite: one test per criterion, each printing its own pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance and runtime limit is pinned here; the stochastic
criteria use fixed seeds and proven bounds, so a failure always means a bug
rather than bad luck.
"""

import itertools
import math
import random
import statistics
import time
from collections import Counter

import numpy as np
import pytest

from dodgson import (
    BoundParams,
    Confidence,
    DodgsonTriple,
    Election,
    SamplerConfig,
    ScoreMode,
    bfs_swap_score,
    exact_dodgson_score,
    greedy_all_winners,
    greedy_score,
    greedy_winner,
    pair_condition_holds,
    run_trials,
    sample_election,
    sample_stream,
)
from dodgson.codec import BitDecodeError, decode, encode, encoded_length
from dodgson.election import adjacency_counts
from dodgson.oracle import DEFAULT_BFS_PROFILE_BUDGET

SIXTY_FORTY = Election(4, tuple([(1, 2, 3, 4)] * 60 + [(3, 4, 1, 2)] * 40))
FIVE_TYPE = Election(
    4,
    tuple(
        [(1, 2, 3, 4)] * 20
        + [(2, 3, 4, 1)] * 20
        + [(3, 4, 1, 2)] * 20
        + [(2, 1, 4, 3)] * 20
        + [(4, 1, 2, 3)] * 20
    ),
)

SEED_MC = 7          # criteria 4-6 Monte Carlo runs
SEED_TREND = 0       # criterion 7
SEED_STATS = 31415   # criterion 8

BOUND_M2_N200 = 4 * math.exp(-6.25)        # ~0.0077218
PAIR_BOUND_M2_N200 = 2 * math.exp(-6.25)   # ~0.0038609


def ok(line: str) -> None:
    print(f"\nACCEPTANCE {line}: PASS")


@pytest.fixture(scope="module")
def mc_reports():
    """Shared Monte Carlo runs for criteria 4 and 6 (implication is enforced
    per-trial inside run_trials; a violation would raise here)."""
    t0 = time.perf_counter()
    rep_m2 = run_trials(BoundParams(2, 200), 100_000, seed=SEED_MC)
    rep_m3 = run_trials(BoundParams(3, 1000), 10_000, seed=SEED_MC)
    return rep_m2, rep_m3, time.perf_counter() - t0


def test_criterion_01_worked_examples():
    t0 = time.perf_counter()
    score_d = exact_dodgson_score(DodgsonTriple(SIXTY_FORTY, 4))
    score_a = exact_dodgson_score(DodgsonTriple(FIVE_TYPE, 1))
    greedy_a = greedy_score(DodgsonTriple(FIVE_TYPE, 1))
    elapsed = time.perf_counter() - t0
    assert score_d == 0
    assert score_a == 22
    assert greedy_a.confidence is Confidence.MAYBE
    assert elapsed < 1.0
    ok(f"criterion 1 (worked examples: 0, 22, maybe in {elapsed:.3f}s)")


def test_criterion_02_exhaustive_self_knowing_m3_n3():
    t0 = time.perf_counter()
    perms = list(itertools.permutations((1, 2, 3)))
    triples_checked = 0
    for prof in itertools.product(perms, repeat=3):
        e = Election(3, prof)
        exact = {}
        for c in (1, 2, 3):
            t = DodgsonTriple(e, c)
            strict_dp = exact_dodgson_score(t, ScoreMode.STRICT)
            strict_bfs = bfs_swap_score(t, ScoreMode.STRICT)
            assert strict_dp == strict_bfs
            tie_dp = exact_dodgson_score(t, ScoreMode.TIE_OR_BEAT)
            tie_bfs = bfs_swap_score(t, ScoreMode.TIE_OR_BEAT)
            assert tie_dp == tie_bfs
            exact[c] = strict_bfs
            g = greedy_score(t)
            if g.confidence is Confidence.DEFINITELY:
                assert g.score == strict_bfs
            triples_checked += 1
        # every certified winner answer must match the oracle predicate
        best = min(exact.values())
        for c in (1, 2, 3):
            res = greedy_winner(DodgsonTriple(e, c))
            if res.confidence is Confidence.DEFINITELY:
                assert res.winner == (exact[c] == best)
    elapsed = time.perf_counter() - t0
    assert triples_checked == 648
    assert elapsed < 120
    ok(f"criterion 2 (648 exhaustive triples, both modes, {elapsed:.1f}s)")


def test_criterion_03_randomized_oracle_agreement():
    t0 = time.perf_counter()
    rng = random.Random(1234)
    bfs_checked = dp_checked = greedy_checked = 0
    for _ in range(2000):
        m = rng.choice((2, 3, 4, 5))
        n = rng.randint(1, 9)
        e = sample_election(SamplerConfig(m, n, rng.getrandbits(64)))
        c = rng.randint(1, m)
        t = DodgsonTriple(e, c)
        dp = exact_dodgson_score(t)
        dp_checked += 1
        if math.factorial(m) ** n <= DEFAULT_BFS_PROFILE_BUDGET:
            assert bfs_swap_score(t) == dp
            bfs_checked += 1
        g = greedy_score(t)
        if g.confidence is Confidence.DEFINITELY:
            assert g.score == dp
            greedy_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    ok(
        f"criterion 3 (2000 random triples: {bfs_checked} BFS-checked, "
        f"{greedy_checked} greedy-definite, {elapsed:.0f}s)"
    )


def test_criterion_04_winner_bound_consistency(mc_reports):
    rep_m2, rep_m3, elapsed = mc_reports
    assert rep_m2.maybe_freq <= BOUND_M2_N200
    assert rep_m3.maybe_freq <= 1.2e-5
    assert elapsed < 300
    ok(
        f"criterion 4 (maybe freq {rep_m2.maybe_freq:.2e} <= {BOUND_M2_N200:.2e} "
        f"and {rep_m3.maybe_freq:.2e} <= 1.2e-5, {elapsed:.0f}s)"
    )


def test_criterion_05_per_pair_bound():
    violations = 0
    trials = 100_000
    for e in sample_stream(SamplerConfig(2, 200, SEED_MC), trials):
        if not pair_condition_holds(DodgsonTriple(e, 1), 2):
            violations += 1
    freq = violations / trials
    assert freq <= PAIR_BOUND_M2_N200
    ok(
        f"criterion 5 (pair (1,2) violation freq {freq:.2e} "
        f"<= {PAIR_BOUND_M2_N200:.2e})"
    )


def test_criterion_06_implication_property(mc_reports):
    # run_trials enforces the implication on every trial of criterion 4
    # (and criterion 5 replays the same substreams); reaching here means
    # zero exceptions across all 110000 trials.  Recheck a slice of each
    # configuration independently through the scalar API.
    rep_m2, rep_m3, _ = mc_reports
    assert rep_m2.trials == 100_000 and rep_m3.trials == 10_000
    rechecked = 0
    for m, n, count in ((2, 200, 1500), (3, 1000, 300)):
        for e in sample_stream(SamplerConfig(m, n, SEED_MC), count):
            for c in e.candidates:
                t = DodgsonTriple(e, c)
                if all(pair_condition_holds(t, d) for d in e.candidates if d != c):
                    assert greedy_score(t).confidence is Confidence.DEFINITELY
                    rechecked += 1
    assert rechecked > 0
    ok(
        f"criterion 6 (implication enforced on all 110000 trials; "
        f"{rechecked} candidate checks replayed independently)"
    )


def test_criterion_07_maybe_frequency_trend():
    freqs = []
    for n in (25, 100, 400):
        rep = run_trials(BoundParams(3, n), 10_000, seed=SEED_TREND)
        freqs.append(rep.maybe_freq)
    assert all(a >= b for a, b in zip(freqs, freqs[1:]))
    ok(f"criterion 7 (maybe freq nonincreasing: {freqs})")


def test_criterion_08_sampler_statistics():
    e = sample_election(SamplerConfig(3, 60_000, seed=SEED_STATS))
    n = e.n
    pos = np.argsort(e.ranks, axis=1)
    for x in range(3):
        for y in range(3):
            if x != y:
                frac = float((pos[:, x] > pos[:, y]).mean())
                assert abs(frac - 0.5) < 0.01
    adj = adjacency_counts(e.ranks)
    for x in range(3):
        for y in range(3):
            if x != y:
                assert abs(adj[x, y] / n - 1 / 3) < 0.01
    from scipy.stats import chisquare

    counts = Counter(e.votes)
    assert len(counts) == 6
    result = chisquare([counts[t] for t in sorted(counts)])
    assert result.pvalue >= 1e-4
    ok(f"criterion 8 (pairwise/adjacency within 0.01, chi2 p={result.pvalue:.3f})")


def test_criterion_09_codec_round_trip_and_fuzz():
    rng = random.Random(99)
    for _ in range(1000):
        m = rng.randint(1, 6)
        n = rng.randint(1, 20)
        votes = tuple(tuple(rng.sample(range(1, m + 1), m)) for _ in range(n))
        t = DodgsonTriple(Election(m, votes), rng.randint(1, m))
        bits = encode(t)
        assert len(bits) == encoded_length(m, n)
        assert decode(bits) == t
    assert encoded_length(4, 100) == 1210

    crashes = 0
    for _ in range(10_000):
        bits = "".join(rng.choice("01") for _ in range(rng.randint(0, 120)))
        try:
            decode(bits)
        except BitDecodeError:
            pass
        except Exception:
            crashes += 1
    assert crashes == 0
    ok("criterion 9 (1000 round trips bit-exact; 10000 fuzz inputs, no crash)")


def test_criterion_10_performance():
    e = sample_election(SamplerConfig(100, 10_000, seed=5))
    t0 = time.perf_counter()
    greedy_all_winners(e)
    big = time.perf_counter() - t0
    assert big < 2.0

    # The two sizes run in interleaved pairs, each pair in alternating order,
    # so both calls of a pair see the same machine load; the median of the
    # pair ratios then discounts pairs that a burst of load split unevenly.
    small = sample_election(SamplerConfig(32, 2**14, seed=6))
    double = sample_election(SamplerConfig(32, 2**15, seed=6))
    ratios = []
    for r in range(16):
        times = {}
        for elec in (small, double) if r % 2 == 0 else (double, small):
            t0 = time.perf_counter()
            greedy_all_winners(elec)
            times[elec.n] = time.perf_counter() - t0
        if r:  # the first pair warms up: first calls pay allocator costs
            ratios.append(times[2**15] / times[2**14])
    ratio = statistics.median(ratios)
    assert ratio <= 2.2
    ok(
        f"criterion 10 (m=100 n=1e4 in {big:.2f}s; doubling ratio "
        f"{ratio:.2f} <= 2.2)"
    )
