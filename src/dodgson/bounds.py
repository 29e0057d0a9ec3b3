"""Closed-form correctness-frequency bounds and the Monte Carlo harness
that checks them empirically.

The theory gives, for uniform random elections with m candidates and n
votes:

* per ordered candidate pair, the probability that the pair's tally
  conditions fail is below ``2 * exp(-n / (8 m^2))``;
* the probability that any candidate's greedy winner check answers "maybe"
  is below ``2 (m^2 - m) * exp(-n / (8 m^2))``.

Both are proven bounds, so an empirical frequency above them (at trial
counts where noise cannot cross the gap) indicates a bug, not bad luck.
"""

from __future__ import annotations

import csv
import itertools
import json
import time
from dataclasses import asdict, dataclass
from math import comb, exp
from typing import Optional

import numpy as np

from .election import (
    DodgsonTriple,
    Election,
    adjacency_counts,
    preference_counts,
)
from .greedy import Confidence, _score_all, _winner_set
from .oracle import (
    DEFAULT_DP_STATE_BUDGET,
    ScoreMode,
    dodgson_winners,
    exact_dodgson_score,
    profile_count,
)
from .sampling import SamplerConfig, sample_ranks, substream_seed, substreams

EXHAUSTIVE_PROFILE_CAP = 10**6

CSV_COLUMNS = [
    "m",
    "n",
    "trials",
    "seed",
    "maybe_freq",
    "pairfail_freq",
    "bound_winner",
    "bound_pair",
    "mismatches",
    "wall_time",
]


class SelfCheckError(RuntimeError):
    """A proven-impossible event happened; the implementation is broken."""


@dataclass(frozen=True)
class BoundParams:
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"need m >= 1 and n >= 1, got m={self.m}, n={self.n}")


@dataclass
class ExperimentReport:
    m: int
    n: int
    trials: int
    seed: int
    maybe_count: int
    pairfail_count: int
    mismatch_count: int
    bound_winner: float
    bound_pair: Optional[float]  # None when m = 1 (no candidate pairs exist)
    wall_time: float

    @property
    def maybe_freq(self) -> float:
        return self.maybe_count / self.trials

    @property
    def pairfail_freq(self) -> float:
        return self.pairfail_count / self.trials

    @property
    def mismatches(self) -> int:
        return self.mismatch_count

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    def csv_row(self) -> list:
        """The ``CSV_COLUMNS`` values, by attribute; ``None`` becomes ``""``."""
        row = [getattr(self, name) for name in CSV_COLUMNS]
        return ["" if v is None else v for v in row]


def bound_winner(p: BoundParams) -> float:
    """Upper bound on Pr[some candidate's greedy winner check says "maybe"]."""
    return 2.0 * (p.m**2 - p.m) * exp(-p.n / (8.0 * p.m**2))


def bound_pair(p: BoundParams) -> float:
    """Upper bound on Pr[one ordered pair's tally conditions fail].

    Can exceed 1 for tiny n (vacuous but reported as-is).  Undefined for
    m = 1, where no pair exists.
    """
    if p.m < 2:
        raise ValueError("pair bound needs at least two candidates")
    return 2.0 * exp(-p.n / (8.0 * p.m**2))


def pair_condition_holds(triple: DodgsonTriple, d: int) -> bool:
    """Tally conditions that make the greedy score provably definite for this pair.

    For candidate c against adversary d:
    #votes(d preferred to c) <= (2mn + n) / 4m  and
    #votes(d immediately above c) >= 3n / 4m.
    Both counts are read off two columns of ``Election.positions``: O(n).
    """
    e, c = triple.election, triple.candidate
    if d == c or not 1 <= d <= e.m:
        raise ValueError(f"adversary {d} invalid for candidate {c} in 1..{e.m}")
    pos = e.positions
    # signed, so that d at the bottom and c at the top of an m = 256 vote do not wrap to 1
    lead = np.subtract(pos[:, d - 1], pos[:, c - 1], dtype=np.intp)
    prefer_d, adjacent = np.count_nonzero(lead > 0), np.count_nonzero(lead == 1)
    return bool(_pair_ok(prefer_d, adjacent, e.m, e.n))


def _pair_ok(prefer_d, adjacent, m: int, n: int):
    """The two tally conditions, cross-multiplied to integers; no floating point.

    Works elementwise on arrays of counts as well as on single counts.
    """
    return (4 * m * prefer_d <= 2 * m * n + n) & (4 * m * adjacent >= 3 * n)


def _pair_condition_matrix(pref: np.ndarray, adj: np.ndarray, m: int, n: int) -> np.ndarray:
    """ok[c-1, d-1] = tally conditions hold for ordered pair (c, d); diagonal True."""
    ok = _pair_ok(pref.T, adj, m, n)  # pref.T[c-1, d-1] = #votes preferring d to c
    np.fill_diagonal(ok, True)
    return ok


def _multisets(m: int, n: int):
    """(weight, ranks) for each multiset of n votes over m candidates.

    Multisets come in ``itertools.combinations_with_replacement`` order over
    the m! rankings.  ``ranks`` holds the multiset's votes sorted, which is
    also its least profile in ``itertools.product`` order, and ``weight`` is
    the multinomial count of its orderings.
    """
    perms = list(itertools.permutations(range(1, m + 1)))
    for combo in itertools.combinations_with_replacement(range(len(perms)), n):
        weight, left = 1, n
        for _, group in itertools.groupby(combo):
            k = len(list(group))
            weight, left = weight * comb(left, k), left - k
        yield weight, np.array([perms[k] for k in combo], dtype=np.int32)


def run_trials(
    params: BoundParams,
    trials: int,
    seed: int,
    *,
    oracle: bool = False,
    exhaustive: bool = False,
    oracle_budget: int = DEFAULT_DP_STATE_BUDGET,
) -> ExperimentReport:
    """Monte Carlo (or exhaustive) sweep checking greedy confidence against the bounds.

    Per election: greedy-score every candidate, count a "maybe" trial if any
    candidate is uncertain, and count a pair-fail trial if any ordered pair
    violates the tally conditions.  Two proven facts are enforced as hard
    errors on every trial: a candidate whose pairs all satisfy the conditions
    must be definite, and (with oracle=on) every definite score/answer must
    match the exact oracle.  Each error names the trial and what regenerates
    its election: a sampled trial's substream seed, which
    ``dodgson generate --seed`` takes, or an exhaustive trial's ballots.

    With ``exhaustive=True`` the frequencies are exact over all (m!)^n
    profiles, and ``trials`` is ignored.  Every count depends on a profile
    only through its multiset of votes, so the sweep scores one election per
    multiset, weighted by its multinomial count of orderings.  The cap is
    still (m!)^n <= 10^6 profiles.  An error names the multiset's position in
    the walk and prints its sorted ballots, most preferred first, as
    ``dodgson decode`` prints them: the least failing profile.
    """
    m, n = params.m, params.n
    t0 = time.perf_counter()

    config = SamplerConfig(m, n, seed)  # checks the seed whichever source runs
    if exhaustive:
        trials = profile_count(m, n, EXHAUSTIVE_PROFILE_CAP, "exhaustive mode")
        cases = _multisets(m, n)
    else:
        cases = ((1, sample_ranks(cfg)) for cfg in substreams(config, trials))

    def where(i: int, ranks: np.ndarray) -> str:
        source = (f"ballots {ranks[:, ::-1].tolist()}" if exhaustive
                  else f"substream seed {substream_seed(seed, i)}")
        return f"trial {i}, {source}, m={m}, n={n}, seed={seed}"

    maybe_count = 0
    pairfail_count = 0
    mismatch_count = 0
    first_mismatch = ""
    for i, (weight, ranks) in enumerate(cases):
        pref = preference_counts(ranks)
        adj = adjacency_counts(ranks)
        results = _score_all(pref, adj)
        definite = [r.confidence is Confidence.DEFINITELY for r in results]
        if not all(definite):
            maybe_count += weight

        holds = _pair_condition_matrix(pref, adj, m, n).all(axis=1).tolist()
        if not all(holds):
            pairfail_count += weight
        for c in range(1, m + 1):
            if holds[c - 1] and not definite[c - 1]:
                raise SelfCheckError(
                    f"tally conditions hold for candidate {c} but greedy "
                    f"confidence is 'maybe' ({where(i, ranks)})"
                )

        if oracle:
            e = Election(m, ranks)
            exact = {
                c: exact_dodgson_score(
                    DodgsonTriple(e, c), ScoreMode.STRICT, state_budget=oracle_budget
                )
                for c in e.candidates
                if definite[c - 1]
            }
            bad = any(exact[c] != results[c - 1].score for c in exact)
            if all(definite):
                bad = bad or _winner_set(results).winners != dodgson_winners(
                    e, ScoreMode.STRICT, state_budget=oracle_budget
                )
            if bad:
                if not mismatch_count:
                    first_mismatch = where(i, ranks)
                mismatch_count += weight

    if mismatch_count:
        raise SelfCheckError(
            f"{mismatch_count} definite greedy answers disagreed with the exact "
            f"oracle; the first in {first_mismatch}"
        )

    return ExperimentReport(
        m=m,
        n=n,
        trials=trials,
        seed=seed,
        maybe_count=maybe_count,
        pairfail_count=pairfail_count,
        mismatch_count=mismatch_count,
        bound_winner=bound_winner(params),
        bound_pair=bound_pair(params) if m >= 2 else None,
        wall_time=time.perf_counter() - t0,
    )


def write_report(reports: list[ExperimentReport], path) -> None:
    """One JSON object per report and per line, as ``dodgson experiment`` prints them."""
    with open(path, "w") as fh:
        fh.writelines(r.to_json() + "\n" for r in reports)


def write_csv(reports: list[ExperimentReport], path) -> None:
    """The ``CSV_COLUMNS`` header, then one row per report."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in reports:
            writer.writerow(r.csv_row())
