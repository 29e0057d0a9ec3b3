"""Seed-reproducible uniform election sampling.

Every vote is an independent uniform draw over all m! rankings (Fisher-Yates
via numpy's per-row ``permuted``, which is unbiased).  Monte Carlo trials use
substreams: trial i derives its own 64-bit seed from (seed, i) through
``numpy.random.SeedSequence``, so any subset of trials can be regenerated
independently and in parallel with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .election import Election


@dataclass(frozen=True)
class SamplerConfig:
    m: int
    n: int
    seed: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"need m >= 1 and n >= 1, got m={self.m}, n={self.n}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


def rank_array(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """(n, m) array of n independent uniform rankings, ascending order."""
    base = np.tile(np.arange(1, m + 1, dtype=np.int32), (n, 1))
    return rng.permuted(base, axis=1, out=base)  # in place: the tile is the only copy


def sample_ranks(cfg: SamplerConfig) -> np.ndarray:
    """Array form of :func:`sample_election`; same stream, same votes."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    return rank_array(rng, cfg.m, cfg.n)


def sample_election(cfg: SamplerConfig) -> Election:
    """One uniform random election; identical config gives identical votes."""
    return Election(cfg.m, sample_ranks(cfg))


def substream_seed(seed: int, trial: int) -> int:
    """The derived 64-bit seed that trial number ``trial`` samples from."""
    ss = np.random.SeedSequence((seed, trial))
    return int(ss.generate_state(1, np.uint64)[0])


def substreams(cfg: SamplerConfig, trials: int) -> Iterator[SamplerConfig]:
    """The config that trial i samples from, for i in ``range(trials)``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for i in range(trials):
        yield replace(cfg, seed=substream_seed(cfg.seed, i))


def sample_stream(cfg: SamplerConfig, trials: int) -> Iterator[Election]:
    """``trials`` independent elections, one substream per trial."""
    return map(sample_election, substreams(cfg, trials))
