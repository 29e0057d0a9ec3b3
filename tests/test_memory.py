"""Scratch memory of the ballot, tally and bit-codec passes at m=100, n=10**4.

Each pass walks the profile in row blocks, so beyond its input and output
it holds a few MB at most.  tracemalloc sees numpy's buffers as well as
Python objects; the peak is measured from the call's start, so inputs that
already exist do not count.  Results are in MiB; each bound sits below the
peak of the earlier whole-profile passes (from 6.7 MiB for
``pairwise_stats`` to 25.7 MiB for ``parse_ballots``).
"""

import tracemalloc

import pytest

from dodgson import DodgsonTriple, SamplerConfig, sample_election
from dodgson.ballots import format_ballots, parse_ballots
from dodgson.codec import decode, encode, read_dtb, read_dtbz, write_dtb, write_dtbz
from dodgson.election import adjacency_counts, pairwise_stats, preference_counts


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    e = sample_election(SamplerConfig(100, 10_000, seed=5))
    triple = DodgsonTriple(e, 1)
    bits = encode(triple)
    path = tmp_path_factory.mktemp("memory") / "x.dtbz"
    write_dtbz(bits, path)
    write_dtb(bits, path.with_name("x.dtb"))
    return {"election": e, "triple": triple, "text": format_ballots(e), "bits": bits,
            "packed": path, "scratch": path.with_name("y.dtbz"), "plain": path.with_name("x.dtb")}


def peak_mib(func, *args) -> float:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = func(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return (peak - before) / 2**20


CASES = {  # name: (bound in MiB, call)
    "parse_ballots": (14, lambda x: parse_ballots(x["text"])),
    "format_ballots": (7, lambda x: format_ballots(x["election"])),
    "preference_counts": (3, lambda x: preference_counts(x["election"].ranks)),
    "adjacency_counts": (3, lambda x: adjacency_counts(x["election"].ranks)),
    "pairwise_stats": (1, lambda x: pairwise_stats(x["triple"])),
    "encode": (15, lambda x: encode(x["triple"])),
    "write_dtbz": (6, lambda x: write_dtbz(x["bits"], x["scratch"])),
    "read_dtbz": (16, lambda x: read_dtbz(x["packed"])),
    "read_dtb": (16, lambda x: read_dtb(x["plain"])),
    "decode": (9, lambda x: decode(x["bits"])),
}


@pytest.mark.parametrize("name", CASES)
def test_peak_scratch_is_bounded(inputs, name):
    bound, call = CASES[name]
    assert peak_mib(call, inputs) <= bound
