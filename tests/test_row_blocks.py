"""Blocked whole-profile passes against the scalar references at block edges.

Parsing, formatting, the tallies and the bit codec walk a profile in row
blocks of ``_block_rows(m)`` votes.  Each must agree with ``reference_io``
and ``reference_tally`` when n is one vote short of a block, exactly one
block, one vote over, and two blocks plus one; and a bad entry or bit placed
past the first block must give the reference's error, line and message.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

import reference_io as ref_io
import reference_tally as ref_tally
from dodgson import DodgsonTriple, Election, SamplerConfig, sample_election
from dodgson.ballots import BallotFile, BallotParseError, format_ballots, parse_ballots
from dodgson.codec import (BitDecodeError, decode, encode, encoded_length, read_dtb,
                           read_dtbz, write_dtbz)
from dodgson.election import (_BLOCK_CELLS, _block_rows, adjacency_counts, invalid_votes,
                              pairwise_stats, preference_counts)
from test_io_reference import outcome

CANDIDATE_COUNTS = (1, 2, 3, 100, 255, 256, 257)


def block_edges(rows):
    """n one short of a block of ``rows`` votes, one block, one over, and two blocks plus one."""
    return [n for n in (rows - 1, rows, rows + 1, 2 * rows + 1) if n >= 1]


def edge_sizes(m):
    """The block edges of the passes that walk ``_block_rows(m)`` votes at a time."""
    return block_edges(_block_rows(m))


def edge_profile(m):
    """A profile of the largest edge size; every edge size is a prefix of it."""
    return sample_election(SamplerConfig(m, edge_sizes(m)[-1], seed=m))


def dtbz_bytes_and_bits(write, read, bits):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.dtbz"
        write(bits, path)
        return path.read_bytes(), read(path)


@pytest.mark.parametrize("m", CANDIDATE_COUNTS)
def test_io_matches_reference_at_block_edges(m):
    whole = edge_profile(m)
    labels = tuple(f"v{c}" for c in whole.candidates)
    # every edge profile is a prefix of the largest: so are its ballot lines
    # and, as the vote count is not stored, its bits
    plain = ref_io.format_ballots(whole).splitlines()
    named = ref_io.format_ballots(whole, labels).splitlines()
    reference_bits = ref_io.encode(DodgsonTriple(whole, m))
    for n in edge_sizes(m):
        e = Election(m, whole.ranks[:n])
        for names, lines in ((None, plain), (labels, named)):
            head = len(lines) - whole.n  # the 'm n' line, and the names line if any
            text = format_ballots(e, names)
            assert text == "\n".join([f"{m} {n}", *lines[1 : head + n], ""])
            want = BallotFile(e, names or tuple(map(str, e.candidates)))
            assert parse_ballots(text) == want
            assert parse_ballots(text[:-1]) == want  # no final newline

        t = DodgsonTriple(e, m)
        bits = encode(t)
        assert bits == reference_bits[: encoded_length(m, n)]
        assert decode(bits) == t
        got = dtbz_bytes_and_bits(write_dtbz, read_dtbz, bits)
        assert got == dtbz_bytes_and_bits(ref_io.write_dtbz, ref_io.read_dtbz, bits)
        assert got[1] == bits


@pytest.mark.parametrize("m", CANDIDATE_COUNTS)
def test_format_matches_reference_at_its_block_edges(m):
    """format_ballots gathers ``_block_rows(m * W)`` votes at a time, W bytes a label field."""
    for names in (None, tuple(f"v{c}" for c in range(1, m + 1))):
        width = max(map(len, names or map(str, range(1, m + 1)))) + 1  # a label and ',' or '\n'
        sizes = block_edges(_block_rows(m * width))
        whole = sample_election(SamplerConfig(m, sizes[-1], seed=m))
        lines = ref_io.format_ballots(whole, names).splitlines()
        head = len(lines) - whole.n
        for n in sizes:
            e = Election(m, whole.ranks[:n])
            assert format_ballots(e, names) == "\n".join([f"{m} {n}", *lines[1 : head + n], ""])


@pytest.mark.parametrize("m", CANDIDATE_COUNTS)
def test_tallies_match_reference_at_block_edges(m):
    ranks = edge_profile(m).ranks
    sizes = edge_sizes(m)
    # the reference counts one vote at a time, so its tallies of consecutive
    # row ranges add up to the tally of their union
    want = np.zeros((m, m), dtype=np.int64)
    lo = 0
    for n in sizes:
        want += ref_tally.preference_counts(ranks[lo:n])
        lo = n
        assert np.array_equal(preference_counts(ranks[:n]), want)
        e = Election(m, ranks[:n])
        assert np.array_equal(e.positions, np.argsort(e.ranks, axis=1))
        assert e.positions.dtype == np.min_scalar_type(m - 1)
        for c in sorted({1, m // 2 + 1, m}):
            t = DodgsonTriple(e, c)
            assert pairwise_stats(t) == ref_tally.pairwise_stats(t)
    n = sizes[-1]
    e = Election(m, ranks[:n])
    adj = adjacency_counts(ranks[:n])
    for c in (1, m // 2 + 1, m):
        stats = ref_tally.pairwise_stats(DodgsonTriple(e, c))
        assert [adj[c - 1, d - 1] for d in stats.swaps] == list(stats.swaps.values())
    assert adj.sum() == n * (m - 1)


@pytest.mark.parametrize("m", CANDIDATE_COUNTS)
def test_invalid_votes_found_in_every_block(m):
    rows = _block_rows(m)
    ranks = np.array(edge_profile(m).ranks)
    bad = [0, rows - 1, rows, len(ranks) - 1]
    ranks[bad, 0] = m + 1
    assert invalid_votes(m, ranks).tolist() == sorted(set(b for b in bad if b < len(ranks)))
    assert invalid_votes(m, ranks[:0]).tolist() == []


def edited_text(m, edits):
    """Canonical text of ``edge_profile(m)`` with ``edits[v]`` applied to the
    entries of vote v (0-based; it sits on line v + 2)."""
    lines = format_ballots(edge_profile(m)).splitlines()
    for vote, edit in edits.items():
        lines[1 + vote] = ",".join(edit(lines[1 + vote].split(",")))
    return "\n".join(lines) + "\n"


def assert_parse_error_matches_reference(text, line):
    got = outcome(parse_ballots, text)
    assert got[0] is BallotParseError and got[2] == line
    assert got == outcome(ref_io.parse_ballots, text)
    return got[1]


# Each replaces an entry of one vote; the ones built from the entry would
# wrap back onto it in int32 (or int64), keeping the ballot a ranking.
BAD_TOKENS = {
    "x": lambda entry: "x",
    "0": lambda entry: "0",
    "4294967301": lambda entry: "4294967301",
    "9223372036854775808": lambda entry: "9223372036854775808",
    "entry+2**32": lambda entry: str(int(entry) + 2**32),
    "entry-2**32": lambda entry: str(int(entry) - 2**32),
    "entry+2**64": lambda entry: str(int(entry) + 2**64),
}


def replace_last(token):
    return lambda entries: [*entries[:-1], BAD_TOKENS[token](entries[-1])]


@pytest.mark.parametrize("m", (3, 100, 257))
@pytest.mark.parametrize("token", BAD_TOKENS)
def test_bad_entry_in_second_block_matches_reference(m, token):
    vote = _block_rows(m) + 1
    text = edited_text(m, {vote: replace_last(token)})
    assert "out of range" in assert_parse_error_matches_reference(text, vote + 2)


@pytest.mark.parametrize("m", (3, 100, 257))
@pytest.mark.parametrize("token", [t for t in BAD_TOKENS if t not in ("x", "0")])
def test_overflow_after_a_non_canonical_entry_matches_reference(m, token):
    """A '+1'-style entry sends the rest of the file to the line-by-line route."""
    vote = _block_rows(m) + 1
    text = edited_text(m, {vote: lambda entries: ["+" + entries[0], *entries[1:]],
                           vote + 1: replace_last(token)})
    assert "out of range" in assert_parse_error_matches_reference(text, vote + 3)


@pytest.mark.parametrize("m", (3, 100, 257))
def test_non_permutation_in_second_block_matches_reference(m):
    vote = _block_rows(m) + 1
    text = edited_text(m, {vote: lambda entries: entries[:-1] + entries[:1]})
    assert "not a strict ranking" in assert_parse_error_matches_reference(text, vote + 2)


# Each edits the ballot line at index i of a canonical file's lines.
SECOND_BLOCK_EDITS = {
    "missing entry": lambda lines, i: lines.__setitem__(i, lines[i].rpartition(",")[0]),
    "extra entry": lambda lines, i: lines.__setitem__(i, lines[i] + ",1"),
    "empty entry": lambda lines, i: lines.__setitem__(i, lines[i] + ","),
    "repeated candidate": lambda lines, i: lines.__setitem__(
        i, ",".join([*lines[i].split(",")[:-1], lines[i].split(",")[0]])),
    "19-digit m+1": lambda lines, i: lines.__setitem__(
        i, ",".join([*lines[i].split(",")[:-1], str(len(lines[i].split(",")) + 1).zfill(19)])),
    "extra line": lambda lines, i: lines.insert(i, lines[i]),
    "missing line": lambda lines, i: lines.pop(i),
}


@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("m, edit", [(m, edit) for m in CANDIDATE_COUNTS for edit in SECOND_BLOCK_EDITS
                                     if not (m == 1 and edit == "repeated candidate")])
def test_bad_line_in_second_block_matches_reference(m, edit, final_newline):
    vote = _block_rows(m) + 1
    lines = format_ballots(edge_profile(m)).splitlines()
    SECOND_BLOCK_EDITS[edit](lines, 1 + vote)
    text = "\n".join(lines) + "\n" * final_newline
    got = outcome(parse_ballots, text)
    assert got[0] is BallotParseError and got[2] >= vote + 1
    assert got == outcome(ref_io.parse_ballots, text)


@pytest.mark.parametrize("m", (3, 100))
def test_padded_entry_in_second_block_parses_like_reference(m):
    vote = _block_rows(m) + 1
    text = edited_text(m, {vote: lambda entries: [f" +{entries[0]} ", *entries[1:]]})
    got = outcome(parse_ballots, text)
    assert got[0] == "ok"
    assert got == outcome(ref_io.parse_ballots, text)
    assert got[1].election == edge_profile(m)


@pytest.mark.parametrize("bad", ["2x", "x٣"])
def test_bad_bit_characters_past_the_first_slice_are_all_named(bad):
    e = edge_profile(100)
    bits = encode(DodgsonTriple(e, 1))
    assert len(bits) > 3 * _BLOCK_CELLS
    damaged = (bits[: _BLOCK_CELLS + 5] + bad[0] + bits[_BLOCK_CELLS + 6 : 2 * _BLOCK_CELLS + 9]
               + bad[1] + bits[2 * _BLOCK_CELLS + 10 :])
    got = outcome(decode, damaged)
    assert got == outcome(ref_io.decode, damaged)
    assert got[1] == f"not a bit string: unexpected {sorted(bad)!r}"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.dtbz"
        assert outcome(write_dtbz, damaged, path)[:2] == (BitDecodeError, got[1])
        assert not path.exists()
        path = Path(tmp) / "x.dtb"
        path.write_text(damaged)
        assert outcome(read_dtb, path)[:2] == (
            BitDecodeError, f"not a bit file: unexpected {sorted(bad)!r}")
