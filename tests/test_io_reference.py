"""The array ballot and bit-file I/O against the scalar reference in reference_io.

Every input, valid or not, must give the same outcome from both: equal
results, or the same error type, message and line number.  Candidate counts
include the values where the bit-field width L changes (m = 1, 3/4, 7/8,
255/256).
"""

import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_io as ref
from dodgson import DodgsonTriple, Election, SamplerConfig, sample_election
from dodgson.ballots import BallotParseError, format_ballots, parse_ballots
from dodgson.codec import decode, encode, read_dtbz, write_dtbz

WIDTH_EDGES = (1, 3, 4, 7, 8, 255, 256)
candidate_counts = st.sampled_from(WIDTH_EDGES) | st.integers(1, 6)


def outcome(func, *args):
    try:
        return "ok", func(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc), getattr(exc, "line", None)


@st.composite
def profiles(draw, max_small_n=6, max_large_n=3):
    m = draw(candidate_counts)
    n = draw(st.integers(1, max_small_n if m <= 8 else max_large_n))
    votes = [draw(st.permutations(range(1, m + 1))) for _ in range(n)]
    return Election(m, tuple(tuple(v) for v in votes))


# -- ballot text --------------------------------------------------------------

ODD_TOKENS = ["0", "-1", "1", "2", "+1", "01", "1_0", "1.5", "", " ", "x", "zz",
              "99999999999999999999", "n1", "n2", "#", "\u0663",  # Arabic-Indic 3
              "000000000000000000001", "9223372036854775808", "18446744073709551617"]


def parse_outcomes(text):
    """Outcomes of both parsers; the array one must not warn (numpy may, on bad input)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(parse_ballots, text)
    return got, outcome(ref.parse_ballots, text)


@st.composite
def ballot_texts(draw):
    """Ballot files in every style, most of them then damaged a little."""
    e = draw(profiles())
    m, n = e.m, e.n
    style = draw(st.sampled_from(["index", "names", "first"]))
    label = str if style == "index" else (lambda c: f"n{c}")
    rows = [[label(c) for c in reversed(vote)] for vote in e.votes]
    odd = st.sampled_from(ODD_TOKENS + [str(m), str(m + 1), label(1)])

    header = [f"{m} {n}"]
    if style == "names":
        header.append("names: " + ",".join(label(c) for c in e.candidates))
    for _ in range(draw(st.integers(0, 3))):
        damage = draw(st.sampled_from(["replace", "drop", "add", "swap", "header",
                                       "names", "row"]))
        row = rows[draw(st.integers(0, len(rows) - 1))]
        j = draw(st.integers(0, max(0, len(row) - 1)))
        if damage == "replace" and row:
            row[j] = draw(odd)
        elif damage == "drop" and row:
            del row[j]
        elif damage == "add":
            row.insert(j, draw(odd))
        elif damage == "swap" and row:  # a duplicate entry
            row[0] = row[-1]
        elif damage == "header":
            header[0] = draw(st.sampled_from(
                [f"{m} {n + 1}", f"{m} {n - 1}", f"{m + 1} {n}", "x 2", f"{m} {n} 1", ""]))
        elif damage == "names":
            header[-1] = "names: " + ",".join(draw(st.lists(odd, max_size=3)))
        elif damage == "row":
            rows.insert(j % len(rows), list(row))

    pad = draw(st.sampled_from(["", " ", "\t"]))
    lines = header + [",".join(pad + t + pad for t in row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):  # comments and blank lines anywhere
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "   ", "# comment", " #1,2,3"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@given(ballot_texts())
@settings(max_examples=400, deadline=None)
def test_parse_matches_reference(text):
    got, want = parse_outcomes(text)
    assert got == want
    if got[0] == "ok":
        bf = got[1]
        assert format_ballots(bf.election, bf.labels) == ref.format_ballots(
            bf.election, bf.labels)


@given(st.text(alphabet="0123,ab \n#:-", max_size=60).map(lambda s: "3 2\n" + s))
@settings(max_examples=300, deadline=None)
def test_parse_matches_reference_on_garbage(text):
    got, want = parse_outcomes(text)
    assert got == want


def canonical_lines(m, n):
    """A sampled profile as format_ballots writes it: ASCII digits and commas only."""
    return format_ballots(sample_election(SamplerConfig(m, n, seed=m + n))).splitlines()


@pytest.mark.parametrize("m, n", [(100, 2000), (1, 1), (1, 1000)])
def test_canonical_file_matches_reference(m, n):
    got, want = parse_outcomes("\n".join(canonical_lines(m, n)) + "\n")
    assert got[0] == "ok"
    assert got == want


@pytest.mark.parametrize("m, n", [(100, 2000), (1, 1000)])
@pytest.mark.parametrize("last", ["0", "m+1"])
def test_canonical_file_with_bad_last_entry_matches_reference(m, n, last):
    lines = canonical_lines(m, n)
    lines[-1] = ",".join(lines[-1].split(",")[:-1] + ["0" if last == "0" else str(m + 1)])
    got, want = parse_outcomes("\n".join(lines) + "\n")
    assert got[0] is BallotParseError and got[2] == n + 1
    assert got == want


@given(profiles(), st.sampled_from(["none", "default", "names", "short"]))
@settings(max_examples=100, deadline=None)
def test_format_matches_reference(e, labels):
    labels = {
        "none": None,
        "default": tuple(str(c) for c in e.candidates),
        "names": tuple(f"v{c}" for c in e.candidates),
        "short": ("only",) * (e.m - 1),
    }[labels]
    assert outcome(format_ballots, e, labels) == outcome(ref.format_ballots, e, labels)


# -- bit codec ----------------------------------------------------------------


def dtbz_round_trip(write, read, bits):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.dtbz"
        write(bits, path)
        return path.read_bytes(), outcome(read, path)


def read_raw(read, raw: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.dtbz"
        path.write_bytes(raw)
        return outcome(read, path)


@given(profiles(), st.data())
@settings(max_examples=120, deadline=None)
def test_codec_matches_reference(e, data):
    t = DodgsonTriple(e, data.draw(st.integers(1, e.m)))
    bits = encode(t)
    assert bits == ref.encode(t)
    assert decode(bits) == ref.decode(bits) == t
    assert dtbz_round_trip(write_dtbz, read_dtbz, bits) == dtbz_round_trip(
        ref.write_dtbz, ref.read_dtbz, bits)


@given(profiles(max_small_n=3, max_large_n=2), st.data())
@settings(max_examples=300, deadline=None)
def test_decode_matches_reference_on_damaged_bits(e, data):
    bits = encode(DodgsonTriple(e, 1))
    i = data.draw(st.integers(0, len(bits)))
    j = data.draw(st.integers(i, min(len(bits), i + 2 * e.m.bit_length())))
    insert = data.draw(st.text(alphabet="01", max_size=12) | st.sampled_from(["2", " ", "x"]))
    damaged = bits[:i] + insert + bits[j:]
    assert outcome(decode, damaged) == outcome(ref.decode, damaged)


@given(st.text(alphabet="01", max_size=120) | st.text(max_size=12))
@settings(max_examples=300, deadline=None)
def test_decode_matches_reference_on_garbage(bits):
    assert outcome(decode, bits) == outcome(ref.decode, bits)


@given(st.text(alphabet="01", min_size=1, max_size=40), st.data())
@settings(max_examples=200, deadline=None)
def test_read_dtbz_matches_reference_on_damaged_files(bits, data):
    raw, _ = dtbz_round_trip(ref.write_dtbz, ref.read_dtbz, bits)
    i = data.draw(st.integers(0, len(raw)))
    j = data.draw(st.integers(i, len(raw)))
    damaged = bytearray(raw[:i] + data.draw(st.binary(max_size=3)) + raw[j:])
    flip = data.draw(st.integers(-1, 8 * len(damaged) - 1))
    if flip >= 0:
        damaged[flip // 8] ^= 0x80 >> (flip % 8)
    damaged = bytes(damaged)
    assert read_raw(read_dtbz, damaged) == read_raw(ref.read_dtbz, damaged)
