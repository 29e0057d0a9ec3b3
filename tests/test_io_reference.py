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
from dodgson.codec import decode, encode, read_dtb, read_dtbz, write_dtbz

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


# Edits of a canonical file (most preferred first, one line per vote); each
# takes the line list (header first), the vote it aims at and m.  Most send
# the text off the byte route, or make it an error, at some line.
def _edit_entry(edit):
    def apply(lines, v, m):
        entries = lines[1 + v].split(",")
        entries[-1] = edit(entries[-1], m)
        lines[1 + v] = ",".join(entries)
    return apply


def _edit_line(edit):
    def apply(lines, v, m):
        lines[1 + v] = edit(lines[1 + v], m)
    return apply


def _move_line_break(lines, v):
    """Move the first entry of ballot v + 1 to the end of ballot v (no-op if n = 1)."""
    if v >= 0:
        first, _, rest = lines[2 + v].partition(",")
        lines[1 + v] += "," + first
        lines[2 + v] = rest


def _insert(line):
    return lambda lines, v, m: lines.insert(1 + v, line)


CANONICAL_EDITS = {
    "none": lambda lines, v, m: None,
    "crlf": lambda lines, v, m: lines.__setitem__(slice(None), [x + "\r" for x in lines]),
    "comment": _insert("# a comment"),
    "comment first": lambda lines, v, m: lines.insert(0, "# a comment"),
    "blank line": _insert(""),
    "padded header": lambda lines, v, m: lines.__setitem__(0, f" {lines[0]}\t"),
    "spaces around an entry": _edit_entry(lambda t, m: f" {t} "),
    "leading zero": _edit_entry(lambda t, m: "0" + t),
    "18 digits": _edit_entry(lambda t, m: t.zfill(18)),
    "19 digits": _edit_entry(lambda t, m: t.zfill(19)),
    "20 digits": _edit_entry(lambda t, m: t.zfill(20)),
    "0": _edit_entry(lambda t, m: "0"),
    "m+1": _edit_entry(lambda t, m: str(m + 1)),
    "2**64 + entry": _edit_entry(lambda t, m: str(2**64 + int(t))),
    "repeated candidate": _edit_line(
        lambda line, m: ",".join([*line.split(",")[:-1], line.split(",")[0]])),
    "extra line": lambda lines, v, m: lines.insert(1 + v, lines[1 + v]),
    "missing line": lambda lines, v, m: lines.pop(1 + v),
    "extra entry": _edit_line(lambda line, m: line + ",1"),
    "missing entry": _edit_line(lambda line, m: line.rpartition(",")[0]),
    "empty entry": _edit_line(lambda line, m: line + ","),
    "carriage return in a line": _edit_line(lambda line, m: line.replace(",", "\r,", 1)),
    # these two keep every line's length, and so the byte route's block bounds
    "space for a comma": _edit_line(lambda line, m: line.replace(",", " ", 1)),
    "line break moved": lambda lines, v, m: _move_line_break(lines, min(v, len(lines) - 3)),
    "names header": lambda lines, v, m: lines.insert(
        1, "names: " + ",".join(str(c) for c in range(1, m + 1))),
    "Arabic-Indic digit": _edit_entry(lambda t, m: t[:-1] + chr(0x0660 + int(t[-1]))),
    "fullwidth digit": _edit_entry(lambda t, m: t[:-1] + chr(0xFF10 + int(t[-1]))),
}


VALID_EDITS = {"none", "crlf", "comment", "comment first", "blank line", "padded header",
               "spaces around an entry", "leading zero", "18 digits", "19 digits", "20 digits",
               "names header", "Arabic-Indic digit", "fullwidth digit"}


def edited_canonical(e, edit, vote, final_newline):
    lines = format_ballots(e).splitlines()
    CANONICAL_EDITS[edit](lines, vote, e.m)
    return "\n".join(lines) + ("\n" if final_newline else "")


@given(profiles(), st.sampled_from(sorted(CANONICAL_EDITS)), st.data(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_canonical_text_and_near_misses_match_reference(e, edit, data, final_newline):
    text = edited_canonical(e, edit, data.draw(st.integers(0, e.n - 1)), final_newline)
    got, want = parse_outcomes(text)
    assert got == want


@pytest.mark.parametrize("edit", sorted(CANONICAL_EDITS))
@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("m, n, vote", [(1, 3, 1), (12, 5, 0), (12, 5, 4), (257, 2, 1)])
def test_canonical_edit_matches_reference(edit, final_newline, m, n, vote):
    e = sample_election(SamplerConfig(m, n, seed=m * n))
    got, want = parse_outcomes(edited_canonical(e, edit, vote, final_newline))
    assert got == want
    # one candidate has no second entry to repeat, or a comma to edit
    valid = edit in VALID_EDITS or (m == 1 and edit in (
        "repeated candidate", "carriage return in a line", "space for a comma"))
    assert got[0] == ("ok" if valid else BallotParseError)
    if valid:
        assert got[1].election == e


def test_carriage_return_inside_a_line_is_a_line_break():
    """'\\r' ends a line for str.splitlines, so '1,2\\r,3' is two bad lines, not a ballot."""
    got, want = parse_outcomes("3 1\n1,2\r,3\n")
    assert got == want
    assert got[:2] == (BallotParseError, "line 3: expected 1 ballot lines, got 2")


label_texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4) | st.sampled_from(
    ["", "\x00", "a\x00b", "\xff", "\u00e9", "\u0663", "\U0001F600", "\ud800", "\udc00x",
     ",", "\n", "very long label " * 8])


@given(profiles(max_small_n=4, max_large_n=2), st.data())
@settings(max_examples=200, deadline=None)
def test_format_matches_reference_for_any_labels(e, data):
    labels = data.draw(st.lists(label_texts, min_size=e.m, max_size=e.m))
    assert outcome(format_ballots, e, labels) == outcome(ref.format_ballots, e, labels)


@pytest.mark.parametrize("labels", [("a\x00", "\x00", "b"), ("\ud83d\ude00", "\ud83d", "x"),
                                    ("", "\u00e9\u00e9", "\U0001F600")])
def test_format_keeps_every_label_character(labels):
    e = Election(3, ((1, 2, 3), (3, 1, 2)))
    text = format_ballots(e, labels)
    assert text == ref.format_ballots(e, labels)
    assert text.endswith(f"{labels[2]},{labels[1]},{labels[0]}\n{labels[1]},{labels[0]},{labels[2]}\n")


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


ASCII_SPACES = " \t\n\v\f\r\x1c\x1d\x1e\x1f"


@given(st.lists(st.text(alphabet="01", max_size=70)
                | st.text(alphabet=ASCII_SPACES, min_size=1, max_size=3)
                | st.sampled_from(["\xa0", "\u2028", "\u3000", "2", "x", "\x00", "\x85", "\u0663"]),
                max_size=12),
       st.sampled_from(["utf-8", "latin-1"]))
@settings(max_examples=300, deadline=None)
def test_read_dtb_matches_reference(parts, encoding):
    """Bits among every ASCII whitespace byte, Unicode spaces, junk and undecodable bytes."""
    raw = "".join(parts).encode(encoding, "replace")  # latin-1 bytes need not be UTF-8
    assert read_raw(read_dtb, raw) == read_raw(ref.read_dtb, raw)


def test_read_dtb_drops_ascii_whitespace_across_blocks():
    bits = "10" * 70_001
    text = "".join(ASCII_SPACES[i % len(ASCII_SPACES)] + bits[i : i + 7]
                   for i in range(0, len(bits), 7))
    raw = text.encode("ascii")
    assert read_raw(read_dtb, raw) == ("ok", bits) == read_raw(ref.read_dtb, raw)
