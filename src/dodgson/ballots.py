"""Human-readable ballot files.

Format::

    m n
    names: alice,bob,carol      (optional)
    <ballot>                    (n lines, comma separated, most preferred first)

Candidates may be written as 1-based indices or as names.  With a ``names:``
header, index i belongs to the i-th declared name.  Without one, a file whose
first ballot is all integers is read as indices; otherwise every token is a
name and indices are assigned in order of first appearance.  Blank lines and
``#`` comments are ignored.

Internally votes are stored in ascending preference order, so ballot lines
are reversed on ingest and on output.

Both directions work on the text's bytes one ``_row_blocks`` block at a time.
One loop, :func:`_read_blocks`, decodes ballot bytes: fixed-width slices of a
canonical index file (the header on its first line, then only ASCII digits,
commas and newlines, as :func:`format_ballots` writes it), or else each
block's stripped lines, with ``int()`` reading on from the first row it
could not fill.  Formatting gathers fixed-width label fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from typing import Iterable, Optional, Sequence

import numpy as np

from .election import Election, _row_blocks, invalid_votes


class BallotParseError(ValueError):
    """Malformed ballot text; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class BallotFile:
    """A parsed election plus the display label of each candidate index."""

    election: Election
    labels: tuple[str, ...]

    def label_of(self, candidate: int) -> str:
        return self.labels[candidate - 1]

    def candidate_of(self, token: str) -> int:
        """Resolve a user-supplied candidate (label or 1-based index)."""
        token = token.strip()
        if token in self.labels:
            return self.labels.index(token) + 1
        try:
            c = int(token)
        except ValueError:
            raise ValueError(f"unknown candidate {token!r}") from None
        if not 1 <= c <= self.election.m:
            raise ValueError(f"candidate index {c} out of range 1..{self.election.m}")
        return c


def _numbered_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((no, line))
    return out


def parse_ballots(text: str) -> BallotFile:
    """Parse ballot text into an Election plus candidate labels.

    A canonical index file is decoded straight from the text's bytes (see
    :func:`_read_canonical`).  Every other text, and any such file that the
    decoder does not accept or whose ballots are not all rankings, is read
    line by line, with the same results and errors.
    """
    parsed = _read_canonical(text)
    if parsed is not None:
        return parsed
    lines = _numbered_lines(text)
    if not lines:
        raise BallotParseError(1, "empty ballot file")
    m, n = _header(*lines[0])

    body = lines[1:]
    names: Optional[dict[str, int]] = None
    if body and body[0][1].lower().startswith("names:"):
        no, line = body[0]
        tokens = _tokens(line.split(":", 1)[1])
        if len(tokens) != m or any(not t for t in tokens):
            raise BallotParseError(no, f"names header must declare exactly {m} names")
        if len(set(tokens)) != m:
            raise BallotParseError(no, "duplicate candidate name")
        names = {t: i + 1 for i, t in enumerate(tokens)}
        body = body[1:]

    if len(body) != n:
        where = body[n][0] if len(body) > n else lines[-1][0]
        raise BallotParseError(where, f"expected {n} ballot lines, got {len(body)}")
    if any(line.count(",") != m - 1 for _, line in body):
        _check_entries(body, m)  # raises
    if names is None and not all(map(_is_int, _tokens(body[0][1]))):
        names = _first_appearance(body, m)  # a names file without a names header

    # Sized from n and m only now that the text holds n lines of m entries.
    ranks = np.empty((n, m), dtype=np.int32)
    ballots = ranks[:, ::-1]  # most preferred first, as the lines list them
    if names is None:  # int() strips the whitespace around an entry itself
        texts = ("\n".join([*(line for _, line in body[rows]), ""]) for rows in _row_blocks(n, m))
        filled = _read_blocks(ballots, (np.frombuffer(text.encode("ascii"), dtype=np.uint8)
                                        for text in takewhile(str.isascii, texts)))
        # an index outside 1..m is stored as 0, which no dtype wraps into range
        filled = _fill(ballots, body, lambda line: [
            i if 0 < i <= m else 0 for i in map(int, line.split(","))], filled)
    else:
        filled = _fill(ballots, body, lambda line: [names[t] for t in _tokens(line)])
    if filled < n:  # an empty entry outranks a bad one on an earlier line
        _check_entries(body, m)
    if filled == n and (parsed := _ballot_file(ranks, names)) is not None:
        return parsed
    bad = invalid_votes(m, ranks[:filled])  # some ballot is no ranking, or is unread
    no, line = body[int(bad[0]) if len(bad) else filled]
    raise _ballot_error(no, line, m, names)


def _header(no: int, line: str) -> tuple[int, int]:
    """The ``m n`` of a header line (line ``no``)."""
    try:
        m, n = map(int, line.split())
    except ValueError:  # not two fields, or not two integers
        raise BallotParseError(no, f"expected header 'm n', got {line!r}") from None
    if m < 1 or n < 1:
        raise BallotParseError(no, f"need m >= 1 and n >= 1, got m={m}, n={n}")
    return m, n


def _index_labels(m: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(1, m + 1))


def _tokens(line: str) -> list[str]:
    return [t.strip() for t in line.split(",")]


def _read_canonical(text: str) -> Optional[BallotFile]:
    """The parse of a canonical index file, decoded from its bytes; None for any other text.

    Canonical here means ASCII, the header alone on the first line, then n
    lines of one length holding only digits, commas and newlines (the last
    line's newline may be missing).  Every ranking of 1..m written without
    leading zeros has the same length, so each row block is a fixed slice of
    the body's bytes.  None also when some ballot is no ranking, so that the
    line-by-line route locates and reports it.  The only whole-body scratch
    is the one ``bytes`` copy of the text.
    """
    cut = text.find("\n")
    if not text.isascii() or cut < 0:
        return None
    first = _numbered_lines(text[:cut])
    if len(first) != 1 or first[0][0] != 1:  # the header is not the first line
        return None
    m, n = _header(*first[0])
    size = len(text) - cut - (text[-1] == "\n")  # the body's length, last newline counted
    width = size // n
    if size != width * n or width < 2 * m:  # too short to hold n lines of m entries
        return None

    body = np.frombuffer(text.encode("ascii"), dtype=np.uint8, offset=cut + 1)
    ranks = np.empty((n, m), dtype=np.int32)
    filled = _read_blocks(ranks[:, ::-1], (  # the last line may lack its newline
        body[s] if s.stop <= len(body) else np.append(body[s], np.uint8(ord("\n")))
        for s in _row_blocks(n, m, width)))
    del body  # the text's bytes, freed before validation
    return _ballot_file(ranks, None) if filled == n else None


def _ballot_file(ranks: np.ndarray, names: Optional[dict[str, int]]) -> Optional[BallotFile]:
    """Ascending ``ranks`` labelled by ``names`` (else by index); None if not all rankings."""
    try:
        election = Election(ranks.shape[1], ranks)
    except ValueError:
        return None
    labels = _index_labels(election.m) if names is None else sorted(names, key=names.__getitem__)
    return BallotFile(election, tuple(labels))


def _read_blocks(ballots: np.ndarray, blocks: Iterable[np.ndarray]) -> int:
    """Fill ``ballots`` from ``blocks``, the uint8 bytes of each ``_row_blocks`` block's lines.

    Returns the number of rows filled: all of them, or those before the
    first block that :func:`_read_entries` rejects or ``blocks`` lacks.
    """
    n, m = ballots.shape
    filled = 0
    for rows, data in zip(_row_blocks(n, m), blocks):
        if not _read_entries(data, ballots[rows]):
            break
        filled = rows.stop
    return filled


def _read_entries(data: np.ndarray, out: np.ndarray) -> bool:
    """Fill ``out`` from the ASCII bytes ``data`` if they are exactly its lines.

    That is, ``len(out)`` lines, each of ``m = out.shape[1]`` comma-separated
    entries of 1-18 digits and ended by a newline; returns whether they were,
    and leaves ``out`` alone if not.  ``int()`` reads such entries alike and
    int64 holds them.  Values are clipped to 0..m+1 before they narrow to
    ``out``'s dtype, so none wraps into range.
    """
    rows, m = out.shape
    digits = data - np.uint8(ord("0"))  # every other byte wraps past 9
    ends = np.flatnonzero(digits > 9)  # the separator after each entry
    # every comma is a separator; with each m-th one a newline, all the others are commas
    if (len(ends) != rows * m or ends[-1] != len(data) - 1
            or np.count_nonzero(data == ord(",")) != rows * (m - 1)
            or (data[ends[m - 1 :: m]] != ord("\n")).any()):
        return False
    gaps = np.diff(ends, prepend=-1)  # each entry's width plus one
    if gaps.min() < 2 or gaps.max() > 19:
        return False
    values = digits[ends - 1].astype(np.int64)
    for place in range(1, int(gaps.max()) - 1):  # one gather per digit place
        column = digits[ends - (place + 1)]
        column[gaps <= place + 1] = 0  # entries without that place
        values += np.multiply(column, 10**place, dtype=np.int64)
    out[:] = values.clip(0, m + 1, out=values).reshape(rows, m)
    return True


def _fill(ranks: np.ndarray, body: list[tuple[int, str]], row_of, start: int = 0) -> int:
    """Write ``row_of(line)`` into rows from ``start`` on; stop at the first line it rejects.

    Returns the number of rows filled.
    """
    for i in range(start, len(body)):
        try:
            ranks[i] = row_of(body[i][1])
        except (KeyError, ValueError):
            return i
    return len(body)


def _check_entries(body: list[tuple[int, str]], m: int) -> None:
    """Raise for the first line that does not hold m non-empty entries."""
    for no, line in body:
        tokens = _tokens(line)
        if len(tokens) != m or any(not t for t in tokens):
            raise BallotParseError(no, f"expected {m} comma-separated entries")


def _first_appearance(body: list[tuple[int, str]], m: int) -> dict[str, int]:
    """Index names in reading order, most preferred first, up to m of them.

    Empty entries are skipped: they are entry errors, which the fill that
    meets them leaves for :func:`_check_entries` to report.
    """
    names: dict[str, int] = {}
    for _, line in body:
        for t in filter(None, _tokens(line)):
            names.setdefault(t, len(names) + 1)
            if len(names) == m:
                return names
    return names


def _ballot_error(no: int, line: str, m: int, names: Optional[dict[str, int]]) -> BallotParseError:
    """The error for a rejected ballot line: its first bad entry, else its ranking."""
    for t in _tokens(line):
        if names is None and not (_is_int(t) and 1 <= int(t) <= m):
            return BallotParseError(no, f"candidate index {t!r} out of range 1..{m}")
        if names is not None and t not in names:
            return BallotParseError(no, f"unknown candidate {t!r}")
    return BallotParseError(no, f"ballot is not a strict ranking of all {m} candidates")


def format_ballots(e: Election, labels: Optional[Sequence[str]] = None) -> str:
    """Canonical text for an election: header, optional names, ballots.

    Each block of votes is one gather from two tables of fixed-width label
    fields (see :func:`_label_fields`), most preferred first, the last
    candidate's field ending in a newline.  Its bytes, less the filler, are
    the block's lines.  Blocks are cut as rows of m * W cells, W bytes a
    field, so a block's fields take a fixed number of bytes however long the
    labels are.
    """
    out = [f"{e.m} {e.n}\n"]
    names = _index_labels(e.m)
    if labels is not None and tuple(labels) != names:
        if len(labels) != e.m:
            raise ValueError(f"need {e.m} labels, got {len(labels)}")
        out.append("names: " + ",".join(labels) + "\n")
        names = tuple(labels)
    inner, last = _label_fields(names, ","), _label_fields(names, "\n")
    for rows in _row_blocks(e.n, e.m * inner.itemsize):
        ranks = e.ranks[rows]
        fields = np.empty(ranks.shape, dtype=inner.dtype)
        fields[:, :-1] = np.take(inner, ranks[:, :0:-1])
        fields[:, -1] = np.take(last, ranks[:, 0])
        out.append(fields.tobytes().translate(None, _FILLER).decode("utf-8", "surrogatepass"))
    return "".join(out)


_FILLER = b"\xff"  # a byte that no UTF-8 text holds


def _label_fields(labels: Sequence[str], end: str) -> np.ndarray:
    """Field c holds label c's UTF-8 bytes then ``end``, padded with ``_FILLER``.

    The fields are ``V{W}`` scalars, W the widest label's bytes plus one, at
    indices 1..m (index 0 is unused), so a gather by candidate builds rows.
    """
    encoded = [(label + end).encode("utf-8", "surrogatepass") for label in labels]
    width = max(map(len, encoded))
    table = np.full((len(encoded) + 1, width), _FILLER[0], dtype=np.uint8)
    for c, field in enumerate(encoded, start=1):
        table[c, : len(field)] = np.frombuffer(field, dtype=np.uint8)
    return table.view(f"V{width}").ravel()


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True
