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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .election import Election, _block_rows, invalid_votes


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

    A canonical index file (ASCII digits and commas only, as
    :func:`format_ballots` writes it) is read in one vectorised pass; every
    other accepted form line by line, with the same results and errors.
    """
    lines = _numbered_lines(text)
    if not lines:
        raise BallotParseError(1, "empty ballot file")

    no, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise BallotParseError(no, f"expected header 'm n', got {header!r}")
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise BallotParseError(no, f"expected header 'm n', got {header!r}") from None
    if m < 1 or n < 1:
        raise BallotParseError(no, f"need m >= 1 and n >= 1, got m={m}, n={n}")

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

    # Sized from n and m only now that the text holds n lines of m entries.
    ranks = np.empty((n, m), dtype=np.int32)
    filled = 0
    if names is None:  # int() strips the whitespace around an entry itself
        filled = _read_digits(ranks, body)
        # an index outside 1..m is stored as 0, which no dtype wraps into range
        filled = _fill(ranks, body, lambda line: [
            i if 0 < i <= m else 0 for i in map(int, line.split(","))], filled)
    if filled < n:  # a names header, or some entry is no integer index
        _check_entries(body, m)
        if names is None and not all(map(_is_int, _tokens(body[0][1]))):
            names = _first_appearance(body, m)
        if names is not None:
            filled = _fill(ranks, body, lambda line: [names[t] for t in _tokens(line)])
    if filled == n:
        try:
            election = Election.from_rows(m, ranks[:, ::-1])  # store ascending
        except ValueError:  # some ballot is no ranking; located below
            pass
        else:
            if names is None:
                return BallotFile(election, tuple(str(i) for i in range(1, m + 1)))
            return BallotFile(election, tuple(sorted(names, key=names.__getitem__)))
    bad = invalid_votes(m, ranks[:filled])
    no, line = body[int(bad[0]) if len(bad) else filled]
    raise _ballot_error(no, line, m, names)


def _tokens(line: str) -> list[str]:
    return [t.strip() for t in line.split(",")]


def _read_digits(ranks: np.ndarray, body: list[tuple[int, str]]) -> int:
    """Fill rows one block at a time while every entry is 1-18 ASCII digits.

    Returns the number of rows filled: all of them, or those before the first
    block with some other entry.  ``int()`` reads such entries alike and
    int64 holds them; each line has m entries.  Values are clipped to 0..m+1
    before they narrow to ``ranks``' dtype, so none wraps into range.
    """
    n, m = ranks.shape
    step = _block_rows(m)
    for lo in range(0, n, step):
        text = ",".join([line for _, line in body[lo : lo + step]])
        if not (text.isascii()
                and _short_digit_entries(np.frombuffer(text.encode("ascii"), dtype=np.uint8))):
            return lo
        block = np.fromstring(text, dtype=np.int64, sep=",")
        ranks[lo : lo + step] = block.clip(0, m + 1, out=block).reshape(-1, m)
    return n


def _short_digit_entries(data: np.ndarray) -> bool:
    """Whether the bytes are comma-separated entries of 1-18 ASCII digits each.

    Its scratch is uint8 and bool arrays, a few bytes per byte of text, all
    freed before the caller converts the text.
    """
    comma = data == ord(",")
    if not (comma | ((data >= ord("0")) & (data <= ord("9")))).all():
        return False
    if comma[0] or comma[-1] or (comma[:-1] & comma[1:]).any():  # an empty entry
        return False
    run = ~comma  # run[i]: the w bytes from i on are all digits; w = 1, 2, 4, 8, 16, 19
    for step in (1, 2, 4, 8, 3):
        run = run[:-step] & run[step:]
    return not run.any()  # no entry of 19 or more digits


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
    """Index names in reading order, most preferred first, up to m of them."""
    names: dict[str, int] = {}
    for _, line in body:
        for t in _tokens(line):
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
    """Canonical text for an election: header, optional names, ballots."""
    out = [f"{e.m} {e.n}"]
    names = (None, *(str(i) for i in e.candidates))
    if labels is not None and tuple(labels) != names[1:]:
        if len(labels) != e.m:
            raise ValueError(f"need {e.m} labels, got {len(labels)}")
        out.append("names: " + ",".join(labels))
        names = (None, *labels)
    table = np.array(names, dtype=object)
    step = _block_rows(e.m)
    for lo in range(0, e.n, step):  # one row per vote, most preferred first
        out.append("\n".join(map(",".join, table[e.ranks[lo : lo + step, ::-1]].tolist())))
    return "\n".join([*out, ""])


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True
