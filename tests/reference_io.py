"""Scalar reference implementations of the ballot and bit-file I/O.

These are the original one-field-at-a-time versions of
:func:`dodgson.ballots.parse_ballots`, :func:`dodgson.ballots.format_ballots`,
:func:`dodgson.codec.encode`, :func:`dodgson.codec.decode`,
:func:`dodgson.codec.read_dtb`, :func:`dodgson.codec.write_dtbz` and
:func:`dodgson.codec.read_dtbz`.  The
array implementations in the package must agree with them on every input:
equal results, or the same error type and message.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Optional, Sequence

from dodgson.ballots import BallotFile, BallotParseError
from dodgson.codec import BitDecodeError, field_width
from dodgson.election import DodgsonTriple, Election


def _numbered_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((no, line))
    return out


def parse_ballots(text: str) -> BallotFile:
    """Parse ballot text into an Election plus candidate labels."""
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
        tokens = [t.strip() for t in line.split(":", 1)[1].split(",")]
        if len(tokens) != m or any(not t for t in tokens):
            raise BallotParseError(no, f"names header must declare exactly {m} names")
        if len(set(tokens)) != m:
            raise BallotParseError(no, "duplicate candidate name")
        names = {t: i + 1 for i, t in enumerate(tokens)}
        body = body[1:]

    if len(body) != n:
        where = body[n][0] if len(body) > n else lines[-1][0]
        raise BallotParseError(where, f"expected {n} ballot lines, got {len(body)}")

    rows = [(no, [t.strip() for t in line.split(",")]) for no, line in body]
    for no, tokens in rows:
        if len(tokens) != m or any(not t for t in tokens):
            raise BallotParseError(no, f"expected {m} comma-separated entries")

    if names is None and all(_is_int(t) for t in rows[0][1]):
        resolve = None  # integer indices
    elif names is None:
        resolve = {}
        for _, tokens in rows:  # first-appearance order, most preferred first
            for t in tokens:
                if t not in resolve:
                    if len(resolve) == m:
                        break
                    resolve[t] = len(resolve) + 1
    else:
        resolve = names

    votes = []
    labels: tuple[str, ...]
    for no, tokens in rows:
        ranking = []
        for t in tokens:
            if resolve is None:
                if not _is_int(t) or not 1 <= int(t) <= m:
                    raise BallotParseError(no, f"candidate index {t!r} out of range 1..{m}")
                ranking.append(int(t))
            else:
                if t not in resolve:
                    raise BallotParseError(no, f"unknown candidate {t!r}")
                ranking.append(resolve[t])
        if len(set(ranking)) != m:
            raise BallotParseError(no, f"ballot is not a strict ranking of all {m} candidates")
        votes.append(tuple(reversed(ranking)))  # store ascending

    if resolve is None:
        labels = tuple(str(i) for i in range(1, m + 1))
    else:
        by_index = {i: t for t, i in resolve.items()}
        labels = tuple(by_index[i] for i in range(1, m + 1))
    return BallotFile(Election(m, tuple(votes)), labels)


def format_ballots(e: Election, labels: Optional[Sequence[str]] = None) -> str:
    """Canonical text for an election: header, optional names, ballots."""
    out = [f"{e.m} {e.n}"]
    if labels is not None and tuple(labels) != tuple(str(i) for i in range(1, e.m + 1)):
        if len(labels) != e.m:
            raise ValueError(f"need {e.m} labels, got {len(labels)}")
        out.append("names: " + ",".join(labels))
        name = lambda c: labels[c - 1]
    else:
        name = str
    for vote in e.votes:
        out.append(",".join(name(c) for c in reversed(vote)))
    return "\n".join(out) + "\n"


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


# -- bit codec --------------------------------------------------------------


def encode(triple: DodgsonTriple) -> str:
    """Encode a triple as a '0'/'1' string."""
    e, c = triple.election, triple.candidate
    w = field_width(e.m)
    parts = ["1" * w, "0", f"{e.m:0{w}b}", f"{c:0{w}b}"]
    for vote in e.votes:
        for cand in vote:
            parts.append(f"{cand:0{w}b}")
    return "".join(parts)


def decode(bits: str) -> DodgsonTriple:
    """Exact inverse of :func:`encode`; rejects anything non-canonical."""
    if not bits:
        raise BitDecodeError("empty bit string")
    bad = set(bits) - {"0", "1"}
    if bad:
        raise BitDecodeError(f"not a bit string: unexpected {sorted(bad)!r}")

    w = bits.find("0")
    if w < 0:
        raise BitDecodeError("malformed prefix: no terminating 0 in the leading 1-run")
    if w == 0:
        raise BitDecodeError("malformed prefix: leading 1-run is empty")

    pos = w + 1

    def take(count: int, what: str) -> str:
        nonlocal pos
        if pos + count > len(bits):
            raise BitDecodeError(f"underflow while reading {what}")
        chunk = bits[pos : pos + count]
        pos += count
        return chunk

    m = int(take(w, "candidate count"), 2)
    if m < 1:
        raise BitDecodeError("candidate count is zero")
    if field_width(m) != w:
        raise BitDecodeError(
            f"candidate count {m} inconsistent with {w}-bit header fields"
        )
    c = int(take(w, "chosen candidate"), 2)
    if not 1 <= c <= m:
        raise BitDecodeError(f"chosen candidate {c} out of range 1..{m}")

    rest = len(bits) - pos
    vote_bits = m * w
    if rest == 0:
        raise BitDecodeError("no votes: at least one vote is required")
    if rest % vote_bits != 0:
        raise BitDecodeError(
            f"trailing bits: {rest} vote bits is not a multiple of {vote_bits}"
        )

    full = frozenset(range(1, m + 1))
    votes = []
    for _ in range(rest // vote_bits):
        vote = tuple(int(take(w, "vote field"), 2) for _ in range(m))
        if any(not 1 <= cand <= m for cand in vote):
            raise BitDecodeError(f"vote field out of range 1..{m}: {vote!r}")
        if set(vote) != full:
            raise BitDecodeError(f"vote is not a permutation of 1..{m}: {vote!r}")
        votes.append(vote)
    return DodgsonTriple(Election(m, tuple(votes)), c)


def read_dtb(path) -> str:
    bits = "".join(Path(path).read_text().split())
    bad = set(bits) - {"0", "1"}
    if bad:
        raise BitDecodeError(f"not a bit file: unexpected {sorted(bad)!r}")
    if not bits:
        raise BitDecodeError("empty bit file")
    return bits


def write_dtbz(bits: str, path) -> None:
    """Packed bit file: u64 big-endian bit count, then zero-padded bytes."""
    payload = bytearray(struct.pack(">Q", len(bits)))
    for i in range(0, len(bits), 8):
        payload.append(int(bits[i : i + 8].ljust(8, "0"), 2))
    Path(path).write_bytes(bytes(payload))


def read_dtbz(path) -> str:
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise BitDecodeError("underflow: missing 64-bit length header")
    (nbits,) = struct.unpack(">Q", raw[:8])
    body = raw[8:]
    expected = (nbits + 7) // 8
    if len(body) != expected:
        raise BitDecodeError(
            f"trailing bits: payload holds {len(body)} bytes, header implies {expected}"
        )
    bits = "".join(f"{byte:08b}" for byte in body)
    if any(b == "1" for b in bits[nbits:]):
        raise BitDecodeError("trailing bits: nonzero padding in final byte")
    return bits[:nbits]
