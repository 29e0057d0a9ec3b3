"""Bit-exact binary encoding of (election, candidate) triples.

Layout, with L = ceil(log2(m + 1)) and all fields big-endian:

    1^L 0 | m (L bits) | c (L bits) | n votes, each m fields of L bits

Vote fields list candidates in ascending preference order.  The candidate
count is delimited by the leading run of ones; the number of votes is not
stored and is inferred from the remaining length, which must be a positive
multiple of m*L.  Candidates are their 1-based index, so a zero field is
always invalid and m must be the unique value whose field width is L, making
the encoding canonical (encode and decode are mutually inverse bijections).

Files: ``.dtb`` holds the bits as ASCII '0'/'1' text; ``.dtbz`` packs them
eight per byte after a big-endian 64-bit bit-length header, final byte
zero-padded.  :func:`write_bit_file` packs for a ``.dtbz`` name and writes
text for any other.  Only a packed file starts with a zero byte, the top
byte of its bit count below 2^56, so :func:`read_bit_file` needs no file
name.

:func:`encode`, :func:`decode` and :func:`write_dtbz` walk the blocks that
:func:`dodgson.election._row_blocks` cuts (whole votes of m fields, or bytes
of eight bits, as rows), which bounds their scratch.  The two readers make
whole-buffer calls: each peaks at about two copies of the bits, the string
it returns and one buffer as long, which a block walk would not lower.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .election import DodgsonTriple, Election, _row_blocks, invalid_votes

_DTB_WRAP = 64


class BitDecodeError(ValueError):
    """Bit string does not encode a valid triple."""


def field_width(m: int) -> int:
    """L = ceil(log2(m + 1)): bits per candidate field."""
    return m.bit_length()


def encoded_length(m: int, n: int) -> int:
    """Total bits for an m-candidate, n-vote triple: (L+1) + 2L + n*m*L."""
    w = field_width(m)
    return (w + 1) + 2 * w + n * m * w


def encode(triple: DodgsonTriple) -> str:
    """Encode a triple as a '0'/'1' string."""
    e, c = triple.election, triple.candidate
    w = field_width(e.m)
    digits = np.arange(e.m + 1)[:, None] >> np.arange(w - 1, -1, -1) & 1  # row v: v's bits
    fields = (digits | ord("0")).astype(np.uint8).view(f"S{w}").ravel()  # fields[v]: v in ASCII
    header = b"1" * w + b"0" + fields[e.m] + fields[c]
    out = np.empty(len(header) + e.ranks.size * w, dtype=np.uint8)
    out[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    votes = out[len(header) :].view(f"S{w}").reshape(e.n, e.m)
    for rows in _row_blocks(e.n, e.m):
        np.take(fields, e.ranks[rows], out=votes[rows], mode="clip")  # ranks are in 1..m
    return str(out, "ascii")  # one copy, where tobytes().decode() makes two


def decode(bits: str) -> DodgsonTriple:
    """Exact inverse of :func:`encode`; rejects anything non-canonical."""
    if not bits:
        raise BitDecodeError("empty bit string")
    _check_bits(bits, "not a bit string")

    w = bits.find("0")
    if w < 0:
        raise BitDecodeError("malformed prefix: no terminating 0 in the leading 1-run")
    if w == 0:
        raise BitDecodeError("malformed prefix: leading 1-run is empty")

    def field(k: int, what: str) -> int:
        """Header field k: the k-th w bits after the prefix (1 is m, 2 is c)."""
        if len(bits) < (k + 1) * w + 1:
            raise BitDecodeError(f"underflow while reading {what}")
        return int(bits[k * w + 1 : (k + 1) * w + 1], 2)

    m = field(1, "candidate count")
    if m < 1:
        raise BitDecodeError("candidate count is zero")
    if field_width(m) != w:
        raise BitDecodeError(
            f"candidate count {m} inconsistent with {w}-bit header fields"
        )
    c = field(2, "chosen candidate")
    if not 1 <= c <= m:
        raise BitDecodeError(f"chosen candidate {c} out of range 1..{m}")

    pos = 3 * w + 1  # where the votes start
    rest = len(bits) - pos
    vote_bits = m * w
    if rest == 0:
        raise BitDecodeError("no votes: at least one vote is required")
    if rest % vote_bits != 0:
        raise BitDecodeError(
            f"trailing bits: {rest} vote bits is not a multiple of {vote_bits}"
        )

    n = rest // vote_bits
    ranks = np.zeros((n, m), dtype=np.int32)
    for rows, chars in zip(_row_blocks(n, m), _row_blocks(n, m, vote_bits)):
        block = ranks[rows]
        fields = _ascii(bits[pos + chars.start : pos + chars.stop]).reshape(-1, m, w)
        for k in range(w):
            block <<= 1
            block |= fields[..., k] & 1  # '0' is 0x30, '1' is 0x31
    try:
        return DodgsonTriple(Election(m, ranks), c)
    except ValueError:  # some vote is no permutation of 1..m
        vote = tuple(ranks[invalid_votes(m, ranks)[0]].tolist())
    if any(not 1 <= cand <= m for cand in vote):
        raise BitDecodeError(f"vote field out of range 1..{m}: {vote!r}")
    raise BitDecodeError(f"vote is not a permutation of 1..{m}: {vote!r}")


def _check_bits(bits: str, what: str) -> None:
    """Reject ``bits`` if it holds any character but '0' and '1', naming every such one."""
    if not (bits.isascii()  # then only '0' (0x30) and '1' (0x31) pass
            and all(((_ascii(bits[chars]) | 1) == ord("1")).all()
                    for chars in _row_blocks(len(bits), 1))):
        raise BitDecodeError(f"{what}: unexpected {sorted(set(bits) - {'0', '1'})!r}")


_ASCII_SPACES = bytes(c for c in range(0x80) if chr(c).isspace())  # what str.split() splits on


def _ascii(text: str) -> np.ndarray:
    """The bytes of an ASCII string as a uint8 array."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


# -- file formats -----------------------------------------------------------


def read_bit_file(path) -> str:
    """The bits of a ``.dtb`` or ``.dtbz`` file, whatever its name."""
    with open(path, "rb") as fh:
        packed = fh.read(1) == b"\0"
    return read_dtbz(path) if packed else read_dtb(path)


def write_bit_file(bits: str, path) -> bool:
    """Write ``bits`` packed to a ``.dtbz`` name, as text to any other; True if packed."""
    packed = str(path).endswith(".dtbz")
    (write_dtbz if packed else write_dtb)(bits, path)  # read per call, so a rebound name counts
    return packed


def write_dtb(bits: str, path) -> None:
    """ASCII bit file, wrapped for inspectability."""
    with open(path, "w") as fh:
        for i in range(0, len(bits), _DTB_WRAP):
            fh.write(bits[i : i + _DTB_WRAP] + "\n")


def read_dtb(path) -> str:
    """The bits of an ASCII bit file, all whitespace dropped.

    An ASCII file's bytes lose the characters that ``str.split()`` splits
    on in one ``bytes.translate``; any other file is read as text.
    """
    raw = Path(path).read_bytes()
    if raw.isascii():
        raw = raw.translate(None, _ASCII_SPACES)  # rebound first: never three copies at once
        bits = str(raw, "ascii")
    else:
        del raw
        bits = "".join(Path(path).read_text().split())
    _check_bits(bits, "not a bit file")
    if not bits:
        raise BitDecodeError("empty bit file")
    return bits


def write_dtbz(bits: str, path) -> None:
    """Packed bit file: u64 big-endian bit count, then zero-padded bytes."""
    _check_bits(bits, "not a bit string")
    packed = np.empty((len(bits) + 7) // 8, dtype=np.uint8)
    for octets, chars in zip(_row_blocks(len(packed), 8), _row_blocks(len(packed), 8, 8)):
        packed[octets] = np.packbits(_ascii(bits[chars]) & 1)  # whole bytes at a time
    with open(path, "wb") as fh:
        fh.write(struct.pack(">Q", len(bits)))
        fh.write(packed)


def read_dtbz(path) -> str:
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise BitDecodeError("underflow: missing 64-bit length header")
    (nbits,) = struct.unpack(">Q", raw[:8])
    body = np.frombuffer(raw, dtype=np.uint8, offset=8)
    expected = (nbits + 7) // 8
    if len(body) != expected:
        raise BitDecodeError(
            f"trailing bits: payload holds {len(body)} bytes, header implies {expected}"
        )
    chars = np.unpackbits(body)
    if chars[nbits:].any():
        raise BitDecodeError("trailing bits: nonzero padding in final byte")
    chars += ord("0")
    return str(chars[:nbits], "ascii")  # one copy, where tobytes().decode() makes two
