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
zero-padded.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .election import _BLOCK_CELLS, DodgsonTriple, Election, _block_rows, invalid_votes

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
    header = ("1" * w + "0" + f"{e.m:0{w}b}{c:0{w}b}").encode("ascii")
    fields = e.ranks.ravel()
    out = np.empty(len(header) + fields.size * w, dtype=np.uint8)
    out[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    votes = out[len(header) :].reshape(-1, w)
    step = _block_rows(e.m) * e.m
    for lo in range(0, fields.size, step):  # whole votes at a time
        block = votes[lo : lo + step]
        for k in range(w):  # column k holds bit w-1-k of every field
            np.bitwise_and(fields[lo : lo + step] >> (w - 1 - k), 1, out=block[:, k],
                           casting="unsafe")
        block += ord("0")
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

    fields = np.empty(rest // w, dtype=np.int32)
    step = _block_rows(m) * m
    for lo in range(0, len(fields), step):  # whole votes at a time
        block = fields[lo : lo + step]
        start = pos + lo * w
        chars = _ascii(bits[start : start + block.size * w]).reshape(-1, w)
        block[:] = 0
        for k in range(w):
            block <<= 1
            block |= chars[:, k] & 1  # '0' is 0x30, '1' is 0x31
    ranks = fields.reshape(-1, m)
    try:
        return DodgsonTriple(Election.from_rows(m, ranks), c)
    except ValueError:  # some vote is no permutation of 1..m
        vote = tuple(ranks[invalid_votes(m, ranks)[0]].tolist())
    if any(not 1 <= cand <= m for cand in vote):
        raise BitDecodeError(f"vote field out of range 1..{m}: {vote!r}")
    raise BitDecodeError(f"vote is not a permutation of 1..{m}: {vote!r}")


def _check_bits(bits: str, what: str) -> None:
    """Reject ``bits`` if it holds any character but '0' and '1', naming every such one.

    Checked one slice of ``_BLOCK_CELLS`` characters at a time.
    """
    if not (bits.isascii()  # then only '0' (0x30) and '1' (0x31) pass
            and all(((_ascii(bits[lo : lo + _BLOCK_CELLS]) | 1) == ord("1")).all()
                    for lo in range(0, len(bits), _BLOCK_CELLS))):
        raise BitDecodeError(f"{what}: unexpected {sorted(set(bits) - {'0', '1'})!r}")


_ASCII_SPACE = np.zeros(256, dtype=bool)  # the ASCII characters that str.split() splits on
_ASCII_SPACE[[ord(c) for c in map(chr, range(0x80)) if c.isspace()]] = True


def _ascii(text: str) -> np.ndarray:
    """The bytes of an ASCII string as a uint8 array."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


# -- file formats -----------------------------------------------------------


def write_dtb(bits: str, path) -> None:
    """ASCII bit file, wrapped for inspectability."""
    with open(path, "w") as fh:
        for i in range(0, len(bits), _DTB_WRAP):
            fh.write(bits[i : i + _DTB_WRAP] + "\n")


def read_dtb(path) -> str:
    """The bits of an ASCII bit file, all whitespace dropped.

    An ASCII file is read as bytes and squeezed in place one block at a time,
    dropping the bytes that ``str.split()`` splits on, so its scratch is the
    file's bytes; any other file is read as text.
    """
    with open(path, "rb") as fh:
        raw = np.fromfile(fh, dtype=np.uint8)
    if raw.max(initial=0) < 0x80:
        kept = 0
        for lo in range(0, len(raw), _BLOCK_CELLS):
            block = raw[lo : lo + _BLOCK_CELLS]
            chars = block[~_ASCII_SPACE[block]]
            raw[kept : kept + len(chars)] = chars
            kept += len(chars)
        bits = str(raw[:kept], "ascii")
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
    for lo in range(0, len(bits), _BLOCK_CELLS):  # whole bytes at a time
        packed[lo // 8 : (lo + _BLOCK_CELLS) // 8] = np.packbits(
            _ascii(bits[lo : lo + _BLOCK_CELLS]) & 1)
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
    chars = np.empty(8 * len(body), dtype=np.uint8)
    step = _BLOCK_CELLS // 8
    for lo in range(0, len(body), step):  # _BLOCK_CELLS bits at a time
        chars[8 * lo : 8 * (lo + step)] = np.unpackbits(body[lo : lo + step])
    if chars[nbits:].any():
        raise BitDecodeError("trailing bits: nonzero padding in final byte")
    chars += ord("0")
    return str(chars[:nbits], "ascii")  # one copy, where tobytes().decode() makes two
