import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import triples
from dodgson import DodgsonTriple, Election
from dodgson.codec import (
    BitDecodeError,
    decode,
    encode,
    encoded_length,
    field_width,
    read_dtb,
    read_dtbz,
    write_dtb,
    write_dtbz,
)


class TestFieldWidth:
    def test_ceil_log2(self):
        assert [field_width(m) for m in (1, 2, 3, 4, 7, 8, 15, 16)] == [
            1, 2, 2, 3, 3, 4, 4, 5,
        ]


class TestEncode:
    def test_minimal_triple(self):
        t = DodgsonTriple(Election(1, ((1,),)), 1)
        assert encode(t) == "10111"

    def test_layout_m2(self):
        # 11 0 | 10 | 01 | votes (01 10) = 1 then 2 ascending
        t = DodgsonTriple(Election(2, ((1, 2),)), 1)
        assert encode(t) == "110" + "10" + "01" + "0110"

    def test_length_formula(self):
        e = Election(4, tuple(tuple(random.Random(0).sample(range(1, 5), 4)) for _ in range(100)))
        bits = encode(DodgsonTriple(e, 1))
        assert len(bits) == 1210 == encoded_length(4, 100)

    @given(triples(max_m=6, max_n=12))
    @settings(max_examples=80)
    def test_round_trip(self, tc):
        e, c = tc
        t = DodgsonTriple(e, c)
        bits = encode(t)
        assert len(bits) == encoded_length(e.m, e.n)
        assert decode(bits) == t


class TestDecodeErrors:
    @pytest.mark.parametrize(
        "bits",
        [
            "",            # empty
            "111",         # no terminating zero
            "0101",        # empty leading 1-run
            "10",          # underflow reading m
            "1000111",     # m = 0
            "110" + "01",  # m=1 inconsistent with 2-bit fields
            "10" + "1",    # underflow reading c
            "10" + "1" + "0",  # c = 0
            "110" + "10" + "11",  # c = 3 > m = 2
            "10" + "1" + "1",  # no votes
            "110" + "10" + "01" + "011",   # vote bits not a multiple of m*L
            "110" + "10" + "01" + "0101",  # vote (1,1) not a permutation
            "110" + "10" + "01" + "1101",  # vote field 3 out of range for m=2
            "110" + "10" + "01" + "0110" + "00",  # trailing partial vote
        ],
    )
    def test_rejects(self, bits):
        with pytest.raises(BitDecodeError):
            decode(bits)

    def test_rejects_non_bit_characters(self):
        with pytest.raises(BitDecodeError):
            decode("10x11")

    def test_wide_header_without_votes(self):
        # L = 30 declares m ~ 2^29 candidates; nothing may be sized from it
        m = 2**29 + 5
        with pytest.raises(BitDecodeError, match="no votes"):
            decode("1" * 30 + "0" + f"{m:030b}" + f"{1:030b}")
        with pytest.raises(BitDecodeError, match="trailing bits"):
            decode("1" * 30 + "0" + f"{m:030b}" + f"{1:030b}" + "01" * 40)

    def test_two_single_candidate_votes_decode(self):
        # m=1: every remaining 1-bit field is one vote
        t = decode("101111")
        assert t == DodgsonTriple(Election(1, ((1,), (1,))), 1)


class TestFuzz:
    @given(st.text(alphabet="01", max_size=200))
    @settings(max_examples=300)
    def test_never_crashes_on_bit_strings(self, bits):
        try:
            t = decode(bits)
        except BitDecodeError:
            return
        assert encode(t) == bits  # anything accepted must be canonical

    @given(triples(max_m=5, max_n=6), st.data())
    @settings(max_examples=80)
    def test_single_bit_flips(self, tc, data):
        e, c = tc
        t = DodgsonTriple(e, c)
        bits = encode(t)
        i = data.draw(st.integers(0, len(bits) - 1))
        flipped = bits[:i] + ("1" if bits[i] == "0" else "0") + bits[i + 1 :]
        try:
            other = decode(flipped)
        except BitDecodeError:
            return
        assert other != t  # a surviving flip decodes to a *different* triple


class TestFiles:
    def test_dtb_round_trip(self, tmp_path):
        t = DodgsonTriple(Election(3, ((1, 2, 3), (3, 2, 1))), 2)
        bits = encode(t)
        path = tmp_path / "x.dtb"
        write_dtb(bits, path)
        assert read_dtb(path) == bits
        assert decode(read_dtb(path)) == t

    def test_dtb_wraps_lines(self, tmp_path):
        bits = "01" * 100
        path = tmp_path / "x.dtb"
        write_dtb(bits, path)
        assert all(len(line) <= 64 for line in path.read_text().splitlines())
        assert read_dtb(path) == bits

    def test_dtb_rejects_garbage(self, tmp_path):
        path = tmp_path / "x.dtb"
        path.write_text("01ab\n")
        with pytest.raises(BitDecodeError):
            read_dtb(path)

    def test_dtbz_round_trip(self, tmp_path):
        for nbits in (1, 7, 8, 9, 37, 64):
            bits = format(random.Random(nbits).getrandbits(nbits), f"0{nbits}b")
            path = tmp_path / f"x{nbits}.dtbz"
            write_dtbz(bits, path)
            assert read_dtbz(path) == bits

    def test_dtbz_truncation(self, tmp_path):
        path = tmp_path / "x.dtbz"
        write_dtbz("10111", path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])
        with pytest.raises(BitDecodeError):
            read_dtbz(path)

    def test_dtbz_nonzero_padding(self, tmp_path):
        path = tmp_path / "x.dtbz"
        write_dtbz("10111", path)
        raw = bytearray(path.read_bytes())
        raw[-1] |= 0b00000001  # set a padding bit
        path.write_bytes(bytes(raw))
        with pytest.raises(BitDecodeError):
            read_dtbz(path)

    def test_dtbz_missing_header(self, tmp_path):
        path = tmp_path / "x.dtbz"
        path.write_bytes(b"\x00\x01")
        with pytest.raises(BitDecodeError):
            read_dtbz(path)
