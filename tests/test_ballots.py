import numpy as np
import pytest

from dodgson import Election
from dodgson.ballots import BallotParseError, _read_entries, format_ballots, parse_ballots


class TestParse:
    def test_integer_ballots(self):
        bf = parse_ballots("3 2\n3,1,2\n2,3,1\n")
        # most-preferred-first text becomes ascending internal order
        assert bf.election == Election(3, ((2, 1, 3), (1, 3, 2)))
        assert bf.labels == ("1", "2", "3")

    def test_named_ballots_first_appearance(self):
        bf = parse_ballots("3 2\nc,a,b\nb,c,a\n")
        # c->1, a->2, b->3 in reading order
        assert bf.labels == ("c", "a", "b")
        assert bf.election.votes[0] == (3, 2, 1)
        assert bf.candidate_of("a") == 2

    def test_names_header_fixes_mapping(self):
        bf = parse_ballots("3 2\nnames: a,b,c\nc,a,b\nb,c,a\n")
        assert bf.labels == ("a", "b", "c")
        assert bf.election.votes[0] == (2, 1, 3)

    def test_crlf_and_padding(self):
        bf = parse_ballots("3 2\r\n 3 , 1,2 \r\n\r\n2,3,1\r\n")
        assert bf.election == Election(3, ((2, 1, 3), (1, 3, 2)))

    def test_comments_and_blanks_ignored(self):
        bf = parse_ballots("# ballots\n\n2 1\n\n# the only vote\n2,1\n")
        assert bf.election.votes == ((1, 2),)

    def test_candidate_of_accepts_index(self):
        bf = parse_ballots("2 1\nb,a\n")
        assert bf.candidate_of("b") == 1
        assert bf.candidate_of("2") == 2
        with pytest.raises(ValueError):
            bf.candidate_of("zz")
        with pytest.raises(ValueError):
            bf.candidate_of("3")


class TestParseErrors:
    def line_of(self, text):
        with pytest.raises(BallotParseError) as err:
            parse_ballots(text)
        return err.value.line, str(err.value)

    def test_empty_file(self):
        line, msg = self.line_of("")
        assert line == 1

    def test_bad_header(self):
        line, msg = self.line_of("three votes\n")
        assert line == 1 and "header" in msg

    def test_zero_sizes(self):
        assert self.line_of("0 2\n")[0] == 1
        assert self.line_of("2 0\n")[0] == 1

    def test_duplicate_entry_cites_line(self):
        line, msg = self.line_of("3 2\na,a,b\nb,a,c\n")
        assert line == 2 and "strict ranking" in msg

    def test_wrong_entry_count(self):
        line, msg = self.line_of("3 1\na,b\n")
        assert line == 2

    def test_out_of_range_index(self):
        line, msg = self.line_of("2 1\n3,1\n")
        assert line == 2 and "out of range" in msg

    def test_unknown_name_with_header(self):
        line, msg = self.line_of("2 1\nnames: a,b\na,z\n")
        assert line == 3 and "unknown" in msg

    def test_duplicate_names_in_header(self):
        line, msg = self.line_of("2 1\nnames: a,a\nb,a\n")
        assert line == 2 and "duplicate" in msg

    def test_missing_ballots(self):
        line, msg = self.line_of("2 3\na,b\n")
        assert "expected 3 ballot lines" in msg

    def test_extra_ballots(self):
        line, msg = self.line_of("2 1\na,b\nb,a\n")
        assert line == 3 and "expected 1 ballot lines" in msg

    def test_huge_header_fails_before_allocating(self):
        # arrays are sized from the header only once the body matches it
        line, msg = self.line_of("100000 100000\n1\n")
        assert line == 2 and "expected 100000 ballot lines" in msg
        line, msg = self.line_of("1000000000 1\n1\n")
        assert line == 2 and "expected 1000000000 comma-separated entries" in msg

    def test_error_order_follows_the_file(self):
        # a short line anywhere outranks a bad entry on an earlier line
        assert self.line_of("2 3\n1,1\n1,2\n1\n")[0] == 4
        # rows before a non-integer entry are checked first
        line, msg = self.line_of("2 3\n1,2\n2,2\n1,x\n")
        assert line == 3 and "strict ranking" in msg
        line, msg = self.line_of("2 2\n1,2\n5,x\n")
        assert line == 3 and "'5' out of range" in msg

    def test_index_too_large_for_any_integer_type(self):
        line, msg = self.line_of("2 2\n1,2\n2,99999999999999999999\n")
        assert line == 3 and "out of range" in msg
        line, msg = self.line_of("2 1\n99999999999999999999,1\n")
        assert line == 2 and "out of range" in msg


def read_entries(line: str) -> bool:
    """Whether the byte decoder takes ``line`` as one ballot line; checks what it reads."""
    tokens = line.split(",")
    out = np.zeros((1, len(tokens)), dtype=np.int32)
    if not _read_entries(np.frombuffer((line + "\n").encode("ascii"), dtype=np.uint8), out):
        assert not out.any()
        return False
    assert out[0].tolist() == [min(int(t), len(tokens) + 1) for t in tokens]
    return True


@pytest.mark.parametrize("width", range(1, 26))
def test_one_pass_route_takes_entries_of_1_to_18_digits(width):
    entry = "7" * width
    for text in (entry, f"1,{entry}", f"{entry},2", f"1,{entry},2", f"1,2,{entry},3,4"):
        assert read_entries(text) is (width <= 18)


@pytest.mark.parametrize("text", [",1", "1,", "1,,2", ",", "1,-2", "1, 2", "+1", "1.5",
                                  "1\r", "1\n2", "1,\n2"])
def test_one_pass_route_refuses_empty_or_non_digit_entries(text):
    assert read_entries(text) is False


class TestFormat:
    def test_round_trip_integers(self):
        e = Election(3, ((2, 1, 3), (1, 3, 2)))
        text = format_ballots(e)
        assert text == "3 2\n3,1,2\n2,3,1\n"
        assert parse_ballots(text).election == e

    def test_round_trip_with_names(self):
        e = Election(2, ((1, 2), (2, 1)))
        text = format_ballots(e, labels=("left", "right"))
        assert text.splitlines()[1] == "names: left,right"
        bf = parse_ballots(text)
        assert bf.election == e and bf.labels == ("left", "right")

    def test_label_count_checked(self):
        with pytest.raises(ValueError):
            format_ballots(Election(2, ((1, 2),)), labels=("only",))
