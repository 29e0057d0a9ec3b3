import itertools
import json
import re
import subprocess
import sys

import pytest

from dodgson import DodgsonTriple, SamplerConfig, cli, greedy_winner, sample_election
from dodgson.ballots import format_ballots, parse_ballots
from dodgson.cli import main

SIXTY_FORTY = "4 100\n" + "d,c,b,a\n" * 60 + "b,a,d,c\n" * 40
FIVE_TYPE = (
    "4 100\n"
    + "d,c,b,a\n" * 20
    + "a,d,c,b\n" * 20
    + "b,a,d,c\n" * 20
    + "c,d,a,b\n" * 20
    + "c,b,a,d\n" * 20
)
CYCLE = "3 3\nc,b,a\na,c,b\nb,a,c\n"


@pytest.fixture
def sixty_file(tmp_path):
    p = tmp_path / "sixty.ballots"
    p.write_text(SIXTY_FORTY)
    return str(p)


@pytest.fixture
def five_file(tmp_path):
    p = tmp_path / "five.ballots"
    p.write_text(FIVE_TYPE)
    return str(p)


@pytest.fixture
def cycle_file(tmp_path):
    p = tmp_path / "cycle.ballots"
    p.write_text(CYCLE)
    return str(p)


def masked(text):
    """``text`` with each wall_time value, a JSON key's or a CSV row's last field, as T."""
    return re.sub(r'(?<="wall_time": )[0-9.e+-]+|(?<=,)[0-9.e+-]+(?=\r?\n)', "T", text)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


class TestScore:
    def test_condorcet_winner(self, capsys, sixty_file):
        rc, out = run_json(capsys, ["score", sixty_file, "-c", "d"])
        assert rc == 0
        assert out == {"score": 0, "confidence": "definitely"}

    def test_five_type_maybe(self, capsys, five_file):
        rc, out = run_json(capsys, ["score", five_file, "-c", "a"])
        assert rc == 0
        assert out == {"score": 23, "confidence": "maybe"}

    def test_malformed_ballot_cites_line(self, capsys, tmp_path):
        p = tmp_path / "bad.ballots"
        p.write_text("3 2\na,a,b\nb,a,c\n")
        rc = main(["score", str(p), "-c", "a"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "line 2" in captured.err

    def test_unknown_candidate(self, capsys, cycle_file):
        rc = main(["score", cycle_file, "-c", "zebra"])
        assert rc == 2
        assert "unknown" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        rc = main(["score", "/nonexistent/x.ballots", "-c", "a"])
        assert rc == 2


class TestWinnerCommands:
    def test_winner_yes_maybe(self, capsys, sixty_file):
        rc, out = run_json(capsys, ["winner", sixty_file, "-c", "d"])
        assert rc == 0
        assert out == {"winner": "yes", "confidence": "maybe"}

    def test_winner_no(self, capsys, sixty_file):
        rc, out = run_json(capsys, ["winner", sixty_file, "-c", "a"])
        assert rc == 0
        assert out["winner"] == "no"

    @pytest.mark.parametrize("text", [
        SIXTY_FORTY, FIVE_TYPE, CYCLE, "3 2\nnames: x,y,z\nz,y,x\ny,x,z\n",
        *(format_ballots(sample_election(SamplerConfig(m, n, seed))) for m, n, seed in
          [(1, 1, 0), (2, 3, 1), (3, 4, 2), (4, 9, 3), (5, 25, 4), (6, 60, 5), (7, 101, 6)])])
    def test_winner_equals_greedy_winner_for_every_candidate(self, capsys, tmp_path, text):
        path = tmp_path / "ballots.txt"
        path.write_text(text)
        parsed = parse_ballots(text)
        for label in parsed.labels:
            result = greedy_winner(DodgsonTriple(parsed.election, parsed.candidate_of(label)))
            want = {"winner": "yes" if result.winner else "no", "confidence": result.confidence.value}
            assert run_json(capsys, ["winner", str(path), "-c", label]) == (0, want)

    def test_winners_cycle(self, capsys, cycle_file):
        rc, out = run_json(capsys, ["winners", cycle_file])
        assert rc == 0
        # labels in first-appearance order: c=1, b=2, a=3
        assert out == {"winners": ["c", "b", "a"], "confidence": "definitely"}

    def test_winners_sixty(self, capsys, sixty_file):
        rc, out = run_json(capsys, ["winners", sixty_file])
        assert rc == 0
        assert out["winners"] == ["d"]


class TestOracle:
    def test_sixty_d(self, capsys, sixty_file):
        rc, out = run_json(capsys, ["oracle", sixty_file, "-c", "d"])
        assert rc == 0
        assert out["score"] == 0

    def test_five_type_exact(self, capsys, five_file):
        rc, out = run_json(capsys, ["oracle", five_file, "-c", "a"])
        assert rc == 0
        assert out == {"score": 22, "mode": "strict"}

    def test_cycle_with_bfs_check(self, capsys, cycle_file):
        rc, out = run_json(capsys, ["oracle", cycle_file, "-c", "a", "--check-bfs"])
        assert rc == 0
        assert out == {"score": 1, "mode": "strict", "bfs_agrees": True}

    def test_tie_or_beat_mode(self, capsys, tmp_path):
        p = tmp_path / "two.ballots"
        p.write_text("2 2\nb,a\nb,a\n")
        rc, out = run_json(capsys, ["oracle", str(p), "-c", "a", "--mode", "tie-or-beat"])
        assert rc == 0
        assert out["score"] == 1

    def test_bfs_budget_exceeded(self, capsys, tmp_path):
        p = tmp_path / "big.ballots"
        p.write_text("5 4\n" + "a,b,c,d,e\n" * 4)
        rc = main(["oracle", str(p), "-c", "a", "--check-bfs"])
        assert rc == 3


class TestGenerate:
    def test_deterministic_files(self, capsys, tmp_path):
        f1, f2 = str(tmp_path / "a.ballots"), str(tmp_path / "b.ballots")
        assert main(["generate", "-m", "3", "-n", "5", "--seed", "1", "-o", f1]) == 0
        assert main(["generate", "-m", "3", "-n", "5", "--seed", "1", "-o", f2]) == 0
        capsys.readouterr()
        assert open(f1).read() == open(f2).read()

    def test_output_parses(self, capsys, tmp_path):
        f = str(tmp_path / "g.ballots")
        rc, out = run_json(capsys, ["generate", "-m", "4", "-n", "7", "--seed", "9", "-o", f])
        assert rc == 0 and out["m"] == 4 and out["n"] == 7
        rc2, score = run_json(capsys, ["score", f, "-c", "1"])
        assert rc2 == 0 and "score" in score


# `dodgson experiment -m 3 -n 25 --trials 500 --seed 7`: its stdout line (also
# its -o file) and its --csv file, byte for byte once wall_time is masked
CELL_LINE = (
    '{"m": 3, "n": 25, "trials": 500, "seed": 7, "maybe_count": 1, "pairfail_count": 450, '
    '"mismatch_count": 0, "bound_winner": 8.479779334292594, '
    '"bound_pair": 1.4132965557154324, "wall_time": T}\n'
)
CELL_CSV = (
    "m,n,trials,seed,maybe_freq,pairfail_freq,bound_winner,bound_pair,mismatches,wall_time\r\n"
    "3,25,500,7,0.002,0.9,8.479779334292594,1.4132965557154324,0,T\r\n"
)


def run_experiment(capsys, tmp_path, ms, ns, *options):
    """(exit code, stdout, -o file text, --csv file text) of one experiment run."""
    jsonl, table = tmp_path / "r.jsonl", tmp_path / "r.csv"
    rc = main(["experiment", "-m", *ms, "-n", *ns, *options,
               "-o", str(jsonl), "--csv", str(table)])
    out = capsys.readouterr().out
    return rc, out, *(p.read_bytes().decode() if p.exists() else None for p in (jsonl, table))


class TestExperiment:
    def test_trivial_single_candidate(self, capsys, tmp_path):
        rep_file = str(tmp_path / "r.json")
        rc, out = run_json(
            capsys,
            ["experiment", "-m", "1", "-n", "1", "--trials", "1", "-o", rep_file],
        )
        assert rc == 0
        assert out["maybe_count"] == 0
        assert json.load(open(rep_file))["maybe_count"] == 0

    def test_exhaustive_with_oracle(self, capsys, tmp_path):
        csv_file = str(tmp_path / "r.csv")
        rc, out = run_json(
            capsys,
            ["experiment", "-m", "3", "-n", "3", "--exhaustive", "--oracle",
             "--csv", csv_file],
        )
        assert rc == 0
        assert out["trials"] == 216
        assert out["mismatch_count"] == 0
        header = open(csv_file).readline().strip().split(",")
        assert header[:4] == ["m", "n", "trials", "seed"]


    def test_exhaustive_ignores_trials(self, capsys):
        rc, out = run_json(capsys, ["experiment", "-m", "3", "-n", "3", "--exhaustive",
                                    "--trials", "0"])
        assert rc == 0
        assert (out["maybe_count"], out["pairfail_count"], out["trials"]) == (96, 216, 216)

    def test_one_cell_prints_writes_and_tabulates_the_same_bytes(self, capsys, tmp_path):
        rc, out, jsonl, table = run_experiment(capsys, tmp_path, ["3"], ["25"],
                                               "--trials", "500", "--seed", "7")
        assert rc == 0
        assert masked(out) == CELL_LINE and jsonl == out
        assert masked(table) == CELL_CSV

    def test_grid_runs_m_major_and_every_cell_as_if_alone(self, capsys, tmp_path):
        options = ("--trials", "500", "--seed", "7")
        grid = tmp_path / "grid"
        grid.mkdir()
        rc, out, jsonl, table = run_experiment(capsys, grid, ["2", "3"], ["25", "101"], *options)
        assert rc == 0 and jsonl == out
        lines, rows = out.splitlines(keepends=True), table.splitlines(keepends=True)
        assert len(lines) == 4 and len(rows) == 5
        for k, (m, n) in enumerate(itertools.product(["2", "3"], ["25", "101"])):
            cell = tmp_path / f"m{m}n{n}"
            cell.mkdir()
            rc, cell_out, _, cell_table = run_experiment(capsys, cell, [m], [n], *options)
            assert rc == 0
            assert masked(lines[k]) == masked(cell_out)
            assert masked(rows[0] + rows[k + 1]) == masked(cell_table)

    def test_a_failing_cell_keeps_the_printed_lines_and_writes_no_file(self, capsys, tmp_path):
        # (2!)^3 = 8 profiles, then (2!)^1000 over the exhaustive cap
        rc, out, jsonl, table = run_experiment(capsys, tmp_path, ["2"], ["3", "1000"],
                                               "--exhaustive")
        assert rc == 3
        assert [json.loads(line)["trials"] for line in out.splitlines()] == [8]
        assert jsonl is None and table is None

    def test_exhaustive_over_the_cap_is_a_budget_error(self, capsys):
        rc = main(["experiment", "-m", "10", "-n", "1000", "--exhaustive"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "exhaustive mode" in err and "10^6559.8" in err

    def test_exhaustive_rejects_a_seed_as_a_sampled_run_does(self, capsys):
        argv = ["experiment", "-m", "2", "-n", "3", "--seed", "-5"]
        assert main(argv) == 2
        sampled = capsys.readouterr()
        assert main([*argv, "--exhaustive"]) == 2
        assert capsys.readouterr() == sampled
        assert sampled.out == ""
        assert sampled.err == "error: seed must be an unsigned 64-bit integer\n"


class TestCodecCommands:
    def test_encode_decode_round_trip(self, capsys, tmp_path, cycle_file):
        bitfile = str(tmp_path / "t.dtb")
        rc, summary = run_json(capsys, ["encode", cycle_file, "-c", "b", "-o", bitfile])
        assert rc == 0 and summary["bits"] == 25  # (2+1) + 2*2 + 3*3*2
        out_ballots = str(tmp_path / "back.ballots")
        rc, summary = run_json(capsys, ["decode", bitfile, "-o", out_ballots])
        assert rc == 0
        assert summary["m"] == 3 and summary["n"] == 3
        rc, back = run_json(capsys, ["winners", out_ballots])
        assert rc == 0 and back["winners"] == ["1", "2", "3"]

    def test_packed_round_trip(self, capsys, tmp_path, cycle_file):
        bitfile = str(tmp_path / "t.dtbz")
        rc, summary = run_json(capsys, ["encode", cycle_file, "-c", "a", "-o", bitfile])
        assert rc == 0 and summary["packed"] is True
        rc, decoded = run_json(capsys, ["decode", bitfile])
        assert rc == 0
        # line "c,b,a" under first-appearance labels c=1,b=2,a=3, most preferred first
        assert decoded["ballots"][0] == [1, 2, 3]

    def test_any_other_name_gets_a_text_bit_file(self, capsys, tmp_path, cycle_file):
        bitfile = tmp_path / "x.bin"
        rc, summary = run_json(capsys, ["encode", cycle_file, "-c", "a", "-o", str(bitfile)])
        assert rc == 0 and summary["packed"] is False
        assert bitfile.read_bytes()[:1] == b"1"
        rc, decoded = run_json(capsys, ["decode", str(bitfile)])
        assert rc == 0 and decoded["ballots"][0] == [1, 2, 3]

    def test_the_name_alone_picks_the_format(self, capsys, tmp_path, cycle_file):
        with pytest.raises(SystemExit) as exc:
            main(["encode", cycle_file, "-c", "a", "-o", str(tmp_path / "x.bin"), "--packed"])
        assert exc.value.code == 2
        assert not (tmp_path / "x.bin").exists()

    def test_decode_tells_the_format_from_the_first_byte(self, capsys, tmp_path, cycle_file):
        decoded = {}
        for ext, renamed in (("dtbz", "t.bin"), ("dtb", "text.dtbz")):
            bitfile = tmp_path / f"t.{ext}"
            assert run_json(capsys, ["encode", cycle_file, "-c", "a", "-o", str(bitfile)])[0] == 0
            bitfile.rename(tmp_path / renamed)
            rc, decoded[ext] = run_json(capsys, ["decode", str(tmp_path / renamed)])
            assert rc == 0
        assert decoded["dtbz"] == decoded["dtb"]
        assert decoded["dtb"]["ballots"][0] == [1, 2, 3]

    def test_decode_truncated(self, capsys, tmp_path):
        bad = tmp_path / "t.dtb"
        bad.write_text("101\n")
        rc = main(["decode", str(bad)])
        assert rc == 2
        assert "underflow" in capsys.readouterr().err


class TestParserReuse:
    def test_parser_built_once(self, capsys, monkeypatch, cycle_file):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        for _ in range(3):
            assert main(["winners", cycle_file]) == 0
        assert built == [1]

    def test_no_option_leaks_between_calls(self, capsys, tmp_path, cycle_file):
        report = str(tmp_path / "r.json")
        argv = ["oracle", cycle_file, "-c", "a", "--check-bfs", "--mode", "tie-or-beat"]
        rc, out = run_json(capsys, argv)
        assert rc == 0 and out == {"score": 1, "mode": "tie-or-beat", "bfs_agrees": True}
        rc, out = run_json(capsys, ["experiment", "-m", "2", "-n", "3", "--trials", "2",
                                    "-o", report])
        assert rc == 0 and out["trials"] == 2
        rc, out = run_json(capsys, ["oracle", cycle_file, "-c", "a"])
        assert rc == 0 and out == {"score": 1, "mode": "strict"}
        rc, out = run_json(capsys, ["experiment", "-m", "2", "-n", "3", "--trials", "2"])
        assert rc == 0 and out["seed"] == 0
        assert json.load(open(report))["trials"] == 2

    def test_usage_errors_and_version_after_a_call(self, capsys, cycle_file):
        assert main(["winners", cycle_file]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["winners", cycle_file, "-c", "a"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        capsys.readouterr()
        rc, out = run_json(capsys, ["winners", cycle_file])
        assert rc == 0 and out["winners"] == ["c", "b", "a"]


def test_module_entry_point(tmp_path):
    p = tmp_path / "c.ballots"
    p.write_text(CYCLE)
    proc = subprocess.run(
        [sys.executable, "-m", "dodgson", "score", str(p), "-c", "a"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"score": 1, "confidence": "definitely"}
