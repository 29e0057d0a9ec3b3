"""Shapes over the cell budget exit 3 before anything of their size is allocated.

A tally is m x m and a sampled profile n x m, however few bytes of input ask
for them, so each checks its shape against ``election.CELL_BUDGET`` first.
Every test that could reach such an allocation runs in-process under a
lowered address-space limit, so a regression fails with a MemoryError (and a
message that is not the budget's) instead of taking gigabytes from the
machine.
"""

import re
import tracemalloc

import numpy as np
import pytest

from dodgson import BoundParams, BudgetExceededError, election, oracle, run_trials
from dodgson.cli import main
from dodgson.election import CELL_BUDGET, _check_cells, adjacency_counts, preference_counts
from dodgson.sampling import rank_array

BUDGET_MESSAGE = re.compile(r"^error: .* ~ 10\^[0-9.]+, over the budget of 100000000 "
                            r"by a factor of ~10\^[0-9.]+\n$")


@pytest.fixture
def capped_address_space():
    """Lower this process's soft RLIMIT_AS to its current size plus 1 GiB for one test."""
    resource = pytest.importorskip("resource")
    try:
        with open("/proc/self/status") as fh:
            size = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
    except (OSError, StopIteration):
        pytest.skip("no /proc/self/status to size the limit from")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + 2**30
    if hard != resource.RLIM_INFINITY and hard < cap:
        cap = hard
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.fixture(scope="module")
def one_vote_file(tmp_path_factory):
    """One vote over m=30000 candidates: 169 KB of text asking for 9 * 10^8-cell tallies."""
    m = 30_000
    path = tmp_path_factory.mktemp("budget") / "one-vote.txt"
    path.write_text(f"{m} 1\n" + ",".join(map(str, range(1, m + 1))) + "\n")
    return str(path)


def run_traced(capsys, argv):
    """(exit code, stdout, stderr, tracemalloc peak in MiB) of one in-process command."""
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    return rc, captured.out, captured.err, peak / 2**20


def test_budget_error_is_the_oracle_one():
    assert oracle.BudgetExceededError is election.BudgetExceededError is BudgetExceededError
    assert CELL_BUDGET >= 10**8


def test_shapes_in_use_are_admitted():
    for rows, columns in ((10**6, 100), (10**4, 100), (3000, 300), (1, 10**4)):
        _check_cells("profile", rows, columns)
    with pytest.raises(BudgetExceededError, match=r"^x needs 1 x 100000001 cells ~ 10\^8\.0, "):
        _check_cells("x", 1, CELL_BUDGET + 1)


@pytest.mark.usefixtures("capped_address_space")
def test_library_calls_raise_before_allocating():
    one_vote = np.arange(1, 10_002, dtype=np.int32)[None, :]  # (10^4 + 1)^2 cells
    for tally in (preference_counts, adjacency_counts):
        with pytest.raises(BudgetExceededError, match="tally needs 10001 x 10001 cells"):
            tally(one_vote)
    with pytest.raises(BudgetExceededError, match="sampled profile needs 100000 x 100000"):
        rank_array(np.random.default_rng(0), 100_000, 100_000)
    for exhaustive in (False, True):
        with pytest.raises(BudgetExceededError, match="each trial's profile needs 1000000000 x 1"):
            run_trials(BoundParams(1, 10**9), 1, seed=0, exhaustive=exhaustive)


@pytest.mark.usefixtures("capped_address_space")
@pytest.mark.parametrize("argv", [["winners"], ["winner", "-c", "1"]])
def test_tally_commands_exit_3_on_one_large_vote(capsys, one_vote_file, argv):
    rc, out, err, peak = run_traced(capsys, [argv[0], one_vote_file, *argv[1:]])
    assert (rc, out) == (3, "")
    assert BUDGET_MESSAGE.match(err) and "preference tally needs 30000 x 30000 cells" in err
    assert peak < 8


@pytest.mark.usefixtures("capped_address_space")
def test_score_still_answers_on_one_large_vote(capsys, one_vote_file):
    rc, out, err, peak = run_traced(capsys, ["score", one_vote_file, "-c", "1"])
    assert (rc, out, err) == (0, '{"score": 0, "confidence": "definitely"}\n', "")
    assert peak < 8


@pytest.mark.usefixtures("capped_address_space")
def test_generate_over_budget_exits_3_and_writes_nothing(capsys, tmp_path):
    out = tmp_path / "big.txt"
    rc, _, err, peak = run_traced(capsys, ["generate", "-m", "100000", "-n", "100000", "-o", str(out)])
    assert rc == 3 and BUDGET_MESSAGE.match(err) and "sampled profile" in err
    assert not out.exists()
    assert peak < 1


@pytest.mark.usefixtures("capped_address_space")
def test_exhaustive_single_candidate_over_budget_exits_3(capsys):
    # (1!)^n = 1 profile for any n, so only the cell check stops a walk of n votes
    rc, _, err, peak = run_traced(capsys, ["experiment", "-m", "1", "-n", "1000000000", "--exhaustive"])
    assert rc == 3 and BUDGET_MESSAGE.match(err) and "each trial's profile" in err
    assert peak < 1


@pytest.mark.parametrize("message, line", [("Unable to allocate 8 GiB", "error: Unable to allocate 8 GiB\n"),
                                           ("", "error: out of memory\n")])
def test_memory_error_exits_3_with_one_line(capsys, monkeypatch, tmp_path, message, line):
    def tally(ranks):
        raise MemoryError(message)

    monkeypatch.setattr("dodgson.greedy.preference_counts", tally)
    path = tmp_path / "cycle.txt"
    path.write_text("3 3\n3,2,1\n1,3,2\n2,1,3\n")
    assert main(["winners", str(path)]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line)
