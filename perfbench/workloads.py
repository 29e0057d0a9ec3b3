"""The benchmark's three workloads (see README.md for why each exists).

A workload is built once per set-up from its seed: it makes its own inputs
and warms the code paths it will time.  It then runs rounds.  A round is one
pass over the workload's steps, and each step is a fixed list of operations.
Operations run one at a time in a closed loop: each starts only after the
previous one finished and its output was checked.  Only the library call is
timed; generating inputs and checking outputs are not.

``round(r)`` returns the round's named metrics plus ``round_s``, the summed
time of its timed calls.  Round r draws fresh inputs from (seed, r), so a run
covers many substreams and two runs with one seed see the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from pathlib import Path

# name -> (unit, better, bound).  ``bound`` is the share of the base median by
# which compare.py lets a metric worsen before calling it a regression; the
# gated metrics carry the bounds of BENCHMARK.json.  Step metrics get the
# same 0.25 as round_s: their spread over ten seeds is 10-22% on a shared
# 2-core machine.
METRICS = {
    "round_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "failed_frac": ("ratio", "lower", 0.0),
    "mc_trials_per_s": ("1/s", "higher", 0.25),
    "replay_trials_per_s": ("1/s", "higher", 0.25),
    "generate_s": ("s", "lower", 0.25),
    "winners_s": ("s", "lower", 0.25),
    "score_s": ("s", "lower", 0.25),
    "encode_s": ("s", "lower", 0.25),
    "decode_s": ("s", "lower", 0.25),
    "validated_trials_per_s": ("1/s", "higher", 0.25),
    "crosscheck_per_s": ("1/s", "higher", 0.25),
}


class CommandFailed(RuntimeError):
    """A CLI command returned a nonzero exit code."""


class Ops:
    """Counts attempted operations and the ones that failed.

    An operation fails when it raises or when its output check reports a
    problem.  Failures are counted, never raised, so one bad output does not
    hide the rest of the run.  While ``tracer`` is set, each operation runs
    inside its root span.
    """

    def __init__(self, tracer=None):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = tracer

    def run(self, label: str, call, check) -> float:
        """Time ``call()``, then pass its output to ``check``.

        ``check`` returns None when the output is right and a description of
        the problem otherwise.  Returns the call's duration in seconds.
        """
        if self.tracer is not None:
            call = self.tracer.operation(self.attempted, call)
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # counted as a failed operation
            elapsed = time.perf_counter() - start
            self._fail(label, f"{type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        problem = check(out)
        if problem is not None:
            self._fail(label, problem)
        return elapsed

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def _fail(self, label: str, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {problem}")


def round_seed(workload: str, seed: int, r: int, k: int = 0) -> int:
    """Deterministic 64-bit seed for run k of round r of a workload."""
    return random.Random(f"{workload}/{seed}/{r}/{k}").getrandbits(64)


def run_cli(lib, argv: list[str]) -> str:
    """``dodgson <argv>`` in-process; returns stdout, raises on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    if code != 0:
        raise CommandFailed(f"dodgson {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def is_definite(result) -> bool:
    return result.confidence.value == "definitely"


# -- montecarlo --------------------------------------------------------------

# (m, n, trials per experiment run).  The replay costs 10-50x more per trial
# than run_trials, so each cell runs MC_RUNS experiments per round and the
# replay re-derives the substreams of the first one; that keeps the two
# routes at similar shares of a round.
MC_CELLS = ((3, 25, 100), (3, 100, 100), (3, 400, 100), (10, 1000, 4))
MC_RUNS = 8


def experiment_argv(m: int, n: int, trials: int, seed: int) -> list[str]:
    return ["experiment", "-m", str(m), "-n", str(n), "--trials", str(trials),
            "--seed", str(seed)]


def experiment(lib, m: int, n: int, trials: int, seed: int) -> dict:
    """The report of ``dodgson experiment`` for one cell."""
    return json.loads(run_cli(lib, experiment_argv(m, n, trials, seed)))


def check_experiment(report: dict, m: int, n: int, trials: int, seed: int):
    echo = (report["m"], report["n"], report["trials"], report["seed"])
    if echo != (m, n, trials, seed):
        return f"report echoes {echo}, expected {(m, n, trials, seed)}"
    if report["mismatch_count"] != 0:
        return f"mismatch_count {report['mismatch_count']}"
    for key in ("maybe_count", "pairfail_count"):
        if not 0 <= report[key] <= trials:
            return f"{key} {report[key]} outside 0..{trials}"
    return None


def replay(lib, m: int, n: int, trials: int, seed: int) -> list:
    """Per-trial scalar-API results on the substreams ``run_trials`` uses.

    Each record is (greedy scores by candidate, pair-condition matrix, probe
    candidate, greedy_winner of the probe, condorcet_winner).
    """
    triple = lib.election.DodgsonTriple
    greedy, bounds, election = lib.greedy, lib.bounds, lib.election
    cfg = lib.sampling.SamplerConfig(m, n, seed)
    records = []
    for i, e in enumerate(lib.sampling.sample_stream(cfg, trials)):
        cands = e.candidates
        scores = [greedy.greedy_score(triple(e, c)) for c in cands]
        pairs = [[d == c or bounds.pair_condition_holds(triple(e, c), d) for d in cands]
                 for c in cands]
        probe = 1 + i % m
        records.append((scores, pairs, probe, greedy.greedy_winner(triple(e, probe)),
                        election.condorcet_winner(e)))
    return records


def replay_counts(records: list) -> tuple[int, int]:
    """(maybe trials, pair-fail trials), as run_trials counts them."""
    maybe = sum(not all(map(is_definite, scores)) for scores, *_ in records)
    pairfail = sum(not all(map(all, pairs)) for _, pairs, *_ in records)
    return maybe, pairfail


def check_replay(records: list, reference: tuple[int, int] | None):
    for i, (scores, pairs, probe, winner, condorcet) in enumerate(records):
        definite = [is_definite(s) for s in scores]
        for c, row in enumerate(pairs, start=1):
            if all(row) and not definite[c - 1]:
                return f"trial {i}: tally conditions hold for {c} but its score is 'maybe'"
        best = min(s.score for s in scores)
        if winner.winner != (scores[probe - 1].score == best):
            return f"trial {i}: greedy_winner({probe}) disagrees with the greedy scores"
        if is_definite(winner) != all(definite):
            return f"trial {i}: greedy_winner({probe}) confidence disagrees with the scores"
        zero = [c for c, s in enumerate(scores, start=1) if s.score == 0]
        if zero != ([] if condorcet is None else [condorcet]):
            return f"trial {i}: condorcet_winner {condorcet} but zero-score candidates {zero}"
        if condorcet is not None and not definite[condorcet - 1]:
            return f"trial {i}: Condorcet winner {condorcet} scored 'maybe'"
    if reference is None:
        return "no run_trials counts to compare with (the experiment failed)"
    counts = replay_counts(records)
    if counts != reference:
        return f"replay counts {counts} != run_trials counts {reference}"
    return None


class Montecarlo:
    name = "montecarlo"
    setup_repeats = 9

    def __init__(self, lib, seed: int, ops: Ops, workdir: Path, cells=MC_CELLS, runs=MC_RUNS):
        self.lib, self.seed, self.ops = lib, seed, ops
        self.cells, self.runs = cells, runs
        experiment(lib, 3, 25, 2, seed)  # warm-up: argparse, JSON, numpy paths
        replay(lib, 3, 25, 2, seed)

    def round(self, r: int) -> dict:
        lib, ops = self.lib, self.ops
        mc_s = replay_s = 0.0
        mc_trials = replay_trials = 0
        for m, n, trials in self.cells:
            reference = None
            for k in range(self.runs):
                seed = round_seed(self.name, self.seed, r, k)
                report = {}

                def check(stdout, seed=seed):
                    report.update(json.loads(stdout))
                    return check_experiment(report, m, n, trials, seed)

                argv = experiment_argv(m, n, trials, seed)
                mc_s += ops.run(" ".join(argv), lambda: run_cli(lib, argv), check)
                mc_trials += trials
                if k == 0 and report:
                    reference = (report["maybe_count"], report["pairfail_count"])
            seed = round_seed(self.name, self.seed, r, 0)
            replay_s += ops.run(f"replay m={m} n={n} trials={trials} seed={seed}",
                                lambda: replay(lib, m, n, trials, seed),
                                lambda records: check_replay(records, reference))
            replay_trials += trials
        return {"mc_trials_per_s": mc_trials / mc_s,
                "replay_trials_per_s": replay_trials / replay_s,
                "round_s": mc_s + replay_s}


# -- ballot_file -------------------------------------------------------------


class BallotFile:
    name = "ballot_file"
    setup_repeats = 5
    steps = ("generate", "winners", "score", "encode", "decode")
    outputs = {"generate": "generated.txt", "encode": "dtbz", "decode": "decoded.txt"}

    def __init__(self, lib, seed: int, ops: Ops, workdir: Path, m: int = 100, n: int = 10_000):
        self.lib, self.seed, self.ops = lib, seed, ops
        self.m, self.n = m, n
        self.candidate = random.Random(f"{self.name}/{seed}").randint(1, m)
        e = lib.sampling.sample_election(lib.sampling.SamplerConfig(m, n, seed))
        self.text = lib.ballots.format_ballots(e).encode()
        self.winners = lib.greedy.greedy_all_winners(e)
        self.score = lib.greedy.greedy_score(lib.election.DodgsonTriple(e, self.candidate))
        width = m.bit_length()
        self.bits = (width + 1) + 2 * width + n * m * width
        self.paths = {key: workdir / f"{self.name}.{key}"
                      for key in ("txt", "generated.txt", "dtbz", "decoded.txt")}
        self.paths["txt"].write_bytes(self.text)
        self.commands, self.expected = self._commands(), self._expected()
        self._warm_up(workdir)

    def _warm_up(self, workdir: Path) -> None:
        small = str(workdir / "warm.txt")
        packed = str(workdir / "warm.dtbz")
        for argv in (["generate", "-m", "4", "-n", "20", "-o", small],
                     ["winners", small], ["score", small, "-c", "1"],
                     ["encode", small, "-c", "1", "-o", packed],
                     ["decode", packed, "-o", small]):
            run_cli(self.lib, argv)

    def _commands(self) -> dict:
        p = {key: str(path) for key, path in self.paths.items()}
        c = str(self.candidate)
        return {
            "generate": ["generate", "-m", str(self.m), "-n", str(self.n),
                         "--seed", str(self.seed), "-o", p["generated.txt"]],
            "winners": ["winners", p["txt"]],
            "score": ["score", p["txt"], "-c", c],
            "encode": ["encode", p["txt"], "-c", c, "-o", p["dtbz"]],
            "decode": ["decode", p["dtbz"], "-o", p["decoded.txt"]],
        }

    def _expected(self) -> dict:
        p = {key: str(path) for key, path in self.paths.items()}
        return {
            "generate": {"output": p["generated.txt"], "m": self.m, "n": self.n,
                         "seed": self.seed},
            "winners": {"winners": [str(c) for c in sorted(self.winners.winners)],
                        "confidence": self.winners.confidence.value},
            "score": {"score": self.score.score, "confidence": self.score.confidence.value},
            "encode": {"output": p["dtbz"], "bits": self.bits, "packed": True},
            "decode": {"m": self.m, "n": self.n, "candidate": self.candidate,
                       "output": p["decoded.txt"]},
        }

    def _check_files(self, step: str):
        if step in ("generate", "decode"):
            key = self.outputs[step]
            if self.paths[key].read_bytes() != self.text:
                return f"{key} differs from the set-up ballot file"
        if step == "encode":
            size = self.paths["dtbz"].stat().st_size
            if size != 8 + (self.bits + 7) // 8:
                return f"packed file has {size} bytes for {self.bits} bits"
        return None

    def round(self, r: int) -> dict:
        commands, expected = self.commands, self.expected
        out = {}
        for step in self.steps:
            if step in self.outputs:  # a stale file must not pass the check
                self.paths[self.outputs[step]].unlink(missing_ok=True)

            def check(stdout, step=step):
                got = json.loads(stdout)
                if got != expected[step]:
                    return f"output {got} != expected {expected[step]}"
                return self._check_files(step)

            out[f"{step}_s"] = self.ops.run(f"{step} (seed {self.seed})",
                                            lambda: run_cli(self.lib, commands[step]), check)
        out["round_s"] = sum(out.values())
        return out


# -- oracle_check ------------------------------------------------------------

ORACLE_CELLS = ((4, 40), (5, 50), (6, 30))
ORACLE_TRIALS = 4
CROSSCHECK_TRIPLES = 100
PROFILE_CAP = 10**6  # cross-checked triples satisfy (m!)^n <= PROFILE_CAP
# largest n with (m!)^n <= PROFILE_CAP, per m
MAX_VOTES = {m: max(n for n in range(1, 21) if math.factorial(m) ** n <= PROFILE_CAP)
             for m in range(2, 7)}
EXHAUSTIVE_M3_N3 = (96, 216, 216)  # (maybe_count, pairfail_count, trials)


def random_triples(rng: random.Random, count: int) -> list[tuple[int, tuple, int]]:
    """(m, votes, candidate) with (m!)^n <= PROFILE_CAP.

    m cycles through 2..6 and n through 1..MAX_VOTES[m], so every round
    checks the same mix of shapes; only the votes and the candidate are
    random.  Search cost depends mostly on the shape, so a fixed mix keeps
    round times comparable across rounds and seeds.
    """
    out = []
    for k in range(count):
        m = 2 + k % 5
        n = 1 + (k // 5) % MAX_VOTES[m]
        votes = tuple(tuple(rng.sample(range(1, m + 1), m)) for _ in range(n))
        out.append((m, votes, rng.randint(1, m)))
    return out


def crosscheck(lib, m: int, votes: tuple, candidate: int) -> list[tuple[str, int, int]]:
    """(mode, DP score, BFS score) for one triple in both score modes."""
    oracle = lib.oracle
    triple = lib.election.DodgsonTriple(lib.election.Election(m, votes), candidate)
    return [(mode.value, oracle.exact_dodgson_score(triple, mode),
             oracle.bfs_swap_score(triple, mode)) for mode in oracle.ScoreMode]


def check_crosscheck(results: list):
    bad = [(mode, dp, bfs) for mode, dp, bfs in results if dp != bfs]
    return f"DP and BFS disagree (mode, dp, bfs): {bad}" if bad else None


def exhaustive_counts(lib) -> tuple[int, int, int]:
    report = lib.bounds.run_trials(lib.bounds.BoundParams(3, 3), 1, 0,
                                   oracle=True, exhaustive=True)
    return report.maybe_count, report.pairfail_count, report.trials


class OracleCheck:
    name = "oracle_check"
    setup_repeats = 9

    def __init__(self, lib, seed: int, ops: Ops, workdir: Path,
                 cells=ORACLE_CELLS, trials: int = ORACLE_TRIALS,
                 triples: int = CROSSCHECK_TRIPLES):
        self.lib, self.seed, self.ops = lib, seed, ops
        self.cells, self.trials, self.triples = cells, trials, triples
        bounds = lib.bounds
        bounds.run_trials(bounds.BoundParams(4, 10), 2, seed, oracle=True)  # warm-up
        crosscheck(lib, *random_triples(random.Random(seed), 1)[0])

    def round(self, r: int) -> dict:
        lib, ops, bounds = self.lib, self.ops, self.lib.bounds
        seed = round_seed(self.name, self.seed, r)
        validate_s = 0.0
        validated = 0
        for m, n in self.cells:
            validate_s += ops.run(
                f"run_trials oracle m={m} n={n} trials={self.trials} seed={seed}",
                lambda: bounds.run_trials(bounds.BoundParams(m, n), self.trials, seed,
                                          oracle=True),
                lambda rep: None if (rep.trials, rep.mismatch_count) == (self.trials, 0)
                else f"trials {rep.trials}, mismatches {rep.mismatch_count}")
            validated += self.trials
        validate_s += ops.run(
            "run_trials oracle exhaustive m=3 n=3", lambda: exhaustive_counts(lib),
            lambda got: None if got == EXHAUSTIVE_M3_N3
            else f"(maybe, pairfail, trials) {got} != {EXHAUSTIVE_M3_N3}")
        validated += EXHAUSTIVE_M3_N3[2]

        crosscheck_s = 0.0
        checks = 0
        for m, votes, c in random_triples(random.Random(seed), self.triples):
            crosscheck_s += ops.run(f"crosscheck m={m} votes={votes} candidate={c}",
                                    lambda: crosscheck(lib, m, votes, c), check_crosscheck)
            checks += len(lib.oracle.ScoreMode)
        return {"validated_trials_per_s": validated / validate_s,
                "crosscheck_per_s": checks / crosscheck_s,
                "round_s": validate_s + crosscheck_s}


WORKLOADS = {w.name: w for w in (Montecarlo, BallotFile, OracleCheck)}
