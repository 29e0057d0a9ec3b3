"""Command-line interface.

Exit codes: 0 success, 1 internal self-check failure (e.g. oracle
disagreement), 2 input error, 3 search budget exceeded.  Results go to
stdout as JSON; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .ballots import BallotFile, format_ballots, parse_ballots
from .bounds import (EXHAUSTIVE_PROFILE_CAP, BoundParams, SelfCheckError, run_trials,
                     write_csv, write_report)
from .codec import decode, encode, read_bit_file, write_bit_file
from .election import DodgsonTriple
from .greedy import greedy_all_winners, greedy_score
from .oracle import (
    DEFAULT_BFS_PROFILE_BUDGET,
    DEFAULT_DP_STATE_BUDGET,
    BudgetExceededError,
    ScoreMode,
    bfs_swap_score,
    exact_dodgson_score,
)
from .sampling import SamplerConfig, sample_election


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def _load_ballots(path: str) -> BallotFile:
    return parse_ballots(Path(path).read_text())


def _triple(ballots: BallotFile, token: str) -> DodgsonTriple:
    return DodgsonTriple(ballots.election, ballots.candidate_of(token))


def cmd_score(args) -> int:
    ballots = _load_ballots(args.ballots)
    res = greedy_score(_triple(ballots, args.candidate))
    _emit({"score": res.score, "confidence": res.confidence.value})
    return 0


def cmd_winner(args) -> int:
    ballots = _load_ballots(args.ballots)
    triple = _triple(ballots, args.candidate)
    res = greedy_all_winners(triple.election)  # greedy_winner's answer from one tally
    _emit({"winner": "yes" if triple.candidate in res.winners else "no",
           "confidence": res.confidence.value})
    return 0


def cmd_winners(args) -> int:
    ballots = _load_ballots(args.ballots)
    res = greedy_all_winners(ballots.election)
    _emit({
        "winners": [ballots.label_of(c) for c in sorted(res.winners)],
        "confidence": res.confidence.value,
    })
    return 0


def cmd_oracle(args) -> int:
    ballots = _load_ballots(args.ballots)
    triple = _triple(ballots, args.candidate)
    mode = ScoreMode(args.mode)
    score = exact_dodgson_score(triple, mode, state_budget=args.dp_budget)
    payload = {"score": score, "mode": mode.value}
    if args.check_bfs:
        reference = bfs_swap_score(triple, mode, profile_budget=args.bfs_budget)
        if reference != score:
            raise SelfCheckError(
                f"oracle disagreement: dynamic programming says {score}, "
                f"profile search says {reference}"
            )
        payload["bfs_agrees"] = True
    _emit(payload)
    return 0


def cmd_generate(args) -> int:
    cfg = SamplerConfig(args.m, args.n, args.seed)
    e = sample_election(cfg)
    Path(args.output).write_text(format_ballots(e))
    _emit({"output": str(args.output), "m": cfg.m, "n": cfg.n, "seed": cfg.seed})
    return 0


def cmd_experiment(args) -> int:
    """One report per (m, n) cell, m-major; files are written once every cell has run."""
    reports = []
    for m in args.m:
        for n in args.n:
            reports.append(run_trials(BoundParams(m, n), args.trials, args.seed,
                                      oracle=args.oracle, exhaustive=args.exhaustive))
            print(reports[-1].to_json(), flush=True)
    if args.output:
        write_report(reports, args.output)
    if args.csv:
        write_csv(reports, args.csv)
    return 0


def cmd_encode(args) -> int:
    ballots = _load_ballots(args.ballots)
    bits = encode(_triple(ballots, args.candidate))
    packed = write_bit_file(bits, args.output)
    _emit({"output": str(args.output), "bits": len(bits), "packed": packed})
    return 0


def cmd_decode(args) -> int:
    bits = read_bit_file(args.bitfile)
    triple = decode(bits)
    del bits  # freed before the ballot text is built
    e = triple.election
    summary = {"m": e.m, "n": e.n, "candidate": triple.candidate}
    if args.output:
        Path(args.output).write_text(format_ballots(e))
        summary["output"] = str(args.output)
    else:
        summary["ballots"] = e.ranks[:, ::-1].tolist()
    _emit(summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dodgson",
        description="Greedy Dodgson-election heuristics, exact oracles, "
        "and correctness-frequency experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def ballots_cmd(name, func, help_, candidate=True):
        p = sub.add_parser(name, help=help_)
        p.add_argument("ballots", help="ballot text file")
        if candidate:
            p.add_argument("-c", "--candidate", required=True,
                           help="candidate name or 1-based index")
        p.set_defaults(func=func)
        return p

    ballots_cmd("score", cmd_score, "greedy Dodgson score with confidence tag")
    ballots_cmd("winner", cmd_winner, "greedy Dodgson-winner check with confidence tag")
    ballots_cmd("winners", cmd_winners, "greedy winner set over all candidates",
                candidate=False)

    p = ballots_cmd("oracle", cmd_oracle, "exact Dodgson score (dynamic programming)")
    p.add_argument("--mode", choices=[m.value for m in ScoreMode],
                   default=ScoreMode.STRICT.value,
                   help="winning condition (default: strict)")
    p.add_argument("--check-bfs", action="store_true",
                   help="cross-check against the profile-search oracle")
    p.add_argument("--dp-budget", type=int, default=DEFAULT_DP_STATE_BUDGET,
                   help=f"max DP states (default {DEFAULT_DP_STATE_BUDGET:,}; up to 12 "
                        "bytes of memory each)")
    p.add_argument("--bfs-budget", type=int, default=DEFAULT_BFS_PROFILE_BUDGET,
                   help="max (m!)^n profiles for --check-bfs (default "
                        f"{DEFAULT_BFS_PROFILE_BUDGET:,}); its table has at most one "
                        "8-byte cell per profile")

    p = sub.add_parser("generate", help="sample a uniform random election")
    p.add_argument("-m", type=int, required=True, help="candidate count")
    p.add_argument("-n", type=int, required=True, help="vote count")
    p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    p.add_argument("-o", "--output", required=True, help="ballot file to write")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("experiment",
                       help="Monte Carlo check of the correctness-frequency bounds")
    p.add_argument("-m", type=int, nargs="+", required=True,
                   help="candidate counts; each pairs with every -n value")
    p.add_argument("-n", type=int, nargs="+", required=True, help="vote counts")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle", action="store_true",
                   help="verify every definite answer against the exact oracle")
    p.add_argument("--exhaustive", action="store_true",
                   help="exact counts over all (m!)^n profiles (cap "
                        f"{EXHAUSTIVE_PROFILE_CAP:,}): one election per vote multiset, "
                        "weighted by its multinomial; errors print the failing "
                        "multiset's ballots")
    p.add_argument("-o", "--output", help="report file: the printed JSON lines")
    p.add_argument("--csv", help="report CSV file: a header, then one row per cell")
    p.set_defaults(func=cmd_experiment)

    p = ballots_cmd("encode", cmd_encode, "encode ballots + candidate as a bit file")
    p.add_argument("-o", "--output", required=True, help=".dtbz file (packed) or any other (text)")

    p = sub.add_parser("decode", help="decode a bit file back to ballots")
    p.add_argument("bitfile", help=".dtb or .dtbz file, told apart by its first byte")
    p.add_argument("-o", "--output", help="ballot file to write (default: inline JSON)")
    p.set_defaults(func=cmd_decode)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use: parsing never changes it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # BallotParseError and BitDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SelfCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
