#!/usr/bin/env python3
"""Sweep the correctness-frequency experiment over a grid of (m, n) cells.

Writes one JSON report per cell plus a combined CSV, and prints a summary
table.  Example:

    python scripts/run_bounds_sweep.py --m 2 3 --n 25 100 400 \
        --trials 10000 --seed 7 --out results/
"""

import argparse
import sys
from pathlib import Path

from dodgson import BoundParams, run_trials
from dodgson.bounds import write_csv, write_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--m", type=int, nargs="+", default=[2, 3, 4])
    ap.add_argument("--n", type=int, nargs="+", default=[25, 100, 400, 1600])
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--oracle", action="store_true",
                    help="cross-check definite answers against the exact oracle "
                         "(per trial on 2 vCPUs: ~0.1 s at m=5, n=1000 or m=6, "
                         "n=200; ~15 s at m=6, n=1000)")
    ap.add_argument("--out", type=Path, default=Path("bounds-results"))
    args = ap.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    reports = []
    print(f"{'m':>3} {'n':>6} {'trials':>8} {'maybe_freq':>11} "
          f"{'bound':>10} {'pairfail':>9} {'secs':>7}")
    for m in args.m:
        for n in args.n:
            rep = run_trials(BoundParams(m, n), args.trials, args.seed,
                             oracle=args.oracle)
            reports.append(rep)
            write_report(rep, args.out / f"report_m{m}_n{n}.json")
            print(f"{m:>3} {n:>6} {rep.trials:>8} {rep.maybe_freq:>11.3e} "
                  f"{rep.bound_winner:>10.3e} {rep.pairfail_freq:>9.3f} "
                  f"{rep.wall_time:>7.1f}")
            if rep.bound_winner < 1 and rep.maybe_freq > rep.bound_winner:
                print("!! empirical frequency exceeds the proven bound; "
                      "this indicates a bug", file=sys.stderr)
                return 1
    write_csv(reports, args.out / "sweep.csv")
    print(f"\nwrote {len(reports)} reports and sweep.csv to {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
