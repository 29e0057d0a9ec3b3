"""Run several workloads over several seeds and summarise each metric.

Usage, from the root of the repository::

    python3 perfbench/sweep.py --seeds 0 1 2 3 4 5 6 7 8 9 --out perfbench-results/base.jsonl

Each run is a separate ``run.py`` process, started only after the previous one
ended, so peak memory and set-up are measured per run.  Every record is
appended to ``--out``, the result set that compare.py reads.  At the end the
script prints, per workload, every named metric with its unit, median,
quartiles and spread (interquartile range over median); a workload whose
runs had any failed operation is reported, and the exit code is then 1.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from compare import load, quartiles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run benchmark workloads over seeds.")
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="result set to append to")
    args = parser.parse_args(argv)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)

    failed = set()
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", args.out]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed={seed}: exit {proc.returncode} {last[0][:120]}",
                  file=sys.stderr)
            if proc.returncode != 0 or '"correct": true' not in last[0]:
                failed.add(workload)
                sys.stderr.write(proc.stderr)

    runs, units = load(args.out)
    for workload in args.workloads:
        metrics = runs.get((workload, args.trace), {})
        print(f"{workload}{' (trace)' if args.trace else ''}: "
              f"{'FAILED operations' if workload in failed else 'all checks passed'}")
        for name, by_seed in metrics.items():
            values = [by_seed[s] for s in args.seeds if s in by_seed]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            print(f"  {name:<40} {med:>14.6g} {units[name]:<12} "
                  f"[{q1:.6g}, {q3:.6g}] spread {spread:.1%} (n={len(values)})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
