"""Compare two result sets metric by metric.

Usage, from the root of the repository::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A result set is the JSON-lines file that ``run.py --out`` or ``sweep.py
--out`` appends to, one record per run.  For every workload, trace setting
and metric found in both sets this prints the median and quartiles of each
side and a verdict against the metric's bound in ``workloads.METRICS`` (for
the gated metrics, the bound of BENCHMARK.json):

* ``regressed``: the new median is worse than the base median by more than
  the bound;
* ``improved``: the new median is better by more than the base's own spread
  (its interquartile range) and, where both sets ran the same seeds, the new
  side wins at least nine tenths of the seed pairs;
* ``unresolved``: the base spread is wider than the bound, so a change of
  the size of the bound cannot be told apart from noise, unless every new
  run beats every base run;
* ``unchanged``: none of these.

Per-layer metrics (``--trace 1`` records) have no bound; they are printed
with the relative change of their median and no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import METRICS  # noqa: E402


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) by ``statistics.quantiles(n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load(path) -> tuple[dict, dict]:
    """({(workload, trace): {metric: {seed: value}}}, {metric: unit}) of a result set."""
    runs = defaultdict(lambda: defaultdict(dict))
    units = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["workload"], record["trace"])
            for name, metric in record["metrics"].items():
                runs[key][name][record["seed"]] = metric["value"]
                units[name] = metric["unit"]
    return runs, units


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """The verdict (see the module docstring) for one metric's {seed: value} runs."""
    sign = 1 if better == "lower" else -1  # positive change = worse
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    _, n_med, _ = quartiles(list(new.values()))
    if b_med == 0:
        if n_med == b_med:
            return "unchanged"
        return "regressed" if sign * (n_med - b_med) > 0 else "improved"
    change = sign * (n_med - b_med) / abs(b_med)
    if change > bound:
        return "regressed"
    all_better = (max(new.values()) < min(base.values()) if better == "lower"
                  else min(new.values()) > max(base.values()))
    if (b_q3 - b_q1) / abs(b_med) > bound and not all_better:
        return "unresolved"
    seeds = base.keys() & new.keys()
    wins = sum(sign * (new[s] - base[s]) < 0 for s in seeds)
    if -change * abs(b_med) > b_q3 - b_q1 and (not seeds or wins >= 0.9 * len(seeds)):
        return "improved"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("base", help="result set of the parent commit")
    parser.add_argument("new", help="result set of the change")
    args = parser.parse_args(argv)
    base, units = load(args.base)
    new, new_units = load(args.new)
    units.update(new_units)
    limits = {name: (better, bound) for name, (_, better, bound) in METRICS.items()}
    header = (f"{'workload':<13} {'metric':<40} {'unit':<12} "
              f"{'base median [q1, q3]':<34} {'new median [q1, q3]':<34} verdict")
    print(header)
    for key in sorted(base.keys() & new.keys()):
        workload, trace = key
        for name in sorted(base[key].keys() & new[key].keys(), key=list(base[key]).index):
            b, n = base[key][name], new[key][name]
            cols = []
            for side in (b, n):
                q1, med, q3 = quartiles(list(side.values()))
                cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            if trace or name not in limits:
                b_med = quartiles(list(b.values()))[1]
                n_med = quartiles(list(n.values()))[1]
                note = f"{(n_med - b_med) / b_med:+.1%}" if b_med else "-"
            else:
                note = verdict(b, n, *limits[name])
            label = workload + (" (trace)" if trace else "")
            print(f"{label:<13} {name:<40} {units[name]:<12} {cols[0]:<34} {cols[1]:<34} {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
