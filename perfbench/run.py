"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload montecarlo --seed 0 --seconds 40 --trace 0

The library is imported from ``src/`` next to this directory and nowhere
else; without it the script exits with code 2 and prints no result.  One
process, one thread, closed loop.  The last line of stdout is a JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
gated end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The lines above it show every named metric of
the workload.  ``--out FILE`` appends the full record, with the machine, to a
result set that compare.py reads; ``--spans FILE`` writes the traced run's
spans as CSV.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import TRACED, Tracer  # noqa: E402
from workloads import METRICS, WORKLOADS, Ops  # noqa: E402

GATED = ("round_s", "setup_s", "peak_rss_mb")


class LibraryMissing(RuntimeError):
    """``src/dodgson`` is absent, or an import resolved to another copy."""


def load_library() -> SimpleNamespace:
    """Import ``dodgson`` afresh from ``src/``, dropping any earlier import.

    Re-importing lets set-up be timed more than once in one process.  Every
    name the benchmark and the tracer use is looked up on the returned
    modules, so nothing refers back to an older import.
    """
    if not (SRC / "dodgson" / "__init__.py").is_file():
        raise LibraryMissing(f"no package at {SRC / 'dodgson'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k == "dodgson" or k.startswith("dodgson.")]:
        del sys.modules[name]
    package = importlib.import_module("dodgson")
    if Path(package.__file__).resolve().parent != (SRC / "dodgson").resolve():
        raise LibraryMissing(f"imported dodgson from {package.__file__}, not {SRC}")
    modules = {mod: importlib.import_module(f"dodgson.{mod}") for mod in TRACED}
    return SimpleNamespace(package=package, **modules)


def machine() -> dict:
    """The machine and software a result set was measured on."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the repository holding this file, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def set_up(workload_cls, seed: int, ops: Ops, workdir: Path, repeats: int):
    """Import, build inputs and warm up ``repeats`` times; keep the last."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        workload = workload_cls(load_library(), seed, ops, workdir)
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


def before_deadline(deadline: float, last: float) -> bool:
    """Whether a round as long as the last one would end mostly in time.

    A round starts only if half of it fits before the deadline, so a run of
    long rounds ends near ``--seconds`` on average instead of a round late.
    """
    return time.perf_counter() + last / 2 < deadline


def measure(workload, seconds: float) -> list[dict]:
    """Untraced rounds for about ``seconds`` (at least one)."""
    rounds = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not rounds or before_deadline(deadline, last):
        start = time.perf_counter()
        rounds.append(workload.round(len(rounds)))
        last = time.perf_counter() - start
    return rounds


def measure_traced(workload, tracer: Tracer, seconds: float) -> tuple[float, float, int]:
    """Pairs of untraced and traced rounds on the same inputs.

    The order inside a pair alternates so that drift in machine speed falls
    on both sides.  Returns (untraced seconds, traced seconds, pairs).
    """
    spent = {False: 0.0, True: 0.0}
    deadline = time.perf_counter() + seconds
    last = 0.0
    r = 0
    while r == 0 or before_deadline(deadline, last):
        start = time.perf_counter()
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                workload.ops.tracer = tracer
            try:
                spent[traced] += workload.round(r)["round_s"]
            finally:
                tracer.uninstall()
                workload.ops.tracer = None
        last = time.perf_counter() - start
        r += 1
    return spent[False], spent[True], r


def layer_metrics(tracer: Tracer, untraced: float, traced: float, rounds: int) -> dict:
    """Per-layer metrics, each per traced round, plus the tracing overhead."""
    out = {}
    self_sum = 0.0
    for name, (calls, busy, own) in tracer.layer_totals().items():
        out[f"{name}.calls"] = (calls / rounds, "count/round")
        out[f"{name}.busy_s"] = (busy / rounds, "s/round")
        out[f"{name}.self_s"] = (own / rounds, "s/round")
        self_sum += own
    out["greedy.definite_ratio"] = (
        tracer.definite_scores / tracer.scores if tracer.scores else 0.0, "ratio")
    out["oracle.distinct_ratio"] = (
        len(tracer.oracle_keys) / tracer.oracle_calls if tracer.oracle_calls else 0.0,
        "ratio")
    out["oracle.budget_exceeded"] = (tracer.budget_exceeded / rounds, "count/round")
    out["trace.untraced_s"] = (untraced / rounds, "s/round")
    out["trace.traced_s"] = (traced / rounds, "s/round")
    out["trace.overhead_s"] = ((traced - untraced) / rounds, "s/round")
    out["trace.self_sum_s"] = (self_sum / rounds, "s/round")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this result set (JSON lines)")
    parser.add_argument("--spans", help="with --trace 1, write the spans to this CSV file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload_cls = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    try:
        load_library()
    except (LibraryMissing, ImportError) as exc:
        print(f"perfbench: cannot load the dodgson package: {exc}", file=sys.stderr)
        return 2
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = Ops()
        repeats = 1 if args.trace else workload_cls.setup_repeats
        workload, setup_s = set_up(workload_cls, args.seed, ops, workdir, repeats)
        if args.trace:
            tracer = Tracer(workload.lib)
            untraced, traced, pairs = measure_traced(workload, tracer, args.seconds)
            named = layer_metrics(tracer, untraced, traced, pairs)
            gated = named
            rounds = pairs
            if args.spans:
                tracer.write_spans(args.spans)
        else:
            samples = measure(workload, args.seconds)
            rounds = len(samples)
            named = {key: (statistics.median(s[key] for s in samples), METRICS[key][0])
                     for key in samples[0]}
            named["setup_s"] = (setup_s, "s")
            named["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            named["failed_frac"] = (ops.failed_frac, "ratio")
            gated = {key: named[key] for key in GATED}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    for failure in ops.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"attempted={ops.attempted} failed={ops.failed}")
    for key, (value, unit) in named.items():
        print(f"  {key:<40} {value:>14.6g} {unit}")

    metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in gated.items()}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "rounds": rounds, "machine": machine(),
                  "correct": ops.failed == 0, "attempted": ops.attempted,
                  "failed": ops.failed,
                  "metrics": {key: {"value": value, "unit": unit}
                              for key, (value, unit) in named.items()}}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
