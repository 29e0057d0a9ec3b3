"""Span tracing for the benchmark's traced run.

Layers are measured from outside: the tracer wraps the public functions of
each ``dodgson`` module listed in :data:`TRACED` and rebinds every name under
which the package looks them up.  ``dodgson.greedy.preference_counts``,
``dodgson.bounds.preference_counts`` and ``dodgson.election.preference_counts``
are three names for one function, and all three must be rebound or calls
through the other two go unseen.  ``Election`` is traced by wrapping its
constructor.

Each call records one span (layer, start, end, parent span, operation id) in
memory.  Aggregates are computed from the spans when the run ends: a layer's
busy time is the sum of its span durations, and its self time is busy time
minus the time covered by its child spans.
"""

from __future__ import annotations

import csv
import time

TRACED = {
    "sampling": ("substream_seed", "rank_array", "sample_election"),
    "election": ("Election", "preference_counts", "adjacency_counts",
                 "pairwise_stats", "condorcet_winner"),
    "greedy": ("score_from_stats", "stats_from_matrices", "greedy_score",
               "greedy_winner", "greedy_all_winners"),
    "bounds": ("run_trials", "pair_condition_holds"),
    "oracle": ("exact_dodgson_score", "dodgson_winners", "bfs_swap_score"),
    "ballots": ("parse_ballots", "format_ballots"),
    "codec": ("encode", "decode", "write_dtbz", "read_dtbz"),
    "cli": ("main",),
}
LAYERS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
# Root span of each benchmark operation.  Its self time is the benchmark's own
# code between library calls, so all self times together cover every timed
# second of the traced rounds.
OP = "perfbench.op"
NAMES = LAYERS + (OP,)


class Tracer:
    """Installs span-recording wrappers into a loaded ``dodgson`` package.

    ``lib`` is the namespace returned by ``run.load_library``.  Spans and
    counters accumulate across every install/uninstall cycle, so one tracer
    covers all traced rounds of a run.
    """

    def __init__(self, lib):
        self.lib = lib
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.op = -1  # id of the benchmark operation now running
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.scores = 0
        self.definite_scores = 0
        self.oracle_calls = 0
        self.oracle_keys: set = set()
        self.budget_exceeded = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        namespaces = [self.lib.package] + [getattr(self.lib, mod) for mod in TRACED]
        for idx, name in enumerate(LAYERS):
            mod, attr = name.split(".")
            target = getattr(getattr(self.lib, mod), attr)
            if isinstance(target, type):
                self._patch(target, "__init__", self._wrap(idx, target.__init__))
                continue
            wrapper = self._wrap(idx, target)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is target:
                        self._patch(ns, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key: str, value) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def operation(self, op: int, call):
        """``call`` wrapped in the root span of benchmark operation ``op``."""
        traced = self._wrap(len(LAYERS), call)

        def run():
            self.op = op
            return traced()

        return run

    def _wrap(self, idx: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after, budget_error = self._observers(NAMES[idx])

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                self.budget_exceeded += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (idx, start, end, parent, self.op)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observers(self, name: str):
        """(before-call hook, after-call hook, counted exception) for a layer."""
        budget_error = self.lib.oracle.BudgetExceededError
        if name == "greedy.score_from_stats":
            return None, self._count_score, ()
        if name == "oracle.exact_dodgson_score":
            return self._count_oracle_call, None, budget_error
        if name == "oracle.bfs_swap_score":
            return None, None, budget_error
        return None, None, ()

    def _count_score(self, result) -> None:
        self.scores += 1
        if result.confidence.value == "definitely":
            self.definite_scores += 1

    def _count_oracle_call(self, args, kwargs) -> None:
        triple = args[0] if args else kwargs["triple"]
        mode = args[1] if len(args) > 1 else kwargs.get("mode", "strict")
        e = triple.election
        self.oracle_calls += 1
        self.oracle_keys.add((self.op, e.m, e.votes, triple.candidate,
                              getattr(mode, "value", mode)))

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """Per layer: (calls, busy seconds, self seconds) over all spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = [0] * len(NAMES)
        busy = [0.0] * len(NAMES)
        own = [0.0] * len(NAMES)
        for i, (idx, start, end, _, _) in enumerate(self.spans):
            calls[idx] += 1
            busy[idx] += end - start
            own[idx] += end - start - covered[i]
        return {name: (calls[i], busy[i], own[i]) for i, name in enumerate(NAMES)}

    def write_spans(self, path) -> None:
        """Spans as CSV: layer, start, end, parent span row, operation id."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layer", "start", "end", "parent", "op"])
            for idx, start, end, parent, op in self.spans:
                writer.writerow([NAMES[idx], repr(start), repr(end), parent, op])
