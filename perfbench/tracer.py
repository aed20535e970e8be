"""Per-layer tracing from outside the package.

The tracer replaces public functions of treekeep's modules with wrappers
that record a span per call: the call count, the self time (span minus the
spans of traced calls made inside it, and minus the wrappers' own
bookkeeping), and per-layer work counts.  Nothing inside ``src/`` changes;
the wrappers are installed only for the traced pass and removed afterwards.

Each name is patched where its caller looks it up.  The package re-exports
functions called ``grow``, ``prune``, ``update`` and ``loss``, so
``import treekeep.grow`` yields the function; modules are therefore taken
from ``sys.modules``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

# Work counts the tracer reports next to its spans, with their units.
COUNTS = {
    "grow.best_split.rows": "rows",  # rows scanned
    "grow.nodes_grown": "count",
    "data.subset.rows": "rows",  # rows copied
    "data.load_csv.rows": "rows",
    "tree.predict.rows": "rows",
    "update.regrow_attempts": "count",  # grow calls inside an update span
}


def _count_best_split(tk, counts, args, result, inside_update):
    counts["grow.best_split.rows"] += args[0].n_rows


def _count_grow(tk, counts, args, result, inside_update):
    counts["grow.nodes_grown"] += tk.node_count(result)
    if inside_update:
        counts["update.regrow_attempts"] += 1


def _count_prune(tk, counts, args, result, inside_update):
    counts["prune.nodes_in"] += tk.node_count(args[0])
    counts["prune.nodes_kept"] += tk.node_count(result)


def _count_subset(tk, counts, args, result, inside_update):
    counts["data.subset.rows"] += result.n_rows


def _count_load_csv(tk, counts, args, result, inside_update):
    counts["data.load_csv.rows"] += result.n_rows


def _count_predict(tk, counts, args, result, inside_update):
    counts["tree.predict.rows"] += len(result)


# (module, attribute, span name, counter); "Dataset" stands for the class.
PATCHES = (
    ("treekeep.grow", "best_split", "grow.best_split", _count_best_split),
    ("treekeep.update", "grow", "grow.grow", _count_grow),
    ("treekeep.update", "prune", "prune.prune", _count_prune),
    ("Dataset", "partition", "data.partition", None),
    ("Dataset", "subset", "data.subset", _count_subset),
    ("treekeep.cli", "load_csv", "data.load_csv", _count_load_csv),
    ("treekeep.harness", "load_csv", "data.load_csv", _count_load_csv),
    ("treekeep.harness", "make_batch_plan", "data.make_batch_plan", None),
    ("treekeep", "update", "update.update", None),
    ("treekeep.harness", "update", "update.update", None),
    ("treekeep.cli", "update", "update.update", None),
    ("treekeep", "retrain", "update.retrain", None),
    ("treekeep.harness", "retrain", "update.retrain", None),
    ("treekeep.cli", "retrain", "update.retrain", None),
    ("treekeep.update", "loss", "loss.loss", None),
    ("treekeep.cli", "loss", "loss.loss", None),
    ("treekeep.loss", "predict", "tree.predict", _count_predict),
    ("treekeep.tree", "serialize", "tree.serialize", None),
    ("treekeep.cli", "load_tree", "tree.load_tree", None),
    ("treekeep.cli", "to_dot", "tree.to_dot", None),
    ("treekeep.harness", "structural_diff", "diff.structural_diff", None),
    ("treekeep.cli", "structural_diff", "diff.structural_diff", None),
    ("treekeep", "run_eval", "harness.run_eval", None),
    ("treekeep.cli", "main", "cli.main", None),
)

# Every span name, as "<layer>.<function>", in the order of PATCHES.
SPANS = tuple(dict.fromkeys(span for _, _, span, _ in PATCHES))


class Tracer:
    """Span statistics for one traced pass; see ``installed``."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.active = False  # spans are recorded only while set
        # One [span name, time not counted as self] entry per open span.
        self._stack: list = []

    def wrap(self, tk, name, fn, counter):
        tracer = self
        stack = self._stack
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            entered = perf_counter()
            inside_update = any(frame[0] == "update.update" for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += (end - start) - frame[1]
            if counter is not None:
                counter(tk, tracer.counts, args, result, inside_update)
            if stack:
                # The parent's self time excludes this whole call, wrapper
                # bookkeeping included.
                stack[-1][1] += perf_counter() - entered
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        tk = sys.modules["treekeep"]
        saved = []
        try:
            for module_name, attr, span, counter in PATCHES:
                if module_name == "Dataset":
                    owner = sys.modules["treekeep.data"].Dataset
                else:
                    owner = sys.modules[module_name]
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(tk, span, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
