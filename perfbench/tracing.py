"""Spans and exact counters recorded from the benchmark's own files.

A span is ``[name, n, start, end, parent, item]``: the layer function that
was called, the taxon count it ran at (or None), perf_counter stamps, the
index of the span that caused it and the id of the benchmark item.  Spans
are kept in memory and written out once, when the run ends.

Counters are exact counts taken from the return values of layer calls, so a
given seed yields the same counts on every pass and every run.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

from pace import Pace

# Layer entry points timed in the traced run: "<name>.s" and "<name>.calls".
TIMED = (
    "covers.minimalize",
    "covers.is_minimal",
    "covers.is_hall_type",
    "covers.support_map",
    "covers.is_triplet_cover",
    "covers.canonical_cover",
    "shelling.is_shellable",
    "shelling.shellable_via_patchwork",
    "covergraph.all",
    "reconstruct.reconstruct",
    "tree.distance_matrix",
    "tree.isomorphic",
    "newick.parse",
    "newick.write",
    "jsonio.load",
    "jsonio.save",
    "lab.predicate",
    "lab.search_fixture",
    "report.classify",
    "cli.main",
)

# Cost against n: "<name>.n<size>.s" for the sizes the full workloads use.
SIZED = {
    "covers.is_minimal": (12, 16, 20, 24),
    "covers.is_hall_type": (12, 16, 20, 24),
    "shelling.is_shellable": (12, 16, 20, 24),
    "covers.minimalize": (64, 96),
    "reconstruct.reconstruct": (64, 96),
    "tree.distance_matrix": (64, 96),
}

# Wrapper self time: the wrapper's duration minus that of its child spans.
# The benchmark replays the layers a wrapper calls, in the same order, and
# files those spans under the wrapper.  For lab.search_fixture the children
# are the predicate calls, so its self time is instance generation.
SELF_TIMES = {
    "report.classify.self.s": "report.classify",
    "cli.main.self.s": "cli.main",
    "lab.generate.s": "lab.search_fixture",
}

COUNTERS = (
    "covers.support_triples",
    "covers.cords_tried",
    "covers.cords_removed",
    "covers.hall_cap_hits",
    "shelling.missing_at_start",
    "shelling.closure_steps",
    "shelling.ample_cap_hits",
    "shelling.ample_indeterminate",
    "reconstruct.cherries",
    "lab.instances_tried",
    "lab.targets_found",
)

# ratio name -> (numerator counter, denominator counter)
RATIOS = {
    "covers.minimalize.removed_ratio": ("covers.cords_removed", "covers.cords_tried"),
    "shelling.shellable_ratio": ("shelling.shellable", "shelling.is_shellable.calls"),
}

OVERHEAD = "trace.overhead_ratio"

# Counters where a larger value means more useful work per attempt.
_HIGHER_IS_BETTER = {
    "covers.cords_removed",
    "covers.minimalize.removed_ratio",
    "shelling.shellable_ratio",
    "lab.targets_found",
}


def per_layer_catalogue() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run prints: name -> (unit, better)."""
    out: dict[str, tuple[str, str]] = {}
    for name in TIMED:
        out[f"{name}.s"] = ("s", "lower")
        out[f"{name}.calls"] = ("count", "lower")
    for name, sizes in SIZED.items():
        for n in sizes:
            out[f"{name}.n{n}.s"] = ("s", "lower")
    for name in SELF_TIMES:
        out[name] = ("s", "lower")
    for name in COUNTERS:
        out[name] = ("count", "higher" if name in _HIGHER_IS_BETTER else "lower")
    for name in RATIOS:
        out[name] = ("ratio", "higher" if name in _HIGHER_IS_BETTER else "lower")
    out[OVERHEAD] = ("ratio", "lower")
    return out


class NullTracer(Pace):
    """Untraced runs: calls go straight through, nothing is recorded."""

    enabled = False
    item = None

    def span(self, name, n=None):
        return nullcontext()

    def under(self, span_id):
        return nullcontext()

    def call(self, name, fn, *args, n=None, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, k=1):
        pass


class Tracer(Pace):
    """Records one span per layer call made through :meth:`call` or
    :meth:`span`, and exact counters."""

    enabled = True

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, n=None):
        parent = self._stack[-1] if self._stack else None
        record = [name, n, time.perf_counter(), None, parent, self.item]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield len(self.spans) - 1
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    @contextmanager
    def under(self, span_id):
        """File the spans opened inside this block under ``span_id``: used for
        the replay of a wrapper's layers, which runs after the wrapper."""
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()

    def call(self, name, fn, *args, n=None, **kwargs):
        with self.span(name, n):
            return fn(*args, **kwargs)

    def count(self, name, k=1):
        self.counts[name] += k

    def exact_counts(self) -> dict[str, int]:
        """Counters plus call counts: everything that must repeat exactly."""
        out = {name: self.counts.get(name, 0) for name in COUNTERS}
        out["shelling.shellable"] = self.counts.get("shelling.shellable", 0)
        calls = Counter(record[0] for record in self.spans)
        for name in TIMED:
            out[f"{name}.calls"] = calls.get(name, 0)
        return out

    def layer_seconds(self) -> dict[str, float]:
        """Busy seconds per layer metric, summed over this tracer's spans."""
        out = {f"{name}.s": 0.0 for name in TIMED}
        for name, sizes in SIZED.items():
            for n in sizes:
                out[f"{name}.n{n}.s"] = 0.0
        child_time = [0.0] * len(self.spans)
        for name, n, start, end, parent, _ in self.spans:
            duration = end - start
            if parent is not None:
                child_time[parent] += duration
            if name in TIMED:
                out[f"{name}.s"] += duration
            sized = f"{name}.n{n}.s"
            if sized in out:
                out[sized] += duration
        for metric, wrapper in SELF_TIMES.items():
            out[metric] = sum(
                (record[3] - record[2]) - child_time[i]
                for i, record in enumerate(self.spans)
                if record[0] == wrapper
            )
        return out


def ratio_metrics(counts: dict[str, int]) -> dict[str, float]:
    out = {}
    for name, (num, den) in RATIOS.items():
        out[name] = counts[num] / counts[den] if counts[den] else 0.0
    return out


def write_spans(path, tracers) -> None:
    """One JSON object per span; ``id`` and ``parent`` index within a pass."""
    with open(path, "w", encoding="utf-8") as fh:
        for pass_index, tracer in enumerate(tracers):
            for i, (name, n, start, end, parent, item) in enumerate(tracer.spans):
                fh.write(
                    json.dumps(
                        {
                            "pass": pass_index,
                            "id": i,
                            "name": name,
                            "n": n,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "item": item,
                        }
                    )
                    + "\n"
                )
