"""Spans and counters at the package's layer boundaries, for the traced run.

``Tracer.install`` replaces the public functions that ``stvsim.sim`` and
``stvsim.error_models`` call with wrappers under the same module-level
names, so each call records a span: a name, start and end times and the
index of the span that was open when it began (its parent).  Spans stay in
memory until ``Tracer.write``.  ``Tracer.remove`` puts the originals back.

A layer's self time is the total duration of its spans minus the time
their child spans cover.  The time ``run_sweep`` spends outside every
wrapped call (the per-sheet loop, ``np.unique``, digit-to-value conversion
and aggregation) is the self time of its own span, ``sim.run_sweep``.  The
tracer's own work on the inputs of ``count_stv`` (the repeat and ranking
counts) runs in a ``trace.bookkeeping`` span, so it is not taken for the
package's.

A function the package no longer has under a name below is skipped, so
its layer reads 0 calls and 0 s.
"""
from __future__ import annotations

import importlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

# (module, attribute, span name): the names through which the sweep calls
# into each layer.
WRAPPED = (
    ("stvsim.sim", "classify_formality", "ballots.classify"),
    ("stvsim.sim", "seed_vector", "rng.seed"),
    ("stvsim.error_models", "draw_matrix", "rng.draw"),
    ("stvsim.sim", "corrupt_digits_batch", "error_models.corrupt"),
    ("stvsim.sim", "truncation_lengths_batch", "error_models.truncate"),
    ("stvsim.sim", "interpret_marks", "ballots.interpret"),
    ("stvsim.sim", "count_stv", "count.count"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._count_inputs: set[frozenset] = set()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``; return its result."""
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    def _wrap(self, name: str, fn):
        if name == "count.count":
            def wrapper(ballots, *args, **kwargs):
                ballots = self.span("trace.bookkeeping", self._note_count, ballots)
                result = self.span(name, fn, ballots, *args, **kwargs)
                self.counts["count.rounds"] += len(result[1].rounds)
                self.counts["count.calls"] += 1
                return result
        elif name == "rng.draw":
            def wrapper(*args, **kwargs):
                result = self.span(name, fn, *args, **kwargs)
                self.counts["rng.draws"] += result.size
                return result
        else:
            def wrapper(*args, **kwargs):
                self.counts[name + "_calls"] += 1
                return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _note_count(self, ballots) -> list:
        """Count the distinct rankings of a ``count_stv`` call and whether its
        ballot multiset repeats an earlier call's; return the ballots as a list."""
        ballots = list(ballots)
        merged = Counter()
        for prefs, mult in ballots:
            merged[prefs] += mult
        key = frozenset(merged.items())
        self.counts["count.repeat_calls"] += key in self._count_inputs
        self._count_inputs.add(key)
        self.counts["count.rankings"] += len(merged)
        return ballots

    def install(self) -> None:
        """Wrap every function in ``WRAPPED`` that its module still has."""
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def start_round(self) -> int:
        """Zero the counters and return the index of the round's first span."""
        self.counts.clear()
        return len(self.spans)

    def sweep(self, run_sweep, *args):
        """Call ``run_sweep`` inside a ``sim.run_sweep`` span.

        ``count.repeat_calls`` counts the calls of ``count_stv`` whose ballot
        multiset equals that of an earlier call in the same sweep.
        """
        self._count_inputs.clear()
        return self.span("sim.run_sweep", run_sweep, *args)

    def self_times(self, first: int = 0) -> Counter:
        """Self time per span name over the spans recorded from index ``first``."""
        own = Counter()
        for name, start, end, parent in self.spans[first:]:
            own[name] += end - start
            if parent >= first:
                own[self.spans[parent][0]] -= end - start
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": ["name", "start", "end", "parent"], "spans": self.spans}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
