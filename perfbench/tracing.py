"""In-memory spans around calls into the program, recorded from outside.

The benchmark never edits the program: it replaces module attributes
(the names the program looks up at call time) with wrappers that open a
span, call the original and close the span.  Spans are kept in memory
and reduced to per-layer self times when the study ends.  A layer's
self time is the summed duration of its spans minus the time their
direct child spans cover, so the self times of all layers add up to the
duration of the root span.

Spans of the layer ``bench`` mark the benchmark's own bookkeeping
(capturing data for the checks); their time is removed from the study
time in both traced and untraced runs.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

BENCH = "bench"


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Tracer:
    """Nested spans ``[layer, parent index, start, end]`` plus counters."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    @contextmanager
    def span(self, layer):
        index = len(self.spans)
        record = [layer, self._stack[-1] if self._stack else -1, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer):
                return fn(*args, **kwargs)

        return traced

    def self_times(self):
        """Seconds of self time per layer, ``bench`` included."""
        covered = [0.0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (layer, _, start, end), child in zip(self.spans, covered):
            out[layer] = out.get(layer, 0.0) + (end - start) - child
        return out

    def total(self, layer):
        """Summed duration of the spans of one layer."""
        return sum(end - start for name, _, start, end in self.spans if name == layer)
