"""In-memory spans around calls into the package's layers.

A span is (name, start ns, end ns, parent span index, operation id,
separate).  The layer is the name's first dotted part: ``algebra``,
``model``, ``engine``, ``dsl``, ``cli`` or ``bench``.  ``separate`` marks
an inner function timed as its own call on the same input, because the
outer call hides it.  A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

LAYERS = ("algebra", "model", "engine", "dsl", "cli", "bench")


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name: str, separate: bool = False):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op, separate)

    def self_shares(self) -> dict:
        """Each layer's self time as a share of the time in root spans."""
        child_time = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        own = dict.fromkeys(LAYERS, 0)
        roots = 0
        for (name, start, end, parent, _, _), children in zip(self.spans, child_time):
            own[name.split(".", 1)[0]] += end - start - children
            if parent is None:
                roots += end - start
        return {layer: own[layer] / roots for layer in LAYERS}

    def separate_seconds(self) -> float:
        """Time in spans that repeat an inner call as its own call."""
        return sum(end - start for _, start, end, _, _, separate in self.spans
                   if separate) / 1e9

    def durations(self, name: str) -> list:
        """Durations in seconds of every span with this name."""
        return [(end - start) / 1e9 for n, start, end, _, _, _ in self.spans if n == name]

    def to_json(self) -> list:
        return [{"name": name, "start_ns": start, "end_ns": end, "parent": parent,
                 "op": op, "separate": separate}
                for name, start, end, parent, op, separate in self.spans]
