"""In-memory span recorder for the benchmark's own calls into qpgap.

A span has a name, start and end (``time.perf_counter`` seconds), the
index of its parent span and the id of the operation it belongs to.
Spans stay in memory and are written out once, when the run ends.  A
disabled tracer records nothing: ``span`` then returns one shared no-op
context manager.
"""

from __future__ import annotations

import contextlib
import time

_NO_SPAN = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, op_id]
        self._stack: list[int] = []
        self.op_id = -1

    def span(self, name: str):
        if not self.enabled:
            return _NO_SPAN
        return self._record(name)

    @contextlib.contextmanager
    def _record(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self, name: str) -> list[float]:
        """Duration minus the time its direct children cover, per span."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [
            (end - start) - child_time[i]
            for i, (n, start, end, _, _) in enumerate(self.spans)
            if n == name
        ]

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
