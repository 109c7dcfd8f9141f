"""Spans around the benchmark's calls into tmkit's layers.

A span records a name, a start, an end, its parent span and the op it
belongs to.  Spans stay in memory and are written out once, at the end
of a traced run.  With tracing off, `call` and `span` only run the work.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL = nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.op = -1  # id of the op the next spans belong to
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.totals: dict[str, float] = {}  # counts recorded while enabled
        self._stack: list[int] = []

    def add(self, key: str, value: float) -> None:
        if self.enabled:
            self.totals[key] = self.totals.get(key, 0) + value

    def call(self, name: str, fn, *args, **kwargs):
        """Run `fn(*args, **kwargs)` inside a span called `name`."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self._open(name):
            return fn(*args, **kwargs)

    def span(self, name: str):
        return self._open(name) if self.enabled else _NULL

    @contextmanager
    def _open(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def summary(self, ops: set[int]):
        """Per span name, over the spans of the given ops: the number of
        calls, the total time, and the total self time (each span's
        duration minus the durations of its direct children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op in ops:
                calls[name] = calls.get(name, 0) + 1
                total[name] = total.get(name, 0.0) + (end - start)
                own[name] = own.get(name, 0.0) + (end - start) - child_time[i]
        return calls, total, own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
