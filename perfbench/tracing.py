"""Spans around the benchmark's calls into the program, kept in memory.

A span is ``[name, start, end, parent, op, tag]``: ``parent`` indexes the
enclosing span (-1 at the top), ``op`` identifies the op it belongs to,
and ``tag`` is a label set after the call returns (the Calabi verdict,
the bytes parsed).  ``NullTracer`` has the same interface and records
nothing, so the untraced and traced runs execute the same op code.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTracer:
    def call(self, name, fn, *args):
        return fn(*args)

    def span(self, name):
        return nullcontext()

    def tag(self, value):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.last = -1
        self.op = -1

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op, None])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()
        self.last = idx

    def call(self, name, fn, *args):
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def tag(self, value):
        """Label the span that closed last."""
        self.spans[self.last][5] = value

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover.

        Spans are opened and closed on one thread, so the children of a
        span are disjoint intervals inside it and their durations add up.
        """
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out
