"""In-memory spans around the calls the benchmark makes into solitonlab.

A span records (name, tag, start, end, parent span, op id).  Spans are
taken only around calls made from the benchmark's own files; nothing
inside the package is patched.  Counters come from returned objects and,
like spans, are kept only while tracing is on.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list = []

    def span(self, name: str, tag: str | None = None):
        """Context manager timing one call; a shared no-op when disabled."""
        return self._span(name, tag) if self.enabled else _NULL

    @contextmanager
    def _span(self, name, tag):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, tag, t0, t1, parent, self.op)

    def count(self, name: str, value=1):
        if self.enabled:
            self.counts[name] += value

    def reduce(self) -> dict:
        """Per-name busy/self seconds, call counts and durations per (name, tag)."""
        busy = defaultdict(float)
        child = defaultdict(float)
        calls = Counter()
        by_tag = defaultdict(list)
        for name, tag, t0, t1, parent, _op in self.spans:
            busy[name] += t1 - t0
            calls[name] += 1
            by_tag[name, tag].append(t1 - t0)
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        for idx, (name, _tag, t0, t1, _parent, _op) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child.get(idx, 0.0)
        return {"busy": busy, "self": self_s, "calls": calls, "by_tag": by_tag}


def p50(values) -> float:
    """Median, or 0.0 for a group the workload never ran."""
    return statistics.median(values) if values else 0.0
