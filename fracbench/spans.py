"""Spans and counts recorded around the benchmark's calls into fraclift.

A span is (name, start, end, request id, parent index), kept in memory and
written out when the run ends. `NullTracer` is what untraced runs use: it
keeps nothing, so an untraced run records no spans.
"""

from __future__ import annotations

import time
from collections import defaultdict


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    counts = {}

    def span(self, name, rid=None):
        return _NULL_SPAN

    def count(self, name, n=1):
        pass

    def counted(self, name, fn):
        return fn


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.tracer.stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Records spans as lists [name, start, end, rid, parent]; a span
    opened inside another gets the outer one as parent and its request id."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)

    def span(self, name, rid=None):
        parent = self.stack[-1] if self.stack else None
        if rid is None and parent is not None:
            rid = self.spans[parent][3]
        return _Span(self, [name, 0.0, 0.0, rid, parent])

    def count(self, name, n=1):
        self.counts[name] += n

    def counted(self, name, fn):
        """`fn` wrapped so that each call adds one to the count `name`."""
        def wrapper(*args):
            self.counts[name] += 1
            return fn(*args)
        return wrapper


def self_times(spans):
    """{name: [self time in seconds per span]}: a span's duration minus the
    time its child spans cover."""
    child_time = defaultdict(float)
    for name, start, end, rid, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(list)
    for i, (name, start, end, rid, parent) in enumerate(spans):
        out[name].append(end - start - child_time[i])
    return out
