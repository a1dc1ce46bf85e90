"""Timing wrappers on the package's module-level names.

The benchmark installs these wrappers from its own files; nothing under
``src/`` changes.  Callers inside the package look the wrapped names up at
call time (module globals and class attributes), so replacing the name on
the module that calls it is enough to see every call.

Two kinds of record are kept in memory and aggregated after the run:

- spans: name, start, end, parent span and the operation (step or solve)
  they ran under.  Spans nest; a span's self time is its duration minus
  the durations of its direct child spans.
- counters: calls and time of hot leaf functions (the matrix-free stencils,
  operator assembly).  They are not spans, so they never reduce the self
  time of the span they run under; they overlap the span partition.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "op", "info", "child_s")

    def __init__(self, name, t0, parent, op, info=None):
        self.name, self.t0, self.t1 = name, t0, t0
        self.parent, self.op, self.info = parent, op, info
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span and counter store for one benchmark process."""

    def __init__(self, clock=_clock):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters = defaultdict(lambda: [0, 0.0])   # (name, op) -> [calls, s]
        self.errors = defaultdict(int)                  # exception type -> count
        self._stack: list[Span] = []
        self._seen_errors: set[int] = set()
        self.op = None          # id of the operation now running

    # -- recording ---------------------------------------------------------

    def open(self, name: str, info=None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), parent, self.op, info)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, exc: BaseException = None):
        span.t1 = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            span.parent.child_s += span.duration
        if exc is not None and id(exc) not in self._seen_errors:
            self._seen_errors.add(id(exc))
            self.errors[type(exc).__name__] += 1

    def count(self, name: str, seconds: float):
        c = self.counters[(name, self.op)]
        c[0] += 1
        c[1] += seconds

    # -- wrappers ----------------------------------------------------------

    def span_wrapper(self, name: str, fn, info=None):
        """Wrap fn so each call records a span; info(args, result) -> dict."""
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, exc)
                raise
            tracer.close(span)
            if info is not None:
                span.info = info(args, result)
            return result

        return wrapper

    def counter_wrapper(self, name: str, fn):
        tracer, clock = self, self.clock

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.count(name, clock() - t0)

        return wrapper

    # -- queries -----------------------------------------------------------

    def select(self, name: str, ops=None) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and (ops is None or s.op in ops)]

    def total(self, name: str, ops=None, self_time: bool = False,
              where=None) -> float:
        return sum(s.self_s if self_time else s.duration
                   for s in self.select(name, ops)
                   if where is None or where(s))

    def counter_total(self, name: str, ops=None) -> tuple[int, float]:
        calls, secs = 0, 0.0
        for (n, op), (c, s) in self.counters.items():
            if n == name and (ops is None or op in ops):
                calls += c
                secs += s
        return calls, secs


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
