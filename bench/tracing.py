"""Spans recorded around calls into hardylab's layers.

A span is (name, start, end, parent, attrs); times come from
time.perf_counter and parent is the index of the enclosing span or None.
Spans stay in memory until the run ends and are then written as JSON.
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, parent: int | None, attrs: dict):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the body as a child of the innermost open span.

        The yielded span's attrs may be extended inside or after the body,
        e.g. with a verdict known only once the call has returned.
        """
        span = Span(name, self._open[-1] if self._open else None, attrs)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def named(self, name: str, **match) -> list[Span]:
        return [s for s in self.spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in match.items())]

    def median_seconds(self, name: str, **match) -> float:
        return statistics.median(s.seconds for s in self.named(name, **match))

    def median_ratio(self, name: str, key: str, per: str | None = None, **match) -> float:
        """Median over matching spans of attrs[key] divided by attrs[per],
        or by the span's duration when per is None."""
        return statistics.median(
            s.attrs[key] / (s.seconds if per is None else s.attrs[per])
            for s in self.named(name, **match))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([{"name": s.name, "start": s.start, "end": s.end,
                        "parent": s.parent, **s.attrs} for s in self.spans], fh)


class NullTracer:
    """Records nothing; the untraced run passes this in place of a Tracer."""

    _discard = nullcontext(Span("", None, {}))

    def span(self, name: str, **attrs):
        return self._discard
