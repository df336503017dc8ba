"""Spans around the benchmark's own calls into each transinfo module.

A span records its name, layer, workload, start, end, parent span and run
id.  Spans stay in memory until the run ends.  A layer's self time is its
span time minus the time its child spans cover; the benchmark only wraps
its direct calls, so work a module delegates to another module (for
example the OT and eigensolves inside ``best_w1i``) counts as the caller's
self time.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    parent: int | None
    run_id: str
    workload: str
    layer: str
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NoSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class _OpenSpan:
    def __init__(self, tracer: "Tracer", layer: str, name: str):
        self.tracer = tracer
        self.layer = layer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1].span_id if tr._stack else None
        span = Span(len(tr.spans), parent, tr.run_id, tr.workload,
                    self.layer, self.name, time.perf_counter())
        tr.spans.append(span)
        tr._stack.append(span)
        return span

    def __exit__(self, *exc):
        self.tracer._stack.pop().end = time.perf_counter()
        return False


class Tracer:
    """Collects spans when enabled; a disabled tracer costs one branch per call."""

    def __init__(self, run_id: str, workload: str, enabled: bool):
        self.run_id = run_id
        self.workload = workload
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def span(self, layer: str, name: str):
        return _OpenSpan(self, layer, name) if self.enabled else _NO_SPAN

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the duration of its direct children."""
    child = {s.span_id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return {s.span_id: s.duration - child[s.span_id] for s in spans}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 when nothing was measured."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])
