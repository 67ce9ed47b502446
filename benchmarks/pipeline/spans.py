"""Spans recorded by the benchmark around its calls into each layer.

The program under test is not instrumented here: a span is taken from
outside, around one call into a public function, or rebuilt from the
timestamps a rank reported.  Spans stay in memory until the run ends and
are then written as one Chrome trace (one track per rank).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the recorder's span list
    rank: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span list.  A disabled recorder records nothing, which is
    what the untraced passes of a run use."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rank: int = 0):
        """Time the enclosed call as a child of the innermost open span."""
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, rank))  # placeholder
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, rank)

    def add(self, name: str, start: float, end: float, rank: int = 0,
            parent: int | None = None) -> int | None:
        """Record a span from timestamps taken elsewhere (another rank);
        ``parent`` defaults to the innermost open span.  Returns its index."""
        if not self.enabled:
            return None
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append(Span(name, start, end, parent, rank))
        return len(self.spans) - 1


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it its children cover.

    Children on the same rank as their parent are sequential, so their
    durations add; children reported by other ranks run side by side, so
    the parent is covered by the busiest rank, not by the sum.
    """
    covered: list[dict[int, float]] = [{} for _ in spans]
    for s in spans:
        if s.parent is not None:
            per_rank = covered[s.parent]
            per_rank[s.rank] = per_rank.get(s.rank, 0.0) + s.duration
    return [
        max(0.0, s.duration - max(covered[i].values(), default=0.0))
        for i, s in enumerate(spans)
    ]


def totals_by_name(spans: list[Span], values: list[float] | None = None
                   ) -> dict[str, float]:
    """Sum of durations (or of ``values``, e.g. self times) per span name,
    taking the busiest rank when a name was recorded on several."""
    per: dict[str, dict[int, float]] = {}
    for i, s in enumerate(spans):
        v = s.duration if values is None else values[i]
        ranks = per.setdefault(s.name, {})
        ranks[s.rank] = ranks.get(s.rank, 0.0) + v
    return {name: max(ranks.values()) for name, ranks in per.items()}


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not samples:
        raise ValueError("no samples")
    return float(np.percentile(samples, q))


#: the tail percentiles a report may quote, highest first
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def highest_percentile(n: int, beyond: int = 10) -> float | None:
    """The highest of p99.9/p99/p95/p90/p75 with at least ``beyond`` of
    the ``n`` samples above it, or ``None`` when only the median stands."""
    for q in _TAILS:
        if n * (100.0 - q) / 100.0 >= beyond - 1e-9:  # 99.9 is inexact
            return q
    return None


def summarize(samples: list[float]) -> dict:
    """Median, sample count, and the tail the sample count supports."""
    out = {"n": len(samples), "p50": percentile(samples, 50.0)}
    q = highest_percentile(len(samples))
    if q is not None:
        out["tail_q"] = q
        out["tail"] = percentile(samples, q)
    return out


def write_chrome_trace(path: str, spans: list[Span]) -> int:
    """Write ``spans`` as Chrome-trace complete events, one track (tid)
    per rank, microseconds from the earliest span.  Returns the count."""
    origin = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": s.name,
            "ph": "X",
            "ts": (s.start - origin) * 1e6,
            "dur": s.duration * 1e6,
            "pid": 0,
            "tid": s.rank,
            "args": {"parent": s.parent},
        }
        for s in spans
    ]
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    return len(events)


def layer_table(rows: list[tuple[str, float]], wall_s: float) -> list[str]:
    """Text table: seconds per pass and share of ``wall_s`` per row, plus
    the share of the wall the rows account for together."""
    lines = [f"{'layer span':<28}{'s/pass':>10}{'share':>9}"]
    for name, seconds in rows:
        lines.append(f"{name:<28}{seconds:>10.4f}{seconds / wall_s:>9.1%}")
    total = sum(seconds for _, seconds in rows)
    lines.append(f"{'accounted':<28}{total:>10.4f}{total / wall_s:>9.1%}")
    lines.append(f"{'wall_s':<28}{wall_s:>10.4f}{1:>9.1%}")
    return lines
