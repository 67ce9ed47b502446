"""Exporters for recorded spans and metrics.

Two consumers, two formats:

* **Chrome trace-event JSON** (:func:`chrome_trace`,
  :func:`write_chrome_trace`) — loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.  Each rank is one
  track (``pid`` = rank, with a ``process_name`` metadata record), every
  span is a complete ``"X"`` event with microsecond ``ts``/``dur``
  normalized to the earliest recorded span, and thread-CPU seconds plus
  user attributes ride in ``args``.
* **Flat summaries** (:func:`span_summary`, :func:`phase_criticals`,
  :func:`write_metrics`) — machine-readable dicts for
  benchmark tables and the CI perf-regression gate: per-span-name totals,
  per-phase max-over-ranks seconds (the paper's critical-path convention),
  and the full metrics-registry snapshot.
"""

from __future__ import annotations

import json
from typing import Any

from . import trace
from .metrics import registry

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "span_summary",
    "phase_criticals",
    "metrics_report",
    "write_metrics",
]


def chrome_trace(events: list[tuple] | None = None) -> dict[str, Any]:
    """The Chrome trace-event document for ``events`` (default: all
    recorded), globally ordered by start time with one track per rank."""
    if events is None:
        events = trace.raw_events()
    events = sorted(events, key=lambda ev: ev[trace.T0])
    base = events[0][trace.T0] if events else 0.0
    ranks = sorted({ev[trace.RANK] for ev in events})

    out: list[dict[str, Any]] = []
    for rank in ranks:
        out.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": rank,
                "tid": 0,
                "args": {"name": f"rank {rank}"},
            }
        )
    for name, rank, t0, t1, cpu, cat, attrs in events:
        args: dict[str, Any] = {"cpu_ms": round(cpu * 1e3, 6)}
        if attrs:
            args.update(attrs)
        out.append(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": round((t0 - base) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3),
                "pid": rank,
                "tid": 0,
                "args": args,
            }
        )
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, events: list[tuple] | None = None) -> int:
    """Write the Chrome trace JSON to ``path``; returns the span count."""
    doc = chrome_trace(events)
    with open(path, "w") as f:
        json.dump(doc, f)
    return sum(1 for ev in doc["traceEvents"] if ev["ph"] == "X")


def span_summary(events: list[tuple] | None = None) -> dict[str, Any]:
    """Aggregate spans by name: count, wall/cpu totals, per-rank wall."""
    if events is None:
        events = trace.raw_events()
    out: dict[str, Any] = {}
    for name, rank, t0, t1, cpu, _cat, _attrs in events:
        row = out.get(name)
        if row is None:
            row = out[name] = {
                "count": 0,
                "wall_s": 0.0,
                "cpu_s": 0.0,
                "max_s": 0.0,
                "by_rank_s": {},
            }
        wall = t1 - t0
        row["count"] += 1
        row["wall_s"] += wall
        row["cpu_s"] += cpu
        if wall > row["max_s"]:
            row["max_s"] = wall
        by_rank = row["by_rank_s"]
        by_rank[rank] = by_rank.get(rank, 0.0) + wall
    return out


def phase_criticals(events: list[tuple] | None = None) -> dict[str, float]:
    """Per-span-name **max-over-ranks** total wall seconds.

    This is the paper's Table II convention: the phase time that matters
    at scale is the busiest rank's, not the average.
    """
    summary = span_summary(events)
    return {
        name: max(row["by_rank_s"].values())
        for name, row in summary.items()
        if row["by_rank_s"]
    }


def metrics_report() -> dict[str, Any]:
    """The combined machine-readable report: span aggregates, per-phase
    critical-path seconds, the metrics registry, and buffer health."""
    return {
        "spans": span_summary(),
        "phase_max_s": phase_criticals(),
        "metrics": registry().as_dict(),
        "trace": {
            "events": trace.num_events(),
            "dropped": trace.dropped_events(),
        },
    }


def write_metrics(path: str) -> dict[str, Any]:
    """Write :func:`metrics_report` as JSON to ``path``; returns it."""
    report = metrics_report()
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    return report
