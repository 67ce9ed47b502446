"""Process-wide metrics registry (counters, gauges, histograms).

The registry is the numeric half of ``repro.observe``: where the tracer
answers "when did each phase run", the registry answers "how much" —
messages and bytes moved, memory high-water marks, checkpoint and fault
counters, per-phase time distributions.  It absorbs (and supersedes as
the cross-layer aggregation point) the ad-hoc counters that already live
in :class:`repro.diy.comm.CommStats` and
:class:`repro.core.timing.TessTimings` without changing their public
fields — see :mod:`repro.observe.bridge` for the mapping.

Metrics are keyed by name plus sorted labels (``comm.bytes_sent{rank=2}``)
and carry a *merge rule* so per-process registries from forked ranks can
be folded into the parent at region end:

* **counters** add (totals over ranks and regions),
* **gauges** take the maximum (high-water semantics — peak RSS, peak
  per-rank array bytes),
* **histograms** combine count/total/min/max,
* **reservoirs** concatenate their bounded sample windows (quantile
  summaries — request latencies — where count/total/min/max cannot
  answer "what is p99").
"""

from __future__ import annotations

import sys
import threading
from collections import deque
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "QuantileReservoir",
    "MetricsRegistry",
    "registry",
    "peak_rss_bytes",
]


class Counter:
    """Monotonic accumulator (int or float)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (negative increments are rejected)."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """Last-value metric with a high-water helper (merge rule: max)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        """Keep the maximum of the current and new value (high-water)."""
        if value > self.value:
            self.value = value


class Histogram:
    """Streaming distribution summary: count, total, min, max."""

    __slots__ = ("count", "total", "min", "max")
    kind = "histogram"

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }


class QuantileReservoir:
    """Bounded sliding window of samples with percentile queries.

    Keeps the most recent ``capacity`` observations in a deque (appends are
    GIL-atomic, so concurrent server threads can observe without a lock)
    plus a lifetime count.  Percentiles reflect the current window — for a
    latency metric that is "the recent distribution", which is what a
    serving dashboard and the CI latency gate both want.
    """

    __slots__ = ("samples", "count")
    kind = "reservoir"
    capacity = 8192

    def __init__(self) -> None:
        self.samples: deque[float] = deque(maxlen=self.capacity)
        self.count = 0

    def observe(self, value: float) -> None:
        self.samples.append(value)
        self.count += 1

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of the current window; 0 when
        empty."""
        if not self.samples:
            return 0.0
        data = sorted(self.samples)
        idx = (q / 100.0) * (len(data) - 1)
        lo = int(idx)
        hi = min(lo + 1, len(data) - 1)
        frac = idx - lo
        return data[lo] * (1.0 - frac) + data[hi] * frac

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": max(self.samples) if self.samples else 0.0,
            "samples": list(self.samples),
        }


def _key(name: str, labels: dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create store of named, labeled metrics.

    Thread-safe for creation; individual metric updates are simple
    attribute writes (threads update disjoint labeled metrics, and
    Python's attribute assignment is atomic enough for observability
    counters).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, labels: dict[str, Any]):
        key = _key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(key, cls())
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {key!r} already registered as {metric.kind}, "
                f"requested {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter ``name`` with ``labels``, created on first use."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge ``name`` with ``labels``, created on first use."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram ``name`` with ``labels``, created on first use."""
        return self._get(Histogram, name, labels)

    def reservoir(self, name: str, **labels: Any) -> QuantileReservoir:
        """The quantile reservoir ``name`` with ``labels``, created on
        first use."""
        return self._get(QuantileReservoir, name, labels)

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Drop every metric (used by forked ranks to start clean)."""
        with self._lock:
            self._metrics.clear()

    def as_dict(self) -> dict[str, dict[str, Any]]:
        """Serializable snapshot: ``{"counters": .., "gauges": ..,
        "histograms": ..}`` keyed by ``name{label=value,...}``."""
        out: dict[str, dict[str, Any]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "reservoirs": {},
        }
        with self._lock:
            items = list(self._metrics.items())
        for key, metric in items:
            if isinstance(metric, Counter):
                out["counters"][key] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][key] = metric.value
            elif isinstance(metric, QuantileReservoir):
                out["reservoirs"][key] = metric.as_dict()
            else:
                out["histograms"][key] = metric.as_dict()
        return out

    def merge_dict(self, snapshot: dict[str, dict[str, Any]]) -> None:
        """Fold an :meth:`as_dict` snapshot from another process into this
        registry: counters add, gauges take the max, histograms combine."""
        for key, value in snapshot.get("counters", {}).items():
            metric = self._metrics.get(key)
            if metric is None:
                with self._lock:
                    metric = self._metrics.setdefault(key, Counter())
            metric.value += value
        for key, value in snapshot.get("gauges", {}).items():
            metric = self._metrics.get(key)
            if metric is None:
                with self._lock:
                    metric = self._metrics.setdefault(key, Gauge())
            metric.set_max(value)
        for key, h in snapshot.get("histograms", {}).items():
            metric = self._metrics.get(key)
            if metric is None:
                with self._lock:
                    metric = self._metrics.setdefault(key, Histogram())
            if h["count"]:
                metric.count += h["count"]
                metric.total += h["total"]
                if h["min"] < metric.min:
                    metric.min = h["min"]
                if h["max"] > metric.max:
                    metric.max = h["max"]
        for key, r in snapshot.get("reservoirs", {}).items():
            metric = self._metrics.get(key)
            if metric is None:
                with self._lock:
                    metric = self._metrics.setdefault(key, QuantileReservoir())
            metric.samples.extend(r.get("samples", []))
            metric.count += r["count"]


_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry (forked ranks inherit a private copy)."""
    return _registry


def peak_rss_bytes() -> int:
    """This process's resident-set high-water mark in bytes.

    Uses ``getrusage``; Linux reports kilobytes, macOS bytes.  Returns 0
    on platforms without the ``resource`` module.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return int(rss)
    return int(rss) * 1024
