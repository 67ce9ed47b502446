"""repro.observe — unified tracing and metrics for the whole stack.

The paper's quantitative story is phase timings (Table II, Figure 10:
exchange / compute / output per rank); production codes like HACC carry
built-in per-phase instrumentation for the same reason.  This subsystem
stitches every layer of a run — initial conditions, simulation steps, in
situ tessellation phases, analysis tools, communication waits, shared-
memory transport, checkpoints — into one inspectable, exportable
timeline plus a process-wide metrics registry.

Three parts:

* :mod:`repro.observe.trace` — per-rank span tracer with wall and
  thread-CPU clocks, recording into bounded ring buffers.  Disabled
  tracing costs one flag check per instrumentation point
  (``benchmarks/bench_trace_overhead.py`` proves <5% on a full run).
* :mod:`repro.observe.metrics` — counters / gauges / histograms that
  absorb the per-layer counters (CommStats, TessTimings, RecoveryStats)
  and add memory high-water marks and fault counters.
* :mod:`repro.observe.export` — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``, one track per rank) and flat JSON summaries for
  CI perf gating.

Cross-rank merge is automatic: each forked rank ships its buffers back
with its result (:mod:`repro.observe.bridge`), and an inline 1-rank
region records straight into this module's state, so after any
``run_parallel`` region the parent holds the globally-ordered trace.

Quickstart::

    from repro import observe

    observe.enable()
    ...  # run a simulation / tessellation (any rank count)
    observe.write_chrome_trace("trace.json")   # load in ui.perfetto.dev
    observe.write_metrics("metrics.json")

Or from the CLI: ``repro-sim deck.json --trace trace.json``.
"""

from __future__ import annotations

from .bridge import (
    absorb_comm_stats,
    absorb_process_results,
    absorb_recovery_stats,
    absorb_tess_timings,
    process_worker,
    rank_finished,
)
from .export import (
    chrome_trace,
    metrics_report,
    phase_criticals,
    span_summary,
    write_chrome_trace,
    write_metrics,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QuantileReservoir,
    peak_rss_bytes,
    registry,
)
from .trace import (
    disable,
    dropped_events,
    enable,
    enabled,
    num_events,
    raw_events,
    record,
    reset,
    span,
)

__all__ = [
    "enable",
    "disable",
    "enabled",
    "reset",
    "reset_all",
    "span",
    "record",
    "raw_events",
    "num_events",
    "dropped_events",
    "chrome_trace",
    "write_chrome_trace",
    "span_summary",
    "phase_criticals",
    "metrics_report",
    "write_metrics",
    "Counter",
    "Gauge",
    "Histogram",
    "QuantileReservoir",
    "MetricsRegistry",
    "registry",
    "peak_rss_bytes",
    "absorb_comm_stats",
    "absorb_tess_timings",
    "absorb_recovery_stats",
    "rank_finished",
    "process_worker",
    "absorb_process_results",
]


def reset_all() -> None:
    """Drop all recorded spans *and* every metric (test isolation)."""
    reset()
    registry().reset()
