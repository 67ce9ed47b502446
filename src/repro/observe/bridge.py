"""Glue between the runtime layers and the observe subsystem.

Nothing here is imported *by* the layers' data types — the bridge takes
:class:`~repro.diy.comm.CommStats`, :class:`~repro.core.timing.TessTimings`
and friends duck-typed, so ``repro.observe`` stays import-light and free
of cycles.  Three jobs:

* **absorption** — map the existing per-layer counters
  (CommStats, TessTimings, RecoveryStats) onto the
  process-wide metrics registry, keyed by rank, without touching their
  public fields;
* **rank finalization** — :func:`rank_finished` runs once per rank at
  parallel-region end (inline or forked) and records the rank's
  communication totals and memory high-water marks;
* **forked-rank transport** — :func:`process_worker` wraps a region
  worker so each forked rank ships its span buffer and metrics snapshot
  back with its result, and :func:`absorb_process_results` folds them
  into the parent and unwraps the user results.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from . import trace
from .metrics import peak_rss_bytes, registry

__all__ = [
    "absorb_comm_stats",
    "absorb_tess_timings",
    "absorb_recovery_stats",
    "rank_finished",
    "process_worker",
    "absorb_process_results",
]

_COMM_COUNTERS = (
    "msgs_sent",
    "msgs_recv",
    "bytes_sent",
    "bytes_recv",
    "recv_wait_s",
    "barrier_wait_s",
    "shm_msgs_sent",
    "shm_bytes_sent",
)

_TESS_PHASES = ("exchange", "compute", "output")


def absorb_comm_stats(stats: Any, rank: int) -> None:
    """Fold a :class:`~repro.diy.comm.CommStats` into the registry as
    ``comm.<field>{rank=r}`` counters plus per-collective call counts."""
    reg = registry()
    for name in _COMM_COUNTERS:
        value = getattr(stats, name)
        if value:
            reg.counter(f"comm.{name}", rank=rank).inc(value)
    for coll, count in stats.collective_calls.items():
        reg.counter(f"comm.collective.{coll}", rank=rank).inc(count)


def absorb_tess_timings(timings: Any, rank: int) -> None:
    """Fold a :class:`~repro.core.timing.TessTimings` into per-phase
    wall/cpu histograms (``tess.<phase>_s{rank=r}``) and byte counters."""
    reg = registry()
    for phase in _TESS_PHASES:
        reg.histogram(f"tess.{phase}_s", rank=rank).observe(getattr(timings, phase))
        reg.histogram(f"tess.{phase}_cpu_s", rank=rank).observe(
            getattr(timings, f"{phase}_cpu")
        )
    reg.counter("tess.runs", rank=rank).inc()
    if timings.bytes_sent:
        reg.counter("tess.bytes_sent", rank=rank).inc(timings.bytes_sent)
    if timings.comm_wait:
        reg.counter("tess.comm_wait_s", rank=rank).inc(timings.comm_wait)


def absorb_recovery_stats(recovery: Any, rank: int) -> None:
    """Fold a :class:`~repro.hacc.simulation.RecoveryStats` into
    checkpoint counters (``ckpt.*{rank=r}``)."""
    reg = registry()
    reg.counter("ckpt.written", rank=rank).inc(recovery.checkpoints_written)
    reg.counter("ckpt.bytes", rank=rank).inc(recovery.checkpoint_bytes)
    reg.counter("ckpt.seconds", rank=rank).inc(recovery.checkpoint_seconds)
    if recovery.resumed_step >= 0:
        reg.counter("ckpt.resumes", rank=rank).inc()
        reg.gauge("ckpt.resumed_step", rank=rank).set_max(recovery.resumed_step)


def rank_finished(comm: Any) -> None:
    """Per-rank region-end hook: absorb communication totals and memory
    high-water marks for ``comm.rank``."""
    rank = comm.rank
    absorb_comm_stats(comm.stats, rank)
    registry().gauge("mem.peak_rss_bytes", rank=rank).set_max(peak_rss_bytes())


_WRAP_KEY = "__repro_observe_wrapped__"


class process_worker:  # noqa: N801 - factory-style callable, keeps old name
    """Wrap a forked-rank region worker for observation transport.

    A *picklable* callable (not a closure): persistent pool workers receive
    their task over a pipe, so the wrapper must serialize along with the
    user function.  It also carries the parent's trace-enabled flag and
    capacity — a persistent pool worker was forked before
    ``observe.enable()`` ran in the parent, so fork inheritance cannot arm
    tracing there; the wrapper re-arms it on entry instead.

    On the way out it clears any inherited observe state so only events
    recorded inside the region travel back, then bundles the child's span
    buffer and metrics snapshot with the result.  Span tuples and metric
    snapshots are plain ``str``/``int``/``float``/``dict`` data, so they
    serialize over the pipe + shared-memory transport like any payload.
    """

    def __init__(self, func: Callable[..., Any]):
        self.func = func
        self.trace_enabled = trace.enabled()
        self.trace_capacity = trace.capacity() if self.trace_enabled else None
        functools.update_wrapper(self, func)

    def __call__(self, comm, *args: Any, **kwargs: Any):
        if self.trace_enabled:
            trace.enable(self.trace_capacity)
        trace.reset()
        registry().reset()
        result = self.func(comm, *args, **kwargs)
        rank_finished(comm)
        return {
            _WRAP_KEY: True,
            "result": result,
            "events": trace.raw_events(),
            "metrics": registry().as_dict(),
        }


def absorb_process_results(wrapped_results: list[Any]) -> list[Any]:
    """Fold forked ranks' observations into this process; return the
    unwrapped per-rank user results (rank order preserved)."""
    results: list[Any] = []
    for item in wrapped_results:
        if isinstance(item, dict) and item.get(_WRAP_KEY):
            trace.ingest(item["events"])
            registry().merge_dict(item["metrics"])
            results.append(item["result"])
        else:  # a rank that never entered the wrapper (defensive)
            results.append(item)
    return results
