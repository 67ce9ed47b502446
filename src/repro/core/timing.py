"""Phase timing for the tessellation (feeds Table II and Figure 10).

The paper itemizes tessellation time into particle exchange, local Voronoi
computation, and output; :class:`TessTimings` carries the same breakdown.
Across ranks the convention (as in the paper's tables) is to report the
maximum over ranks per phase — the critical-path time.

Two clocks are recorded per phase:

* **wall** (``time.perf_counter``) — elapsed real time.  Ranks are OS
  processes (:func:`repro.diy.comm.run_parallel`), so wall time is the
  honest scaling metric (see ``benchmarks/bench_backend_scaling.py``).
* **cpu** (``time.thread_time``) — CPU time consumed by this rank's thread
  only, plus what helper threads spent on its behalf (a block's slab
  threads, :func:`credit_cpu`).  This is the faithful stand-in for
  per-rank time on a real MPI machine and is what the scaling benchmarks
  (Figure 10, Table II) report.

:class:`PhaseTimer` accepts arbitrary phase names (callers time whatever
stages they define); :attr:`PhaseTimer.timings` projects the canonical
``exchange``/``compute``/``output`` triple into a :class:`TessTimings` for
the paper's tables, and :meth:`PhaseTimer.as_dict` exposes every phase.

:class:`TessTimings` additionally carries communication-observability
counters (time blocked in recv/barrier, messages and bytes moved) filled in
by :func:`repro.core.tessellate.tessellate_distributed` from the
communicator's :class:`~repro.diy.comm.CommStats`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields

from ..observe import trace as _trace

__all__ = ["TessTimings", "PhaseTimer", "credit_cpu"]

_CORE_PHASES = ("exchange", "compute", "output")

#: CPU seconds helper threads spent for the current thread
_lent = threading.local()


def credit_cpu(seconds: float) -> None:
    """Count ``seconds`` of CPU that helper threads spent for the calling
    thread (which waited for them) into its :class:`PhaseTimer` phases."""
    _lent.seconds = getattr(_lent, "seconds", 0.0) + seconds


def _thread_cpu() -> float:
    return time.thread_time() + getattr(_lent, "seconds", 0.0)


@dataclass
class TessTimings:
    """Seconds spent in each tessellation phase (wall and per-thread CPU),
    plus per-rank communication counters."""

    exchange: float = 0.0
    compute: float = 0.0
    output: float = 0.0
    exchange_cpu: float = 0.0
    compute_cpu: float = 0.0
    output_cpu: float = 0.0
    #: wall-clock seconds blocked in recv/barrier (from CommStats)
    comm_wait: float = 0.0
    msgs_sent: int = 0
    msgs_recv: int = 0
    bytes_sent: int = 0
    bytes_recv: int = 0
    #: messages/bytes that traveled via shared-memory segments (nonzero only
    #: between forked ranks; confirms the zero-copy transport was used)
    shm_msgs_sent: int = 0
    shm_bytes_sent: int = 0

    @property
    def total(self) -> float:
        """Wall-clock sum of the phases."""
        return self.exchange + self.compute + self.output

    @property
    def total_cpu(self) -> float:
        """Per-thread CPU sum of the phases (the scaling metric)."""
        return self.exchange_cpu + self.compute_cpu + self.output_cpu

    def max_with(self, other: "TessTimings") -> "TessTimings":
        """Per-field maximum (reduction op for the cross-rank critical path;
        for the message/byte counters this reports the busiest rank)."""
        return TessTimings(
            **{
                f.name: max(getattr(self, f.name), getattr(other, f.name))
                for f in fields(self)
            }
        )

    def as_row(self) -> dict[str, float]:
        """Dict form used by the benchmark tables."""
        return {
            "exchange_s": self.exchange_cpu,
            "compute_s": self.compute_cpu,
            "output_s": self.output_cpu,
            "tess_total_s": self.total_cpu,
            "wall_total_s": self.total,
        }

    def as_row_extended(self) -> dict[str, float]:
        """:meth:`as_row` plus the communication-observability columns."""
        row = self.as_row()
        row.update(
            comm_wait_s=self.comm_wait,
            msgs_sent=self.msgs_sent,
            msgs_recv=self.msgs_recv,
            bytes_sent=self.bytes_sent,
            bytes_recv=self.bytes_recv,
            shm_msgs_sent=self.shm_msgs_sent,
            shm_bytes_sent=self.shm_bytes_sent,
        )
        return row


class PhaseTimer:
    """Accumulates wall and thread-CPU time into dynamically named phases.

    Phases are **reentrant**: re-entering a phase name from a nested
    context is safe — only the outermost entry accumulates, so the wall
    clock is never double-counted (a nested span is already covered by
    its enclosing one).  A timer instance belongs to one rank/thread;
    nesting is tracked per instance, not per thread.

    With ``rank`` set, every completed phase additionally records a span
    into the tracing subsystem (:mod:`repro.observe.trace`) when tracing
    is enabled — this is how the tessellation's exchange/compute/output
    phases appear on the run timeline.  Nested entries *are* recorded as
    spans (they nest naturally on the trace track).
    """

    def __init__(self, rank: int | None = None) -> None:
        self._wall: dict[str, float] = {}
        self._cpu: dict[str, float] = {}
        self._active: dict[str, int] = {}
        self._rank = rank

    @contextmanager
    def phase(self, name: str):
        """Context manager adding elapsed time to phase ``name``.

        Any nonempty string names a phase; the canonical
        ``exchange``/``compute``/``output`` triple feeds
        :attr:`timings`, everything else is reachable via :meth:`wall`,
        :meth:`cpu`, and :meth:`as_dict`."""
        if not isinstance(name, str) or not name:
            raise ValueError(f"phase name must be a nonempty string, got {name!r}")
        depth = self._active.get(name, 0)
        self._active[name] = depth + 1
        w0 = time.perf_counter()
        c0 = _thread_cpu()
        try:
            yield
        finally:
            w1 = time.perf_counter()
            c1 = _thread_cpu()
            self._active[name] = depth
            if depth == 0:
                # Outermost entry only: nested same-name entries are
                # already inside this interval (the reentrancy fix).
                self._wall[name] = self._wall.get(name, 0.0) + w1 - w0
                self._cpu[name] = self._cpu.get(name, 0.0) + c1 - c0
            if self._rank is not None and _trace.enabled():
                _trace.record(
                    name, self._rank, w0, w1, cpu=c1 - c0, cat="phase"
                )

    def wall(self, name: str) -> float:
        """Accumulated wall-clock seconds for phase ``name`` (0 if unseen)."""
        return self._wall.get(name, 0.0)

    def cpu(self, name: str) -> float:
        """Accumulated thread-CPU seconds for phase ``name`` (0 if unseen)."""
        return self._cpu.get(name, 0.0)

    @property
    def phase_names(self) -> tuple[str, ...]:
        """Phases recorded so far, in first-use order."""
        return tuple(self._wall)

    @property
    def timings(self) -> TessTimings:
        """The canonical three-phase view (the paper's Table II breakdown)."""
        t = TessTimings()
        for name in _CORE_PHASES:
            setattr(t, name, self._wall.get(name, 0.0))
            setattr(t, f"{name}_cpu", self._cpu.get(name, 0.0))
        return t

    def as_dict(self) -> dict[str, dict[str, float]]:
        """Every recorded phase: ``{name: {"wall": s, "cpu": s}}``."""
        return {
            name: {"wall": self._wall[name], "cpu": self._cpu.get(name, 0.0)}
            for name in self._wall
        }
