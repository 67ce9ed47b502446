"""What the four workloads share: the set-up clock, the pass loop, and the
record a workload hands back to ``run.py``."""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from spans import Recorder, Span, percentile


class SetupClock:
    """Set-up time = what is paid once per process (imports, the native
    kernel's build or dlopen) + the median of the repeated part (fixture
    build, warm-up deck, rank-pool fork, server start).  Repeating the
    part that can be repeated keeps one slow repetition out of the
    reported number."""

    REPS = 3

    def __init__(self) -> None:
        self.once_s = 0.0
        self.reps_s: list[float] = []

    @contextmanager
    def once(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.once_s += time.perf_counter() - t0

    @contextmanager
    def rep(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.reps_s.append(time.perf_counter() - t0)

    @property
    def total_s(self) -> float:
        repeated = statistics.median(self.reps_s) if self.reps_s else 0.0
        return self.once_s + repeated


@dataclass
class Outcome:
    """One run of one workload, before it is turned into metrics."""

    setup: SetupClock = field(default_factory=SetupClock)
    #: wall of each untraced pass (the end-to-end samples)
    walls: list[float] = field(default_factory=list)
    #: wall of each traced pass (trace runs alternate the two)
    traced_walls: list[float] = field(default_factory=list)
    #: latency of every unit operation / heavy operation, untraced passes
    op_ms: list[float] = field(default_factory=list)
    heavy_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    tess_bytes: int = 0
    tess_cells: int = 0
    peak_rss_mb: float = 0.0
    #: per-layer metrics this workload measured (trace runs only)
    layers: dict[str, float] = field(default_factory=dict)
    #: rows of the per-layer table: (span name, seconds per pass)
    table: list[tuple[str, float]] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    #: exact counts that must repeat for a seed (the output digest)
    digest: dict = field(default_factory=dict)

    def operation(self, problems: list[str] = ()) -> None:
        """Count one operation (a firing, a snapshot analysis, a request);
        it failed if any of its output checks left a message."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems)


def run_passes(one_pass, seconds: float, traced: bool, outcome: Outcome) -> None:
    """Call ``one_pass(recorder, index)`` until ``seconds`` have elapsed
    (at least twice, so a median exists on either side of a trace run).

    Untraced runs record no spans at all.  Trace runs alternate a traced
    and an untraced pass of identical work; the gap between the two
    medians is the tracing overhead.
    """
    live = Recorder(enabled=True)
    off = Recorder(enabled=False)
    t_end = time.perf_counter() + seconds
    index = 0
    while index < 2 or time.perf_counter() < t_end:
        tracing = traced and index % 2 == 0
        t0 = time.perf_counter()
        one_pass(live if tracing else off, index)
        wall = time.perf_counter() - t0
        (outcome.traced_walls if tracing else outcome.walls).append(wall)
        index += 1
    outcome.spans = live.spans


def end_to_end(outcome: Outcome) -> dict[str, float]:
    """The seven end-to-end numbers of a run (see README for what an
    operation is on each workload)."""
    walls = outcome.walls
    return {
        "setup_s": outcome.setup.total_s,
        "wall_s": statistics.median(walls),
        "op_p50_ms": percentile(outcome.op_ms, 50.0),
        "heavy_p50_ms": percentile(outcome.heavy_ms, 50.0),
        # sustained rate at the median pass: one slow pass does not move it
        "ops_per_s": len(outcome.op_ms) / len(walls) / statistics.median(walls),
        "bytes_per_cell": outcome.tess_bytes / outcome.tess_cells,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def trace_overhead_pct(outcome: Outcome) -> float:
    base = statistics.median(outcome.walls)
    return 100.0 * (statistics.median(outcome.traced_walls) - base) / base
