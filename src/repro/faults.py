"""Deterministic fault injection for the SPMD runtime.

Long campaigns *will* lose ranks mid-run (HACC treats checkpoint/restart as
a first-class capability for exactly this reason), so the fault-tolerance
path needs to be exercisable on demand, deterministically, in tests and CI.
This module provides that harness: a :class:`FaultSpec` describes which
faults to inject, :func:`install` arms a process-wide :class:`FaultInjector`,
and the runtime consults it at two seams:

* **rank death** — :meth:`FaultInjector.on_step` is called by
  :meth:`repro.hacc.simulation.HACCSimulation.step` at the start of every
  step; when the (rank, step) matches the spec the rank dies, either by
  raising :class:`RankKilledError` (thread backend) or via ``os._exit``
  (process backend — a hard crash the parent must detect by exit-code
  polling, see :mod:`repro.diy.process_backend`);
* **torn checkpoint writes** — :meth:`FaultInjector.torn_write` is
  consulted by :func:`repro.diy.mpi_io.write_blocks`; when armed, the rank
  writes only a fraction of its first payload into the *temp* file and then
  crashes, simulating a rank lost mid-checkpoint.  The crash-consistent
  write protocol guarantees the previous checkpoint survives.

Both execution backends see the same injector: threads share the module
global, and rank processes receive its spec with each task.

The injector is process-global state; tests must pair :func:`install` with
:func:`clear` (``try/finally``) so faults never leak across tests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "FaultSpec",
    "FaultInjector",
    "RankKilledError",
    "TornWriteError",
    "install",
    "clear",
    "active",
]


class RankKilledError(RuntimeError):
    """Raised (thread backend) when fault injection kills a rank."""


class TornWriteError(RuntimeError):
    """Raised (thread backend) when fault injection tears a block write."""


@dataclass(frozen=True)
class FaultSpec:
    """Declarative description of the faults to inject.

    ``kill_rank``/``kill_step`` name the rank that dies and the 1-based
    step at whose *start* it dies (i.e. after ``kill_step - 1`` completed
    steps).  ``kill_mode`` is ``"raise"`` (thread backend: raise
    :class:`RankKilledError`) or ``"exit"`` (process backend: hard
    ``os._exit`` — no teardown, no result, exactly like a crashed node).

    ``tear_rank``/``tear_step`` arm a torn checkpoint write: during the
    collective block write that rank writes only ``tear_fraction`` of its
    first payload, then crashes per ``tear_mode`` (same values as
    ``kill_mode``).  ``tear_step=None`` tears the next write regardless of
    step (for tests that write checkpoints outside a stepping loop).
    """

    kill_rank: int | None = None
    kill_step: int | None = None
    kill_mode: str = "raise"
    kill_exitcode: int = 87
    tear_rank: int | None = None
    tear_step: int | None = None
    tear_fraction: float = 0.5
    tear_mode: str = "raise"

    def __post_init__(self) -> None:
        for mode in (self.kill_mode, self.tear_mode):
            if mode not in ("raise", "exit"):
                raise ValueError(f"fault mode must be 'raise' or 'exit', got {mode!r}")
        if not 0.0 <= self.tear_fraction < 1.0:
            raise ValueError(
                f"tear_fraction must be in [0, 1), got {self.tear_fraction}"
            )


class FaultInjector:
    """Runtime state for one armed :class:`FaultSpec` (see module docs)."""

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self._steps: dict[int, int] = {}  # rank -> step currently executing

    def _die(self, exc: BaseException, mode: str) -> None:
        if mode == "exit":
            # A hard crash: no Python teardown, no result pipe message.  The
            # parent must notice via exit-code polling, exactly as a real
            # cluster scheduler notices a dead node.
            os._exit(self.spec.kill_exitcode)
        raise exc

    # ------------------------------------------------------------------
    # seams consulted by the runtime
    # ------------------------------------------------------------------
    def on_step(self, rank: int, step: int) -> None:
        """Called at the start of executing 1-based ``step`` on ``rank``."""
        self._steps[rank] = step
        s = self.spec
        if s.kill_rank == rank and s.kill_step == step:
            self._die(
                RankKilledError(
                    f"fault injection killed rank {rank} at step {step}"
                ),
                s.kill_mode,
            )

    def torn_write(self, rank: int) -> float | None:
        """Fraction of the first payload to write before crashing, or None."""
        s = self.spec
        if s.tear_rank != rank:
            return None
        if s.tear_step is not None and self._steps.get(rank) != s.tear_step:
            return None
        return s.tear_fraction

    def crash_write(self, rank: int) -> None:
        """Crash the rank mid-write (called after the partial write)."""
        self._die(
            TornWriteError(
                f"fault injection tore a block write on rank {rank} "
                f"(step {self._steps.get(rank)})"
            ),
            self.spec.tear_mode,
        )


_active: FaultInjector | None = None


def install(spec: FaultSpec) -> FaultInjector:
    """Arm ``spec`` process-wide; returns the injector (pair with :func:`clear`)."""
    global _active
    _active = FaultInjector(spec)
    return _active


def clear() -> None:
    """Disarm fault injection."""
    global _active
    _active = None


def active() -> FaultInjector | None:
    """The armed injector, or ``None``."""
    return _active
