"""HACC-style N-body simulation driver with domain decomposition.

:class:`HACCSimulation` couples the pieces of this subpackage — Zel'dovich
initial conditions, CIC mesh transfers, the spectral Poisson solver, and
KDK stepping — into a rank-parallel simulation: each rank owns the
particles inside one block of a :class:`~repro.diy.decomposition.
Decomposition` and they cooperate through the communicator.

Parallelization strategy (a documented substitution for HACC's distributed
FFT): per-rank CIC deposits are **allreduced into a replicated global
mesh**, every rank runs the identical spectral solve, and forces are
gathered locally.  At the mesh sizes this reproduction targets (<= 128^3)
the replicated mesh is cheap; the deposit's fixed-point weights
(:mod:`repro.hacc.mesh`) make its sum exact in any order, so results are
bitwise rank-count-independent.  The particle side — which is what tess
consumes — has exactly HACC's structure: block-owned particles, periodic
wrapping, and post-drift migration to neighbor ranks.  Each step evaluates
the PM force once; its closing force is carried to open the next step.

In situ analysis hooks fire at selected steps with the live particle state,
which is how the cosmology-tools framework (:mod:`repro.insitu`) attaches.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import faults, observe
from ..observe import trace as _trace
from ..diy.bounds import Bounds
from ..diy.comm import Communicator, run_parallel
from ..diy.decomposition import Decomposition
from .cosmology import LCDM, PLANCK_LIKE
from .initial_conditions import zeldovich_ics
from .integrator import TimeStepper, kdk_step
from .particles import ParticleSet

#: annotation key under which the carried force rides through migration
_FORCE = "force"

__all__ = [
    "SimulationConfig",
    "StepRecord",
    "RecoveryStats",
    "HACCSimulation",
    "run_simulation",
    "run_with_recovery",
]

#: Hook signature: hook(simulation, step_index, scale_factor).
Hook = Callable[["HACCSimulation", int, float], None]


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of one simulation run (the 'input deck').

    Defaults follow the paper's setup: ``np_side`` particles per dimension
    on an equal-size force mesh in a box of ``np_side`` Mpc/h (initial
    spacing exactly 1 Mpc/h), evolved from z=49 to z=0.
    """

    np_side: int = 32
    nsteps: int = 100
    cosmo: LCDM = field(default_factory=lambda: PLANCK_LIKE)
    a_init: float = 0.02
    a_final: float = 1.0
    seed: int = 0
    transfer: str = "eisenstein_hu"
    deconvolve: bool = False
    ng: int | None = None
    box: float | None = None

    def __post_init__(self) -> None:
        if self.np_side < 2:
            raise ValueError(f"np_side must be >= 2, got {self.np_side}")

    @property
    def mesh_size(self) -> int:
        """Force-mesh points per dimension."""
        return self.np_side if self.ng is None else self.ng

    @property
    def box_size(self) -> float:
        """Box side in Mpc/h."""
        return float(self.np_side) if self.box is None else float(self.box)

    @property
    def cell_size(self) -> float:
        """Mesh cell size in Mpc/h."""
        return self.box_size / self.mesh_size

    @property
    def num_particles(self) -> int:
        """Total particle count."""
        return self.np_side**3

    def domain(self) -> Bounds:
        """The periodic simulation domain in Mpc/h."""
        return Bounds.cube(self.box_size)


@dataclass
class StepRecord:
    """Wall-clock accounting for one step (feeds Table II)."""

    step: int
    a: float
    seconds: float


@dataclass
class RecoveryStats:
    """Observability for one :func:`run_with_recovery` invocation.

    ``resumed_step`` is the step index the run restarted from (``-1`` for a
    fresh start); the checkpoint counters cover only checkpoints written by
    *this* invocation.
    """

    resumed_step: int = -1
    steps_run: int = 0
    checkpoints_written: int = 0
    checkpoint_bytes: int = 0
    checkpoint_seconds: float = 0.0


class HACCSimulation:
    """One rank's view of a domain-decomposed N-body run.

    Parameters
    ----------
    config:
        The input deck.
    comm:
        Communicator; ``None`` means the 1-rank one (a serial run is the
        1-rank run, :meth:`~repro.diy.comm.Communicator.one_rank`).
    decomposition:
        Block decomposition of the domain; defaults to one near-cubic block
        per rank.  Must have exactly ``comm.size`` blocks (one per rank,
        the paper's configuration).
    """

    def __init__(
        self,
        config: SimulationConfig,
        comm: Communicator | None = None,
        decomposition: Decomposition | None = None,
    ) -> None:
        self.config = config
        self.comm = comm = Communicator.one_rank() if comm is None else comm
        self.decomposition = decomposition or Decomposition.regular(
            config.domain(), comm.size, periodic=True
        )
        if self.decomposition.nblocks != comm.size:
            raise ValueError(
                f"decomposition has {self.decomposition.nblocks} blocks for "
                f"{comm.size} ranks; HACCSimulation runs one block per rank"
            )
        self.gid = comm.rank
        self.block = self.decomposition.block(self.gid)
        self.stepper = TimeStepper(config.a_init, config.a_final, config.nsteps)
        #: the last closing force, aligned with :attr:`local`; ``None``
        #: (recompute at the next step) whenever :attr:`local` is replaced.
        self._force: np.ndarray | None = None
        self.a = config.a_init
        self.step_index = 0
        self.step_records: list[StepRecord] = []
        #: per-particle scalar annotation aligned with :attr:`local` (the
        #: Voronoi cell density of the paper's §V proposal); populated by
        #: checkpoint restart, invalidated when particles migrate.
        self.cell_density: np.ndarray | None = None

        # Every rank generates the identical realization deterministically
        # and keeps its own block's particles (replicated IC generation).
        with _trace.span("ic", rank=self.gid, cat="sim"):
            ics = zeldovich_ics(
                config.np_side,
                config.cosmo,
                config.a_init,
                box=config.box_size,
                ng=config.mesh_size,
                seed=config.seed,
                transfer=config.transfer,
            )
            mine = (
                self.decomposition.locate(self._to_mpc(ics.positions))
                == self.gid
            )
            self.local = ics.select(mine)

    @property
    def local(self) -> ParticleSet:
        """This rank's particles (grid units).  Assigning a new set drops
        the carried force, so the next step recomputes it; do not mutate
        positions in place between steps."""
        return self._local

    @local.setter
    def local(self, particles: ParticleSet) -> None:
        self._local = particles
        self._force = None

    # ------------------------------------------------------------------
    # unit helpers
    # ------------------------------------------------------------------
    def _to_mpc(self, grid_positions: np.ndarray) -> np.ndarray:
        return grid_positions * self.config.cell_size

    def positions_mpc(self) -> np.ndarray:
        """Local particle positions in Mpc/h."""
        return self._to_mpc(self.local.positions)

    @property
    def num_local(self) -> int:
        """Number of locally owned particles."""
        return len(self.local)

    def num_global(self) -> int:
        """Total particle count across ranks (collective)."""
        return int(self.comm.allreduce(len(self.local)))

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def _global_mass_mesh(self, local_mesh: np.ndarray) -> np.ndarray:
        return self.comm.allreduce(local_mesh)

    def step(self) -> None:
        """Advance one KDK step and migrate particles to their new owners."""
        if self.step_index >= self.config.nsteps:
            raise RuntimeError("simulation already at a_final")
        inj = faults.active()
        if inj is not None:
            # Fault-injection seam: may kill this rank entering this step.
            inj.on_step(self.gid, self.step_index + 1)
        t0 = time.perf_counter()
        with _trace.span(
            "step", rank=self.gid, cat="sim", step=self.step_index + 1
        ):
            self._force = kdk_step(
                self._local,
                self.config.mesh_size,
                self.config.cosmo,
                self.stepper,
                self.step_index,
                self._force,
                deconvolve=self.config.deconvolve,
                density_callback=self._global_mass_mesh,
            )
            self.step_index += 1
            self.a = self.stepper.a_at(self.step_index)
            self._migrate()
        self.step_records.append(
            StepRecord(self.step_index, self.a, time.perf_counter() - t0)
        )
        if observe.enabled():
            p = self._local
            observe.registry().gauge(
                "mem.particle_bytes", rank=self.gid
            ).set_max(
                p.positions.nbytes + p.velocities.nbytes + p.ids.nbytes
                + self._force.nbytes
            )

    def _migrate(self) -> None:
        """Send particles that drifted out of this block to their owners,
        each with its carried force.

        :attr:`local` and the force are rebuilt, and :attr:`cell_density`
        dropped, only when a particle left or arrived; otherwise all three
        stay as they are.
        """
        owners = self.decomposition.locate_from(self.gid, self.positions_mpc())
        staying = owners == self.gid
        local = self._local
        carried = ParticleSet(
            local.positions,
            local.velocities,
            local.ids,
            {**local.annotations, _FORCE: self._force},
        )
        outbox = [
            ParticleSet.empty() if rank == self.gid
            else carried.select(owners == rank)
            for rank in range(self.comm.size)
        ]
        arrivals = [p for p in self.comm.alltoall(outbox) if len(p)]
        if arrivals or not staying.all():
            moved = ParticleSet.concatenate([carried.select(staying)] + arrivals)
            self._force = moved.annotations.pop(_FORCE)
            self._local = moved
            # The annotation indexes the pre-migration particle order; drop
            # it rather than silently misalign it.
            self.cell_density = None

    def run(self, hooks: dict[int, list[Hook]] | list[Hook] | None = None) -> None:
        """Run all remaining steps, firing hooks after selected steps.

        ``hooks`` may be a list (fire after every step) or a mapping from
        step index (1-based, i.e. after that many completed steps) to hook
        lists.  Hooks also fire at step 0 (initial conditions) when the
        mapping contains key 0.
        """
        table = _normalize_hooks(hooks, self.config.nsteps)

        for hook in table.get(0, []):
            hook(self, 0, self.a)
        while self.step_index < self.config.nsteps:
            self.step()
            for hook in table.get(self.step_index, []):
                hook(self, self.step_index, self.a)

    def simulation_seconds(self) -> float:
        """Total wall-clock spent inside :meth:`step` so far."""
        return float(sum(r.seconds for r in self.step_records))


def _normalize_hooks(
    hooks: dict[int, list[Hook]] | list[Hook] | None, nsteps: int
) -> dict[int, list[Hook]]:
    """The hook-table form of ``hooks`` (see :meth:`HACCSimulation.run`)."""
    if hooks is None:
        return {}
    if isinstance(hooks, dict):
        return hooks
    # A plain list fires after every completed step (not at the ICs).
    return {s: list(hooks) for s in range(1, nsteps + 1)}


def run_with_recovery(
    config: SimulationConfig,
    comm: Communicator | None = None,
    *,
    checkpoint_dir: str,
    checkpoint_every: int = 1,
    resume: bool = False,
    hooks: dict[int, list[Hook]] | list[Hook] | None = None,
    precision: str = "f8",
) -> HACCSimulation:
    """Run a simulation with periodic checkpoints and crash recovery.

    Every ``checkpoint_every`` completed steps (and at the final step) the
    full state is written crash-consistently to
    ``checkpoint_dir/ckpt-STEP.ckpt``.  With ``resume=True`` the run
    restarts from the newest checkpoint in the directory that passes full
    validation — torn files from a mid-write crash are skipped — and hooks
    for already-completed steps (in situ analysis included) are *not*
    re-fired.  The default ``"f8"`` precision makes a resume at any rank
    count reproduce the uninterrupted run bit for bit.  ``comm=None`` is
    the 1-rank run.

    Returns the finished simulation; ``sim.recovery`` is a
    :class:`RecoveryStats` describing what this invocation did.
    """
    from .checkpoint import (
        checkpoint_path,
        find_latest_checkpoint,
        restart_simulation,
        write_checkpoint,
    )

    comm = Communicator.one_rank() if comm is None else comm
    if comm.rank == 0:
        os.makedirs(checkpoint_dir, exist_ok=True)
    comm.barrier()

    sim: HACCSimulation | None = None
    resumed_step = -1
    if resume:
        # Rank 0 decides which checkpoint to restart from (validation is
        # deterministic, but one decision broadcast keeps ranks agreeing
        # even if the directory changes under a concurrent scan).
        found = None
        if comm.rank == 0:
            found = find_latest_checkpoint(checkpoint_dir, config)
        found = comm.bcast(found, root=0)
        if found is not None:
            resumed_step, path = found
            sim = restart_simulation(path, config, comm=comm)
    if sim is None:
        sim = HACCSimulation(config, comm=comm)

    recovery = RecoveryStats(resumed_step=resumed_step)
    sim.recovery = recovery
    table = _normalize_hooks(hooks, config.nsteps)

    if resumed_step < 0:
        for hook in table.get(0, []):
            hook(sim, 0, sim.a)
    while sim.step_index < config.nsteps:
        sim.step()
        recovery.steps_run += 1
        if sim.step_index > resumed_step:  # skip already-analyzed steps
            for hook in table.get(sim.step_index, []):
                hook(sim, sim.step_index, sim.a)
        if checkpoint_every > 0 and (
            sim.step_index % checkpoint_every == 0
            or sim.step_index == config.nsteps
        ):
            t0 = time.perf_counter()
            nbytes = write_checkpoint(
                checkpoint_path(checkpoint_dir, sim.step_index),
                comm,
                sim,
                scalar=sim.cell_density,
                precision=precision,
            )
            recovery.checkpoints_written += 1
            recovery.checkpoint_bytes += int(nbytes)
            recovery.checkpoint_seconds += time.perf_counter() - t0
    if observe.enabled():
        observe.absorb_recovery_stats(recovery, sim.gid)
    return sim


def run_simulation(
    config: SimulationConfig,
    nranks: int = 1,
    hooks: dict[int, list[Hook]] | list[Hook] | None = None,
) -> ParticleSet:
    """Run a complete simulation and return the final global particles.

    Launches the SPMD region (``nranks=1`` inline) and concatenates the
    per-rank survivors (positions in grid units, as in
    :class:`HACCSimulation`).
    """
    return ParticleSet.concatenate(
        run_parallel(nranks, _run_worker, config, hooks)
    )


def _run_worker(
    comm: Communicator,
    config: SimulationConfig,
    hooks: dict[int, list[Hook]] | list[Hook] | None,
) -> ParticleSet:
    """Rank worker of :func:`run_simulation` (picklable unless ``hooks``
    hold closures)."""
    sim = HACCSimulation(config, comm=comm)
    sim.run(hooks=hooks)
    return sim.local
