"""Built-in in situ analysis tools (level-1 analysis in paper Figure 4).

Every tool implements :class:`AnalysisTool`: given the live simulation
state at a fired step, produce a result.  Tools run inside the SPMD region
— they receive the rank-local particle view and the communicator and may
perform collectives.  Like the filters of a ParaView pipeline, each tool
reads the upstream output where it lives and never gathers or rebuilds
it: the tessellation tool returns a
:class:`~repro.core.tessellate.DistributedTessellation` (this rank's block,
replicated totals, and on rank 0 the ``(site id, volume)`` columns), and
the void finder (Minkowski functionals included), cell statistics and
tracking tools read that block.  No rank holds the whole mesh and nothing
is tessellated twice per step.  The analysis products (void catalogs,
histograms, merger trees, halo catalogs, DTFE frames) are small and
identical on every rank.  A serial run is the 1-rank run: every tool has
one path, the same at every rank count, and always gets a communicator.

Each tool checks its parameters when it is built (``ValueError`` naming
the tool and the parameter), so a bad deck fails before any rank starts.
"""

from __future__ import annotations

import math
import numbers
import os
import string
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .. import observe
from ..analysis.halos import HaloCatalog, fof_halos_distributed
from ..analysis.statistics import Histogram, histogram
from ..core.tessellate import DistributedTessellation, tessellate_distributed
from ..diy.comm import Communicator

__all__ = [
    "AnalysisTool",
    "TessellationTool",
    "HaloFinderTool",
    "StatisticsTool",
    "VoidFinderTool",
    "CellStatisticsTool",
    "TrackingTool",
    "DTFETool",
    "TOOL_REGISTRY",
]


class AnalysisTool:
    """Base class: one analysis filter of the in situ framework."""

    #: Registry key used in :class:`~repro.insitu.config.ToolConfig`.
    name: str = ""

    def run(
        self,
        sim,
        step: int,
        a: float,
        comm: Communicator,
        context: dict[str, Any] | None = None,
    ) -> Any:
        """Analyze the live state; called at each scheduled step.

        ``sim`` is the rank's :class:`~repro.hacc.simulation.HACCSimulation`;
        ``comm`` is the region's communicator, the 1-rank one in a serial
        run.  ``context`` maps names of tools already run at this step to
        their results, enabling tool chaining (e.g. void finding over the
        tessellation tool's output).
        """
        raise NotImplementedError


def _check_number(
    tool: AnalysisTool,
    field: str,
    lo: float = -math.inf,
    hi: float = math.inf,
    *,
    integer: bool = False,
    above: bool = False,
    optional: bool = False,
) -> None:
    """Raise ``ValueError`` unless ``tool.<field>`` is a finite number (an
    integer when ``integer``) in ``[lo, hi]``, or ``(lo, hi]`` when
    ``above``; ``None`` passes when ``optional``."""
    value = getattr(tool, field)
    if value is None and optional:
        return
    kind = numbers.Integral if integer else numbers.Real
    try:
        ok = (
            isinstance(value, kind)
            and not isinstance(value, bool)
            and (integer or math.isfinite(value))
        )
    except OverflowError:  # an int past the float range
        ok = False
    if not ok:
        what = "an integer" if integer else "a finite number"
        raise ValueError(f"{tool.name} {field} must be {what}, got {value!r}")
    if value < lo or value > hi or (above and value == lo):
        bounds = [f"{'>' if above else '>='} {lo:g}"] if lo > -math.inf else []
        bounds += [f"<= {hi:g}"] if hi < math.inf else []
        raise ValueError(
            f"{tool.name} {field} must be {' and '.join(bounds)}, got {value!r}"
        )


def _check_pattern(tool: AnalysisTool, field: str) -> None:
    """Raise ``ValueError`` unless ``tool.<field>`` is ``None`` or a path
    pattern whose only replacement field is ``{step}``."""
    value = getattr(tool, field)
    if value is None:
        return
    try:
        fields = {f for _, f, _, _ in string.Formatter().parse(value)}
        ok = fields <= {None, "step"} and isinstance(value.format(step=0), str)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(
            f"{tool.name} {field} must be a path pattern whose only field "
            f"is {{step}}, got {value!r}"
        )


def _tessellation(context, sim, step, a, comm, ghost: float):
    """The tessellation tool's output at this step or, only when no
    tessellation tool fired, a tessellation of this tool's own."""
    tess = (context or {}).get("tessellation")
    if tess is None:
        tess = TessellationTool(ghost=ghost).run(sim, step, a, comm)
    return tess


@dataclass
class TessellationTool(AnalysisTool):
    """Runs tess in situ and (optionally) writes each output to storage.

    Parameters mirror :func:`repro.core.tessellate.tessellate_distributed`;
    ``output_pattern`` may contain ``{step}`` which is substituted per fire.
    Returns this rank's :class:`DistributedTessellation` handle at every
    rank count.
    """

    ghost: float = 4.0
    vmin: float | None = None
    vmax: float | None = None
    output_pattern: str | None = None

    name = "tessellation"

    def __post_init__(self) -> None:
        _check_number(self, "ghost", 0.0)
        _check_number(self, "vmin", 0.0, optional=True)
        _check_number(self, "vmax", 0.0, optional=True)
        if None not in (self.vmin, self.vmax) and self.vmin > self.vmax:
            raise ValueError(
                f"tessellation vmin {self.vmin!r} exceeds vmax "
                f"{self.vmax!r}: no cell would be kept"
            )
        _check_pattern(self, "output_pattern")

    def run(
        self,
        sim,
        step: int,
        a: float,
        comm: Communicator,
        context: dict[str, Any] | None = None,
    ) -> DistributedTessellation:
        path = (
            self.output_pattern.format(step=step)
            if self.output_pattern is not None
            else None
        )
        block, timings, nbytes = tessellate_distributed(
            comm,
            sim.decomposition,
            sim.positions_mpc(),
            sim.local.ids,
            ghost=self.ghost,
            vmin=self.vmin,
            vmax=self.vmax,
            output_path=path,
        )
        return DistributedTessellation.collect(
            comm, sim.config.domain(), block, timings, nbytes
        )


@dataclass
class HaloFinderTool(AnalysisTool):
    """Friends-of-friends halo finder.

    ``linking_length`` is in units of the mean inter-particle spacing
    (``b``, conventionally 0.2); the absolute length is derived from the
    simulation configuration at run time.
    """

    linking_length: float = 0.2
    min_members: int = 10

    name = "halo_finder"

    def __post_init__(self) -> None:
        _check_number(self, "linking_length", 0.0, above=True)
        _check_number(self, "min_members", 1, integer=True)

    def run(
        self,
        sim,
        step: int,
        a: float,
        comm: Communicator,
        context: dict[str, Any] | None = None,
    ) -> HaloCatalog:
        spacing = sim.config.box_size / sim.config.np_side
        b_abs = self.linking_length * spacing
        return fof_halos_distributed(
            comm,
            sim.decomposition,
            sim.positions_mpc(),
            sim.local.ids,
            linking_length=b_abs,
            min_members=self.min_members,
        )


@dataclass
class StatisticsTool(AnalysisTool):
    """Grid density-contrast histogram (a cheap always-on summary).

    Deposits the particles on the force mesh, computes delta, and returns
    its histogram with skewness/kurtosis — the simulation-side counterpart
    of the paper's cell-based distributions.
    """

    bins: int = 100

    name = "statistics"

    def __post_init__(self) -> None:
        _check_number(self, "bins", 1, integer=True)

    def run(
        self,
        sim,
        step: int,
        a: float,
        comm: Communicator,
        context: dict[str, Any] | None = None,
    ) -> Histogram:
        from ..hacc.mesh import cic_deposit, density_contrast

        mesh = comm.allreduce(
            cic_deposit(sim.local.positions, sim.config.mesh_size)
        )
        delta = density_contrast(mesh)
        return histogram(delta.ravel(), bins=self.bins)


@dataclass
class VoidFinderTool(AnalysisTool):
    """In situ void finding (paper §V: move component labeling in situ).

    Consumes the tessellation tool's result when it ran earlier at the same
    step (list it first in the config); otherwise tessellates its own
    block.  It runs the fully distributed path on the rank-local block —
    one gather of component-merge rows, kept-cell volumes and, with
    ``compute_minkowski``, the kept cells' Minkowski sub-mesh; the catalog
    built on rank 0 and broadcast — without ever gathering the global
    mesh (paper §V's point).  ``vmin_fraction`` applies the paper's
    fraction-of-volume-range threshold rule; an absolute ``vmin`` wins if
    both are set.
    """

    ghost: float = 4.0
    vmin: float | None = None
    vmin_fraction: float = 0.1
    min_cells: int = 1
    compute_minkowski: bool = False

    name = "void_finder"

    def __post_init__(self) -> None:
        _check_number(self, "ghost", 0.0)
        _check_number(self, "vmin", 0.0, optional=True)
        _check_number(self, "vmin_fraction", 0.0, 1.0)
        _check_number(self, "min_cells", 1, integer=True)
        if not isinstance(self.compute_minkowski, bool):
            raise ValueError(
                f"{self.name} compute_minkowski must be true or false, "
                f"got {self.compute_minkowski!r}"
            )

    def run(
        self,
        sim,
        step: int,
        a: float,
        comm: Communicator,
        context: dict[str, Any] | None = None,
    ):
        from ..analysis.voids import find_voids_distributed

        return find_voids_distributed(
            comm,
            _tessellation(context, sim, step, a, comm, self.ghost),
            vmin=self.vmin,
            vmin_fraction=self.vmin_fraction,
            min_cells=self.min_cells,
            compute_minkowski=self.compute_minkowski,
        )


@dataclass
class CellStatisticsTool(AnalysisTool):
    """In situ histogram summaries of cell volumes and density contrast
    (paper §V: move histogram summary statistics in situ).  Rank 0 bins
    the gathered volume column and broadcasts the histograms."""

    ghost: float = 4.0
    bins: int = 100

    name = "cell_statistics"

    def __post_init__(self) -> None:
        _check_number(self, "ghost", 0.0)
        _check_number(self, "bins", 1, integer=True)

    def run(
        self,
        sim,
        step: int,
        a: float,
        comm: Communicator,
        context: dict[str, Any] | None = None,
    ) -> dict[str, Histogram]:
        from ..analysis.statistics import density_contrast

        tess = _tessellation(context, sim, step, a, comm, self.ghost)
        stats = None
        if comm.rank == 0:
            vols = tess.volumes()
            stats = {
                "volume": histogram(vols, bins=self.bins),
                "density_contrast": histogram(
                    density_contrast(vols), bins=self.bins
                ),
            }
        return comm.bcast(stats, root=0)


@dataclass
class TrackingTool(AnalysisTool):
    """In situ feature tracking: void merger trees across output steps.

    At each fired step the tool thresholds the tessellation (quantile of
    the valid cell volumes, or an absolute ``vmin``), labels connected
    components, and pushes the labeling with its per-label volumes into a
    :class:`~repro.analysis.tracking.FeatureTreeBuilder` — the same
    engine as the offline drivers, so the in situ tree is bit-identical
    to postprocessing the saved labelings.  The builder lives on rank 0;
    its ``state()`` columns are snapshotted to ``state_dir`` (atomic npz)
    after every push, and a resume restores the newest snapshot at or
    before the restart step, refusing one built with another
    ``min_overlap``.  Every rank returns ``builder.tree()``, the
    :class:`~repro.analysis.tracking.MergerTree` columns so far, which
    ``output`` (a path pattern with ``{step}``) also saves.

    Incomplete cells (volume 0/NaN) are masked out of the quantile and
    the threshold, never crashing the threshold path.  The tool labels
    the rank-local blocks of the step's tessellation: rank 0 takes the
    quantile of the gathered volume column, only the packed
    component-merge rows of the kept cells travel to it, and it links the
    labeling exactly as :func:`~repro.analysis.components.connected_components`
    would on the joined mesh — the mesh is never gathered.
    """

    ghost: float = 4.0
    vmin: float | None = None
    vmin_quantile: float = 0.85
    min_overlap: int = 1
    state_dir: str | None = None
    output: str | None = None
    _builder: Any = field(default=None, init=False, repr=False, compare=False)

    name = "tracking"

    _STATE_PREFIX = "tracking_state_"

    def __post_init__(self) -> None:
        _check_number(self, "ghost", 0.0)
        _check_number(self, "vmin", 0.0, optional=True)
        _check_number(self, "vmin_quantile", 0.0, 1.0)
        _check_number(self, "min_overlap", 1, integer=True)
        if self.state_dir is not None and not isinstance(self.state_dir, str):
            raise ValueError(
                f"{self.name} state_dir must be a path, got {self.state_dir!r}"
            )
        _check_pattern(self, "output")

    def _state_path(self, step: int) -> str:
        return os.path.join(
            self.state_dir, f"{self._STATE_PREFIX}{step:08d}.npz"
        )

    def _get_builder(self, sim):
        """The rank-0 builder, restoring checkpointed state on resume.

        State snapshots are per fired step: the tool can fire *after* the
        simulation's last checkpoint, so on resume the newest snapshot
        may be ahead of the restart point — the restore picks the latest
        snapshot at or before ``resumed_step``, exactly the history the
        re-fired steps will extend.
        """
        from ..analysis.tracking import FeatureTreeBuilder

        if self._builder is not None:
            return self._builder
        resumed = int(
            getattr(getattr(sim, "recovery", None), "resumed_step", -1)
        )
        if self.state_dir is not None and resumed >= 0:
            best = -1
            if os.path.isdir(self.state_dir):
                for fname in os.listdir(self.state_dir):
                    if not (
                        fname.startswith(self._STATE_PREFIX)
                        and fname.endswith(".npz")
                    ):
                        continue
                    try:
                        step = int(fname[len(self._STATE_PREFIX) : -4])
                    except ValueError:
                        continue
                    if step <= resumed:
                        best = max(best, step)
            if best >= 0:
                path = self._state_path(best)
                with np.load(path) as data:
                    arrays = {k: np.array(data[k]) for k in data.files}
                try:
                    builder = FeatureTreeBuilder.from_state(arrays)
                except ValueError as exc:
                    raise ValueError(f"{path}: {exc}") from exc
                if builder.min_overlap != self.min_overlap:
                    raise ValueError(
                        f"{path}: tracking state was built with min_overlap="
                        f"{builder.min_overlap}, but the tool has min_overlap="
                        f"{self.min_overlap}; resume with the same value"
                    )
                self._builder = builder
                return self._builder
        self._builder = FeatureTreeBuilder(min_overlap=self.min_overlap)
        return self._builder

    def _save_state(self, step: int) -> None:
        if self.state_dir is None or self._builder is None:
            return
        path = self._state_path(step)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as f:
                np.savez(f, **self._builder.state())
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    @staticmethod
    def _valid_volumes(vols: np.ndarray) -> np.ndarray:
        """Mask of cells whose volume is usable for thresholding.

        Incomplete cells legitimately carry volume 0 or NaN; they must
        not poison the quantile or the threshold comparison.
        """
        v = np.asarray(vols, dtype=float)
        return np.isfinite(v) & (v > 0)

    def _threshold(self, vols: np.ndarray) -> float:
        valid = vols[self._valid_volumes(vols)]
        if self.vmin is not None:
            return float(self.vmin)
        if len(valid) == 0:
            return float("inf")  # nothing to keep
        return float(np.quantile(valid, self.vmin_quantile))

    def run(
        self,
        sim,
        step: int,
        a: float,
        comm: Communicator,
        context: dict[str, Any] | None = None,
    ):
        from ..analysis.components import connected_components_at_root
        from ..core.data_model import index_in_sorted

        tess = _tessellation(context, sim, step, a, comm, self.ghost)
        vmin = comm.bcast(
            self._threshold(tess.volumes()) if comm.rank == 0 else None,
            root=0,
        )
        with observe.span(
            "tracking-gather", rank=comm.rank, cat="analysis", step=step
        ):
            labeling = connected_components_at_root(comm, tess.block, vmin=vmin)
        tree = None
        if comm.rank == 0:
            # Per-label volumes accumulated in ascending-site-id order from
            # rank 0's (site id, volume) columns, which hold the joined
            # mesh's cells in its order — so the sums match it bit for bit.
            sids = tess.site_ids().astype(np.int64, copy=False)
            order = np.argsort(sids, kind="stable")
            pos, found = index_in_sorted(labeling.site_ids, sids[order])
            if not found.all():
                raise RuntimeError("labeled cell missing from tessellation")
            cell_vols = np.asarray(tess.volumes(), dtype=float)[order][pos]
            comp_vol = np.zeros(labeling.num_components)
            np.add.at(comp_vol, labeling.labels, cell_vols)
            builder = self._get_builder(sim)
            builder.push(step, labeling, volumes=comp_vol)
            self._save_state(step)
            tree = builder.tree()
        tree = comm.bcast(tree, root=0)
        if observe.enabled():
            observe.registry().counter("tracking.steps").inc()
        if self.output is not None and comm.rank == 0:
            out = self.output.format(step=step)
            os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
            tree.save(out)
        return tree


@dataclass
class DTFETool(AnalysisTool):
    """DTFE density-evolution frames: one ``dtfe_grid`` per output step.

    Emits the paper's §II-A density reconstruction as a regular-grid
    frame at every fired step (the Kaehler 2016-style evolution-movie
    workload).  The particle positions are gathered at rank 0 (positions
    only — never the mesh), the field is computed once, and the frame
    broadcast so the result store is rank-independent.  ``output_pattern``
    may contain ``{step}``; frames are written atomically as ``.npy`` by
    rank 0.
    """

    grid_size: int = 16
    pad_fraction: float = 0.25
    output_pattern: str | None = None

    name = "dtfe"

    def __post_init__(self) -> None:
        _check_number(self, "grid_size", 1, integer=True)
        _check_number(self, "pad_fraction", 0.0, above=True)
        _check_pattern(self, "output_pattern")

    def run(
        self,
        sim,
        step: int,
        a: float,
        comm: Communicator,
        context: dict[str, Any] | None = None,
    ) -> np.ndarray:
        from ..analysis.dtfe import dtfe_grid

        pts = np.ascontiguousarray(sim.positions_mpc(), dtype=float)
        gathered = comm.gather(pts, root=0)
        grid = None
        if comm.rank == 0:
            grid = dtfe_grid(
                np.concatenate(gathered),
                sim.config.domain(),
                self.grid_size,
                pad_fraction=self.pad_fraction,
            )
        grid = comm.bcast(grid, root=0)
        if observe.enabled():
            observe.registry().counter("dtfe.frames").inc()
        if self.output_pattern is not None and comm.rank == 0:
            out = self.output_pattern.format(step=step)
            os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
            tmp = f"{out}.tmp.{os.getpid()}"
            try:
                with open(tmp, "wb") as f:
                    np.save(f, grid)
                    f.flush()
                    os.fsync(f.fileno())
                os.replace(tmp, out)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        return grid


#: Name -> tool class, extended by user registrations
#: (:meth:`CosmologyToolsFramework.register`).
TOOL_REGISTRY: dict[str, type[AnalysisTool]] = {
    TessellationTool.name: TessellationTool,
    HaloFinderTool.name: HaloFinderTool,
    StatisticsTool.name: StatisticsTool,
    VoidFinderTool.name: VoidFinderTool,
    CellStatisticsTool.name: CellStatisticsTool,
    TrackingTool.name: TrackingTool,
    DTFETool.name: DTFETool,
}
