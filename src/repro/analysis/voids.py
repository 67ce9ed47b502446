"""Void identification: threshold + connected components + shape metrics.

The paper's headline application (Figures 1 and 9): culling cells below a
minimum volume threshold partitions the survivors into connected components
that correspond to cosmological voids — irregular, possibly concave unions
of convex cells.  A ~10% volume threshold is the paper's recommended
starting point; at the paper's small scale it reveals roughly 7-10 distinct
voids.

Two entry points: :func:`find_voids` runs over an assembled
:class:`~repro.core.tessellate.Tessellation` (postprocessing), while
:func:`find_voids_distributed` is the in situ path — each rank passes its
own block, and one gather of merge rows and kept-cell volumes lets the
root label, accumulate and broadcast the catalog; no rank ever holds the
global mesh.  Both accumulate volumes with ``searchsorted`` +
``np.add.at`` over the labels — no per-void Python summation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import observe
from ..core.data_model import VoronoiBlock
from ..core.tessellate import Tessellation
from ..diy.comm import Communicator
from .components import (
    ComponentLabeling,
    _local_rows,
    _merge_rows,
    connected_components,
)
from .minkowski import MinkowskiFunctionals, minkowski_functionals

__all__ = ["Void", "VoidCatalog", "find_voids", "find_voids_distributed",
           "volume_threshold_for_fraction"]


@dataclass(frozen=True)
class Void:
    """One void: a connected component of large cells."""

    label: int
    site_ids: np.ndarray
    volume: float
    minkowski: MinkowskiFunctionals | None = None

    @property
    def num_cells(self) -> int:
        return len(self.site_ids)


@dataclass
class VoidCatalog:
    """All voids found at a given volume threshold."""

    vmin: float
    voids: list[Void] = field(default_factory=list)

    @property
    def num_voids(self) -> int:
        return len(self.voids)

    def total_volume(self) -> float:
        """Combined volume of all voids."""
        return float(sum(v.volume for v in self.voids))

    def largest(self) -> Void:
        """The void with the greatest volume."""
        if not self.voids:
            raise ValueError("catalog is empty")
        return max(self.voids, key=lambda v: v.volume)

    def sizes(self) -> np.ndarray:
        """Cell counts per void, descending."""
        return np.sort([v.num_cells for v in self.voids])[::-1]


def volume_threshold_for_fraction(
    tess: Tessellation, fraction_of_range: float = 0.1
) -> float:
    """The paper's '10% volume threshold': ``vmin = lo + f * (hi - lo)``.

    Cells below this are the small, uninteresting majority; everything that
    contributes to voids survives (paper §IV-B).
    """
    v = tess.volumes()
    if len(v) == 0:
        raise ValueError("tessellation has no cells")
    lo, hi = float(v.min()), float(v.max())
    return lo + fraction_of_range * (hi - lo)


def _component_volumes(
    labeling: ComponentLabeling, site_ids: np.ndarray, volumes: np.ndarray
) -> np.ndarray:
    """Summed cell volume per component label (vectorized accumulation).

    ``site_ids``/``volumes`` are aligned cell arrays covering (at least)
    every labeled site; cells absent from the labeling are ignored, so the
    same kernel serves the global and the per-block (distributed) case.
    """
    ncomp = labeling.num_components
    comp_vol = np.zeros(ncomp)
    if ncomp == 0 or len(site_ids) == 0:
        return comp_vol
    pos = np.searchsorted(labeling.site_ids, site_ids)
    pos[pos == len(labeling.site_ids)] = len(labeling.site_ids) - 1
    present = labeling.site_ids[pos] == site_ids
    np.add.at(comp_vol, labeling.labels[pos[present]], volumes[present])
    return comp_vol


def _catalog_from_labeling(
    labeling: ComponentLabeling,
    comp_vol: np.ndarray,
    vmin: float,
    min_cells: int,
    mink: list[MinkowskiFunctionals] | None = None,
) -> VoidCatalog:
    """Assemble the catalog from labels + per-component volumes."""
    catalog = VoidCatalog(vmin=float(vmin))
    ncomp = labeling.num_components
    if ncomp == 0:
        return catalog
    # Group member site ids by label in one stable sort; site_ids are
    # ascending, so each group comes out ascending too.
    order = np.argsort(labeling.labels, kind="stable")
    bounds = np.searchsorted(
        labeling.labels[order], np.arange(ncomp + 1), side="left"
    )
    for label in range(ncomp):
        members = labeling.site_ids[order[bounds[label] : bounds[label + 1]]]
        if len(members) < min_cells:
            continue
        catalog.voids.append(
            Void(
                label=label,
                site_ids=members,
                volume=float(comp_vol[label]),
                minkowski=mink[label] if mink is not None else None,
            )
        )
    catalog.voids.sort(key=lambda v: v.volume, reverse=True)
    return catalog


def find_voids(
    tess: Tessellation,
    vmin: float | None = None,
    min_cells: int = 1,
    compute_minkowski: bool = False,
) -> VoidCatalog:
    """Find voids as connected components of cells with volume >= vmin.

    Parameters
    ----------
    tess:
        The tessellation (typically of an evolved snapshot).
    vmin:
        Minimum cell volume; defaults to the paper's 10%-of-range rule.
    min_cells:
        Discard components smaller than this many cells.
    compute_minkowski:
        Attach Minkowski functionals / shapefinders per void (costs one
        boundary-surface assembly pass).
    """
    if vmin is None:
        vmin = volume_threshold_for_fraction(tess)

    with observe.span("find-voids", cat="analysis"):
        labeling = connected_components(tess, vmin=vmin)
        comp_vol = _component_volumes(
            labeling,
            tess.site_ids().astype(np.int64, copy=False),
            tess.volumes(),
        )

        mink: list[MinkowskiFunctionals] | None = None
        if compute_minkowski:
            with observe.span("minkowski", cat="analysis"):
                mink = minkowski_functionals(tess, labeling)

        return _catalog_from_labeling(
            labeling, comp_vol, vmin, min_cells, mink=mink
        )


def find_voids_distributed(
    comm: Communicator,
    block: VoronoiBlock,
    vmin: float | None = None,
    vmin_fraction: float = 0.1,
    min_cells: int = 1,
) -> VoidCatalog:
    """In situ void finding over one block per rank (collective).

    Every rank passes its own :class:`VoronoiBlock` and receives the same
    global :class:`VoidCatalog`: the ``vmin`` fraction rule reduces the
    global volume range, and one tree gather brings each rank's
    component-merge rows (:func:`connected_components_at_root`'s) and
    the volumes of its kept cells to the root, which labels, builds the
    catalog and broadcasts it.  No rank ever gathers the global
    tessellation.  With block ``gid == rank`` the root accumulates each
    void's volume over the cells in the assembled tessellation's order, so
    the catalog equals :func:`find_voids`'s on it bit for bit.
    """
    with observe.span("find-voids-distributed", rank=comm.rank, cat="analysis"):
        if vmin is None:
            lo = comm.allreduce(
                float(block.volumes.min()) if block.num_cells else np.inf,
                op=min,
            )
            hi = comm.allreduce(
                float(block.volumes.max()) if block.num_cells else -np.inf,
                op=max,
            )
            if not np.isfinite(lo):
                raise ValueError("tessellation has no cells")
            vmin = lo + vmin_fraction * (hi - lo)

        with observe.span("components-local", rank=comm.rank, cat="analysis"):
            rows, keep = _local_rows(block, vmin, None)
        with observe.span("components-merge", rank=comm.rank, cat="analysis"):
            gathered = comm.gather((rows, block.volumes[keep]), root=0)
            catalog = None
            if comm.rank == 0:
                labeling = _merge_rows([r for r, _ in gathered])
                # A rank's first rows are its kept cells, in block order.
                comp_vol = _component_volumes(
                    labeling,
                    np.concatenate([r[: len(v), 0] for r, v in gathered]),
                    np.concatenate([v for _, v in gathered]),
                )
                catalog = _catalog_from_labeling(
                    labeling, comp_vol, vmin, min_cells
                )
            return comm.bcast(catalog, root=0)
