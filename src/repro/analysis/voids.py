"""Void identification: threshold + connected components + shape metrics.

The paper's headline application (Figures 1 and 9): culling cells below a
minimum volume threshold partitions the survivors into connected components
that correspond to cosmological voids — irregular, possibly concave unions
of convex cells.  A ~10% volume threshold is the paper's recommended
starting point; at the paper's small scale it reveals roughly 7-10 distinct
voids.

Two entry points, one body: :func:`find_voids` runs over an assembled
:class:`~repro.core.tessellate.Tessellation` (postprocessing), while
:func:`find_voids_distributed` is the in situ path — each rank passes its
own block, and one gather brings every rank's component-merge rows and
kept-cell volumes to the root; no rank ever holds the global mesh.  Either
way the parts (all blocks as one, or one per rank) go through the same
:func:`_void_catalog`:
the row merge of :mod:`~repro.analysis.components`, per-void volumes
accumulated with ``np.add.at`` over the labels, and one stable-sort
grouping of the members.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import observe
from ..core.data_model import VoronoiBlock
from ..core.tessellate import Tessellation
from ..diy.comm import Communicator
from .components import _local_rows, _merge_rows
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


def _void_catalog(
    parts: list[tuple[np.ndarray, np.ndarray]],
    vmin: float,
    min_cells: int,
    tess: Tessellation | None = None,
) -> VoidCatalog:
    """The catalog from every part's :func:`_local_rows` at ``vmin`` (rows
    and kept-cell volumes), with Minkowski functionals when the assembled
    ``tess`` is given.

    Each void's volume is summed over its cells in part order — the
    assembled tessellation's order when the parts hold blocks ``0, 1, …``
    in turn — so the catalog does not depend on which rank held which
    block.
    """
    labeling = _merge_rows([rows for rows, _ in parts])
    comp_vol = np.zeros(labeling.num_components)
    sids = np.concatenate([rows[: len(vols), 0] for rows, vols in parts])
    np.add.at(
        comp_vol,
        labeling.labels[np.searchsorted(labeling.site_ids, sids)],
        np.concatenate([vols for _, vols in parts]),
    )
    mink: list[MinkowskiFunctionals] | None = None
    if tess is not None:
        with observe.span("minkowski", cat="analysis"):
            mink = minkowski_functionals(tess, labeling)

    catalog = VoidCatalog(vmin=float(vmin))
    order, bounds = labeling.grouping()
    for label in np.flatnonzero(labeling.sizes() >= min_cells).tolist():
        catalog.voids.append(
            Void(
                label=label,
                site_ids=labeling.site_ids[order[bounds[label] : bounds[label + 1]]],
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
        return _void_catalog(
            [_local_rows(tess.blocks, vmin, None)],
            vmin,
            min_cells,
            tess if compute_minkowski else None,
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
    :func:`_local_rows` to the root, which runs :func:`find_voids`'s body on
    the gathered parts and broadcasts the catalog.  No rank ever gathers
    the global tessellation.  With block ``gid == rank`` the parts arrive
    in the assembled tessellation's block order, so the catalog equals
    :func:`find_voids`'s on it bit for bit.
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
            part = _local_rows([block], vmin, None)
        with observe.span("components-merge", rank=comm.rank, cat="analysis"):
            gathered = comm.gather(part, root=0)
            catalog = (
                _void_catalog(gathered, vmin, min_cells) if comm.rank == 0 else None
            )
            return comm.bcast(catalog, root=0)
