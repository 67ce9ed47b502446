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
own block, and one gather brings every rank's component-merge rows,
kept-cell volumes and (for Minkowski functionals) kept-cell sub-mesh to
the root; no rank ever holds the global mesh.  Either way the parts (all
blocks as one, or one per rank) go through the same :func:`_void_catalog`:
the row merge of :mod:`~repro.analysis.components`, per-void volumes
accumulated with ``np.add.at`` over the labels, the Minkowski kernel on
the joined sub-meshes, and one stable-sort grouping of the members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import observe
from ..core.data_model import VoronoiBlock
from ..core.tessellate import DistributedTessellation, Tessellation
from ..diy.bounds import Bounds
from ..diy.comm import Communicator
from .components import _local_rows, _merge_rows
from .minkowski import MinkowskiFunctionals, _functionals, _Mesh

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


def _void_part(
    blocks: Sequence[VoronoiBlock], vmin: float, domain: Bounds, minkowski: bool
) -> tuple[np.ndarray, np.ndarray, _Mesh | None]:
    """One part: the :func:`_local_rows` of ``blocks`` at ``vmin`` and, with
    ``minkowski``, the kept cells' sub-mesh — one key for them all, as
    face-adjacent kept cells of a part are of one void."""
    rows, vols, lookup = _local_rows(blocks, vmin, None)
    if not minkowski:
        return rows, vols, None
    volumes = np.concatenate([np.empty(0)] + [b.volumes for b in blocks])
    key = np.where(volumes >= vmin, 0, -1)
    return rows, vols, _Mesh.part(blocks, key, domain, lookup)


def _void_catalog(
    parts: list[tuple[np.ndarray, np.ndarray, _Mesh | None]],
    vmin: float,
    min_cells: int,
) -> VoidCatalog:
    """The catalog from every :func:`_void_part` at ``vmin``, with
    Minkowski functionals when the parts carry sub-meshes.

    Each void's volume is summed over its cells in part order, and the
    functionals run on the sub-meshes joined in part order — the
    tessellation's block order when the parts hold blocks ``0, 1, …`` in
    turn — so the catalog does not depend on which rank held which block.
    """
    labeling = _merge_rows([rows for rows, _, _ in parts])
    comp_vol = np.zeros(labeling.num_components)
    sids = np.concatenate([rows[: len(vols), 0] for rows, vols, _ in parts])
    np.add.at(
        comp_vol,
        labeling.labels[np.searchsorted(labeling.site_ids, sids)],
        np.concatenate([vols for _, vols, _ in parts]),
    )
    meshes = [mesh for _, _, mesh in parts if mesh is not None]
    mink: list[MinkowskiFunctionals] | None = None
    if meshes:
        with observe.span("minkowski", cat="analysis"):
            mink = _functionals(_Mesh.join(meshes), labeling)

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
        Attach Minkowski functionals / shapefinders per void: the kernel
        on one part holding every block, as in situ on one per rank.
    """
    if vmin is None:
        vmin = volume_threshold_for_fraction(tess)
    with observe.span("find-voids", cat="analysis"):
        return _void_catalog(
            [_void_part(tess.blocks, vmin, tess.domain, compute_minkowski)],
            vmin,
            min_cells,
        )


def find_voids_distributed(
    comm: Communicator,
    tess: DistributedTessellation,
    vmin: float | None = None,
    vmin_fraction: float = 0.1,
    min_cells: int = 1,
    compute_minkowski: bool = False,
) -> VoidCatalog:
    """In situ void finding over one block per rank (collective).

    Every rank passes its handle on the tessellation and receives the
    same global :class:`VoidCatalog`: the ``vmin`` fraction rule reduces
    the global volume range, and one tree gather brings each rank's
    :func:`_void_part` of its own block — the rows, the kept-cell volumes
    and, with ``compute_minkowski``, the kept cells' Minkowski sub-mesh —
    to the root, which runs :func:`find_voids`'s body on the gathered
    parts and broadcasts the catalog.  No rank ever gathers a block or the
    global tessellation.  With block ``gid == rank`` the parts arrive in
    the tessellation's block order, so the catalog equals
    :func:`find_voids`'s on the joined blocks bit for bit.
    """
    block = tess.block
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
            part = _void_part([block], vmin, tess.domain, compute_minkowski)
        with observe.span("components-merge", rank=comm.rank, cat="analysis"):
            gathered = comm.gather(part, root=0)
            catalog = (
                _void_catalog(gathered, vmin, min_cells) if comm.rank == 0 else None
            )
            return comm.bcast(catalog, root=0)
