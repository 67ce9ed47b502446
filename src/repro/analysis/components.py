"""Connected-component labeling of Voronoi cells (plugin filter #3).

Cells sharing a face and both passing the volume threshold belong to the
same component; components of large-volume cells *are* the voids (paper
Figure 9).  Face adjacency comes for free from the tess data model: every
face stores the global particle id of the site across it.

Two paths, one kernel:

* :func:`connected_components` — flat-array labeling over an assembled
  tessellation: edges come from the vectorized
  :meth:`~repro.core.data_model.VoronoiBlock.adjacency_edges` CSR masking
  and merge through :class:`ArrayUnionFind` (an int64 parent array with
  path halving) — no per-cell Python loop anywhere on the hot path.
* :func:`connected_components_at_root` — the in situ path: each rank
  labels its own block locally, and its local links and boundary edges
  (faces whose neighbor cell lives on another rank) travel to the root as
  one packed ``(src, dst)`` int64 row array through the tree gather — one
  collective round, independent of component diameter — where the global
  labeling is resolved.

The dict-based labeling these replaced lives with the tests
(``tests/components_reference.py``) as the parity reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import observe
from ..core.data_model import VoronoiBlock, index_in_sorted, isin_sorted
from ..core.tessellate import Tessellation
from ..diy.comm import Communicator

__all__ = ["ArrayUnionFind", "ComponentLabeling", "connected_components",
           "connected_components_at_root"]


class ArrayUnionFind:
    """Union-find over the dense index range ``[0, n)``.

    State is a single int64 parent array; parents only ever decrease, so
    the root of every merged set is its minimum member — labels derived
    from roots are deterministic and decomposition-invariant.  Bulk unions
    (:meth:`union_edges`) hook roots in vectorized rounds
    (Shiloach–Vishkin style: every non-minimal root with an incident edge
    hooks to its smallest root neighbor, then the forest is flattened), so
    the cost is a few array passes rather than one Python call per edge.
    """

    def __init__(self, n: int) -> None:
        self.parent = np.arange(int(n), dtype=np.int64)

    def __len__(self) -> int:
        return len(self.parent)

    def find(self, i: int) -> int:
        """Root of ``i``, with path halving."""
        p = self.parent
        i = int(i)
        while p[i] != i:
            p[i] = p[p[i]]  # path halving
            i = int(p[i])
        return i

    def find_many(self, idx: np.ndarray) -> np.ndarray:
        """Roots of ``idx`` (vectorized pointer jumping; compresses paths)."""
        idx = np.asarray(idx, dtype=np.int64)
        p = self.parent
        root = p[idx]
        while True:
            nxt = p[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        p[idx] = root  # full compression for the queried nodes
        return root

    def union(self, a: int, b: int) -> None:
        """Merge the sets containing ``a`` and ``b``."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def union_edges(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Merge across every edge ``(src[k], dst[k])`` in bulk."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if len(src) != len(dst):
            raise ValueError("src and dst edge arrays must have equal length")
        p = self.parent
        while len(src):
            ra, rb = self.find_many(src), self.find_many(dst)
            live = ra != rb
            if not live.any():
                break
            src, dst = src[live], dst[live]
            ra, rb = ra[live], rb[live]
            # Hook the larger root of each live edge to the smallest
            # smaller root competing for it, then flatten the forest.
            np.minimum.at(p, np.maximum(ra, rb), np.minimum(ra, rb))
            self._flatten()

    def _flatten(self) -> None:
        p = self.parent
        while True:
            gp = p[p]
            if np.array_equal(gp, p):
                break
            np.copyto(p, gp)

    def labels(self) -> np.ndarray:
        """Dense component label per index, ordered by minimum member."""
        roots = self.find_many(np.arange(len(self.parent), dtype=np.int64))
        _, labels = np.unique(roots, return_inverse=True)
        return labels.astype(np.int64)


@dataclass
class ComponentLabeling:
    """Result of component labeling over thresholded cells.

    Attributes
    ----------
    site_ids:
        Global ids of the cells that passed the threshold, ascending.
    labels:
        Component index (0-based, dense) per entry of ``site_ids``.
    """

    site_ids: np.ndarray
    labels: np.ndarray

    @property
    def num_components(self) -> int:
        """Number of connected components."""
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    def sizes(self) -> np.ndarray:
        """Cell count of each component, indexed by label."""
        return np.bincount(self.labels, minlength=self.num_components)

    def members(self, label: int) -> np.ndarray:
        """Site ids belonging to component ``label``."""
        return self.site_ids[self.labels == label]

    def label_of(self) -> dict[int, int]:
        """Mapping site id -> component label."""
        return dict(zip(self.site_ids.tolist(), self.labels.tolist()))


def _empty_labeling() -> ComponentLabeling:
    return ComponentLabeling(
        site_ids=np.empty(0, dtype=np.int64), labels=np.empty(0, dtype=np.int64)
    )


def connected_components(
    tess: Tessellation, vmin: float | None = None, vmax: float | None = None
) -> ComponentLabeling:
    """Label components of face-adjacent cells within the volume band.

    Flat-array path: one :meth:`adjacency_edges` call per block and one
    bulk :meth:`ArrayUnionFind.union_edges` per edge batch.
    """
    from .threshold import volume_threshold_mask

    with observe.span("components-flat", cat="analysis"):
        mask = volume_threshold_mask(tess, vmin=vmin, vmax=vmax)
        kept = np.unique(tess.site_ids()[mask].astype(np.int64, copy=False))
        if len(kept) == 0:
            return _empty_labeling()
        uf = ArrayUnionFind(len(kept))
        for block in tess.blocks:
            src, dst = block.adjacency_edges(kept, return_indices=True)
            if len(src):
                uf.union_edges(src, dst)
        return ComponentLabeling(site_ids=kept, labels=uf.labels())


def _local_rows(
    block: VoronoiBlock, vmin: float | None, vmax: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """This block's half of the distributed merge, as packed int64 rows.

    First one ``(site id, local root)`` row per kept cell, in block order,
    then one ``(site id, neighbor id)`` row per face of a kept cell whose
    neighbor this block does not own (it may be kept on another rank; a
    neighbor owned here and not kept is kept nowhere).  Also returns the
    block's keep mask.
    """
    keep = np.ones(block.num_cells, dtype=bool)
    if vmin is not None:
        keep &= block.volumes >= vmin
    if vmax is not None:
        keep &= block.volumes <= vmax
    sids = block.site_ids.astype(np.int64, copy=False)
    order = np.argsort(sids, kind="stable")

    # Every face of a kept cell, as (owner cell index, neighbor site id),
    # and the neighbor's cell index where this block owns it.
    counts = np.diff(block.cell_face_offsets).astype(np.int64)
    dst = block.face_neighbors.astype(np.int64, copy=False)
    fmask = np.repeat(keep, counts) & (dst >= 0)
    src = np.repeat(np.arange(block.num_cells), counts)[fmask]
    dst = dst[fmask]
    pos, owned = index_in_sorted(dst, sids[order])
    nbr = order[pos]
    internal = owned & keep[nbr]

    # Local labeling over cell indices; any member can stand for its
    # component, since the root's merge is canonical.
    uf = ArrayUnionFind(block.num_cells)
    uf.union_edges(src[internal], nbr[internal])
    kept = np.flatnonzero(keep)
    rows = np.concatenate(
        [
            np.stack([sids[kept], sids[uf.find_many(kept)]], axis=1),
            np.stack([sids[src[~owned]], dst[~owned]], axis=1),
        ]
    )
    return np.ascontiguousarray(rows, dtype=np.int64), keep


def _merge_rows(gathered: list[np.ndarray]) -> ComponentLabeling:
    """The root's global labeling from every rank's :func:`_local_rows`:
    each kept cell is the source of its own link row, so the kept set is
    the union of the source columns."""
    merged = np.concatenate(gathered)
    all_kept = np.unique(merged[:, 0])
    if len(all_kept) == 0:
        return _empty_labeling()
    # Only join cells that actually survived on some rank.
    merged = merged[isin_sorted(merged[:, 1], all_kept)]
    guf = ArrayUnionFind(len(all_kept))
    guf.union_edges(
        np.searchsorted(all_kept, merged[:, 0]),
        np.searchsorted(all_kept, merged[:, 1]),
    )
    return ComponentLabeling(site_ids=all_kept, labels=guf.labels())


def connected_components_at_root(
    comm: Communicator,
    block: VoronoiBlock,
    vmin: float | None = None,
    vmax: float | None = None,
) -> ComponentLabeling | None:
    """In situ labeling: local flat pass + one boundary merge at the root.

    Collective; every rank passes its own block, and rank 0 receives the
    *global* labeling (``None`` elsewhere).  Cross-block adjacency needs no
    geometry: a face's neighbor id either belongs to a local kept cell or
    to some other rank's cell, and the root resolves the union graph.  The
    merge traffic is one packed int64 ``(src, dst)`` row array per rank —
    a local root link per kept cell plus the unresolved boundary edges —
    shipped through the tree gather; no Python tuple lists cross ranks.
    """
    with observe.span("components-local", rank=comm.rank, cat="analysis"):
        rows, _ = _local_rows(block, vmin, vmax)
    with observe.span("components-merge", rank=comm.rank, cat="analysis"):
        gathered = comm.gather(rows, root=0)
        return _merge_rows(gathered) if comm.rank == 0 else None
