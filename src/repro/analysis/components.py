"""Connected-component labeling of Voronoi cells (plugin filter #3).

Cells sharing a face and both passing the volume threshold belong to the
same component; components of large-volume cells *are* the voids (paper
Figure 9).  Face adjacency comes for free from the tess data model: every
face stores the global particle id of the site across it.

One labeling kernel, whatever the rank count.  Each input part emits
packed int64 ``(id, id)`` rows — a set of blocks through
:func:`_local_rows`, a particle set for the FOF halo finder through
:func:`~repro.analysis.halos._halo_part` — and :func:`_merge_rows` turns
the rows of every part into one canonical :class:`ComponentLabeling`:

* :func:`connected_components` is the in-process case: one part holding
  every block of an assembled tessellation, merged in place.
* :func:`connected_components_at_root` is the in situ case: each rank
  emits the rows of its own block, and one tree gather brings them to the
  root — one collective round, independent of component diameter — where
  the same merge runs.

The dict-based labeling these replaced lives with the tests
(``tests/components_reference.py``) as the parity reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
        # a root is its own parent, and roots ascend with their index
        return np.cumsum(roots == np.arange(len(roots)), dtype=np.int64)[roots] - 1


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

    def grouping(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, bounds)`` such that ``site_ids[order[bounds[l] :
        bounds[l + 1]]]`` are the members of component ``l``, ascending
        (one stable sort of the labels)."""
        order = np.argsort(self.labels, kind="stable")
        bounds = np.zeros(self.num_components + 1, dtype=np.int64)
        np.cumsum(self.sizes(), out=bounds[1:])
        return order, bounds

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
    """Label components of face-adjacent cells within the volume band:
    :func:`_merge_rows` over the rows of ``tess``'s blocks, one part."""
    with observe.span("components-flat", cat="analysis"):
        return _merge_rows([_local_rows(tess.blocks, vmin, vmax)[0]])


def _local_rows(
    blocks: Sequence[VoronoiBlock], vmin: float | None, vmax: float | None
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """One part's rows for :func:`_merge_rows`, as packed int64 pairs.

    A part is the blocks one labeling pass holds: a rank's own block, or
    every block of an assembled tessellation.  First one ``(site id, local
    root)`` row per kept cell, in block order, then one ``(site id,
    neighbor id)`` row per face of a kept cell whose neighbor the part
    does not own (it may be kept elsewhere; a neighbor owned here and not
    kept is kept nowhere).  Also returns the kept cells' volumes, aligned
    with the first rows, and the lookup of the kept cells' neighbours:
    ``(looked, here, cell)`` masks the faces looked up (in block order),
    which of those have theirs in the part, and its cell index there.
    """
    if not blocks:
        no = np.empty(0, dtype=bool)
        lookup = (no, no, np.empty(0, dtype=np.int64))
        return np.empty((0, 2), dtype=np.int64), np.empty(0), lookup
    volumes = np.concatenate([b.volumes for b in blocks])
    keep = np.ones(len(volumes), dtype=bool)
    if vmin is not None:
        keep &= volumes >= vmin
    if vmax is not None:
        keep &= volumes <= vmax
    sids = np.concatenate([b.site_ids for b in blocks]).astype(np.int64, copy=False)
    order = np.argsort(sids, kind="stable")

    # Every face of a kept cell, as (owner cell index, neighbor site id),
    # and the neighbor's cell index where this part owns it.
    counts = np.concatenate([np.diff(b.cell_face_offsets) for b in blocks])
    dst = np.concatenate([b.face_neighbors for b in blocks])
    fmask = np.repeat(keep, counts) & (dst >= 0)
    src = np.repeat(np.arange(len(sids)), counts)[fmask]
    dst = dst[fmask]
    pos, owned = index_in_sorted(dst, sids[order])
    nbr = order[pos]
    internal = owned & keep[nbr]

    # Local labeling over cell indices; any member can stand for its
    # component, since the root's merge is canonical.
    uf = ArrayUnionFind(len(sids))
    uf.union_edges(src[internal], nbr[internal])
    kept = np.flatnonzero(keep)
    rows = np.concatenate(
        [
            np.stack([sids[kept], sids[uf.find_many(kept)]], axis=1),
            np.stack([sids[src[~owned]], dst[~owned]], axis=1),
        ]
    )
    lookup = (fmask, owned, nbr)
    return np.ascontiguousarray(rows, dtype=np.int64), volumes[kept], lookup


def _merge_rows(parts: list[np.ndarray]) -> ComponentLabeling:
    """The global labeling from every part's ``(id, id)`` rows.

    Each kept node is the source of at least one row of its own part (its
    link to a local root, or to itself), so the kept set is the union of
    the source columns; a row whose target is kept nowhere is dropped.
    Labels are canonical — ordered by each component's smallest id — so
    the result depends on the rows' graph, not on how parts split it.
    """
    merged = np.concatenate([np.empty((0, 2), dtype=np.int64), *parts])
    if len(merged) == 0:
        return _empty_labeling()
    sources = np.sort(merged[:, 0])
    kept = sources[np.concatenate(([True], sources[1:] != sources[:-1]))]
    merged = merged[isin_sorted(merged[:, 1], kept)]
    uf = ArrayUnionFind(len(kept))
    uf.union_edges(
        np.searchsorted(kept, merged[:, 0]), np.searchsorted(kept, merged[:, 1])
    )
    return ComponentLabeling(site_ids=kept, labels=uf.labels())


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
        rows, _, _ = _local_rows([block], vmin, vmax)
    with observe.span("components-merge", rank=comm.rank, cat="analysis"):
        gathered = comm.gather(rows, root=0)
        return _merge_rows(gathered) if comm.rank == 0 else None
