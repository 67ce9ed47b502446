"""The dict-based component labeling, kept as the parity reference.

:class:`UnionFind` (hashable keys, path compression, union by rank) and
:func:`connected_components_dict` (one ``set`` probe and one ``union`` per
face, block by block) are the per-cell form that
:func:`repro.analysis.components.connected_components` replaced with the
packed-row merge over :class:`~repro.analysis.components.ArrayUnionFind`.
They share no code with the flat kernels.  Nothing under ``src/`` can select them; the
parity suites (``tests/test_analysis_components*.py``) assert the flat and
distributed kernels reproduce them.
"""

import numpy as np

from repro.analysis.components import ComponentLabeling
from repro.core.data_model import VoronoiBlock
from repro.core.tessellate import Tessellation

from .cell_reference import neighbors_of_cell


class UnionFind:
    """Union-find over arbitrary hashable keys with path compression."""

    def __init__(self) -> None:
        self._parent: dict = {}
        self._rank: dict = {}

    def add(self, x) -> None:
        """Register ``x`` as a singleton if unseen."""
        if x not in self._parent:
            self._parent[x] = x
            self._rank[x] = 0

    def find(self, x):
        """Root of ``x`` (must be registered via :meth:`add` first)."""
        if x not in self._parent:
            raise KeyError(
                f"id {x!r} is not registered in this UnionFind; "
                f"call add({x!r}) before find/union"
            )
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:  # path compression
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a, b) -> None:
        """Merge the sets containing ``a`` and ``b``."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1

    def __contains__(self, x) -> bool:
        return x in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def groups(self) -> dict:
        """Mapping root -> sorted member list."""
        out: dict = {}
        for x in self._parent:
            out.setdefault(self.find(x), []).append(x)
        for members in out.values():
            members.sort()
        return out


def block_edges(
    block: VoronoiBlock, kept: set[int]
) -> tuple[list[int], list[tuple[int, int]]]:
    """Kept cells of a block and their adjacency edges among kept cells,
    cell by cell."""
    nodes: list[int] = []
    edges: list[tuple[int, int]] = []
    for i in range(block.num_cells):
        sid = int(block.site_ids[i])
        if sid not in kept:
            continue
        nodes.append(sid)
        for nb in neighbors_of_cell(block, i):
            nb = int(nb)
            if nb >= 0 and nb in kept:
                edges.append((sid, nb))
    return nodes, edges


def connected_components_dict(
    tess: Tessellation, vmin: float | None = None, vmax: float | None = None
) -> ComponentLabeling:
    """Per-cell dict-based labeling of the cells within the volume band."""
    v = tess.volumes()
    mask = np.ones(len(v), dtype=bool)
    if vmin is not None:
        mask &= v >= vmin
    if vmax is not None:
        mask &= v <= vmax
    kept = set(tess.site_ids()[mask].tolist())

    uf = UnionFind()
    for block in tess.blocks:
        nodes, edges = block_edges(block, kept)
        for sid in nodes:
            uf.add(sid)
        for a, b in edges:
            # The neighbor may live in another block; register it so the
            # union is recorded even before that block is visited.
            uf.add(b)
            uf.union(a, b)

    groups = uf.groups()
    site_ids: list[int] = []
    labels: list[int] = []
    for label, root in enumerate(sorted(groups)):
        for sid in groups[root]:
            site_ids.append(sid)
            labels.append(label)
    order = np.argsort(site_ids)
    return ComponentLabeling(
        site_ids=np.asarray(site_ids, dtype=np.int64)[order],
        labels=np.asarray(labels, dtype=np.int64)[order],
    )
