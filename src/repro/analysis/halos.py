"""Friends-of-friends halo finder (a sibling in situ tool, paper Figure 4).

Halos are the high-density counterpart of voids: groups of particles whose
pairwise separations chain below a linking length ``b`` (in units of the
mean inter-particle spacing, conventionally b ~ 0.2).  The serial finder
uses a periodic KD-tree pair query plus an array union-find; the
distributed finder reuses tess's ghost-exchange machinery — linking is
local to owned + ghost particles, and group fragments that span ranks are
merged at the root through their shared global particle ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from ..diy.bounds import Bounds, minimum_image
from ..diy.comm import Communicator
from ..diy.decomposition import Decomposition
from ..core.ghost import exchange_ghost_particles
from .components import ArrayUnionFind

__all__ = ["Halo", "HaloCatalog", "fof_halos", "fof_halos_distributed"]


@dataclass(frozen=True)
class Halo:
    """One friends-of-friends group."""

    members: np.ndarray  # global particle ids, sorted
    center: np.ndarray  # periodic-aware mean position, shape (3,)

    @property
    def mass(self) -> int:
        """Member count (unit-mass particles)."""
        return len(self.members)


@dataclass
class HaloCatalog:
    """All halos above the membership threshold, descending by mass."""

    linking_length: float
    min_members: int
    halos: list[Halo] = field(default_factory=list)

    @property
    def num_halos(self) -> int:
        return len(self.halos)

    def masses(self) -> np.ndarray:
        """Member counts, aligned with ``halos``."""
        return np.asarray([h.mass for h in self.halos], dtype=np.int64)

    def mass_function(self, bins: np.ndarray) -> np.ndarray:
        """Halo counts per mass bin (a crude multiplicity function)."""
        return np.histogram(self.masses(), bins=bins)[0]


def _link_pairs(
    positions: np.ndarray, linking_length: float, domain: Bounds | None
) -> np.ndarray:
    """All particle index pairs closer than the linking length."""
    if domain is not None:
        lo, _ = domain.as_arrays()
        tree = cKDTree(
            np.asarray(positions) - lo, boxsize=domain.sizes
        )  # periodic metric
    else:
        tree = cKDTree(positions)
    pairs = tree.query_pairs(r=linking_length, output_type="ndarray")
    return pairs


def _catalog_from_groups(
    groups: dict[int, list[int]],
    pos_by_id: dict[int, np.ndarray],
    domain: Bounds | None,
    linking_length: float,
    min_members: int,
) -> HaloCatalog:
    catalog = HaloCatalog(linking_length=linking_length, min_members=min_members)
    for members in groups.values():
        if len(members) < min_members:
            continue
        ids = np.asarray(sorted(members), dtype=np.int64)
        pts = np.asarray([pos_by_id[int(i)] for i in ids])
        ref = pts[0]
        if domain is not None:
            rel = minimum_image(pts - ref, domain)
            from ..diy.bounds import wrap_positions

            center = wrap_positions((ref + rel.mean(axis=0))[None, :], domain)[0]
        else:
            center = pts.mean(axis=0)
        catalog.halos.append(Halo(members=ids, center=center))
    catalog.halos.sort(key=lambda h: (-h.mass, int(h.members[0])))
    return catalog


def fof_halos(
    positions: np.ndarray,
    linking_length: float,
    domain: Bounds | None = None,
    min_members: int = 10,
    ids: np.ndarray | None = None,
) -> HaloCatalog:
    """Serial friends-of-friends over a global particle set.

    Parameters
    ----------
    positions:
        ``(n, 3)`` particle positions (inside ``domain`` if periodic).
    linking_length:
        Absolute linking length (multiply ``b`` by the mean spacing first).
    domain:
        Periodic domain; ``None`` for open boundaries.
    min_members:
        Minimum group size to report (the classic choice is 10-20).
    ids:
        Global particle ids (default ``arange``).
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"positions must be (n, 3), got {pos.shape}")
    if linking_length <= 0:
        raise ValueError("linking_length must be positive")
    pid = np.arange(len(pos), dtype=np.int64) if ids is None else np.asarray(ids)

    uf = ArrayUnionFind(len(pos))
    pairs = _link_pairs(pos, linking_length, domain)
    uf.union_edges(pairs[:, 0], pairs[:, 1])

    groups: dict[int, list[int]] = {}
    for i, label in enumerate(uf.labels().tolist()):
        groups.setdefault(label, []).append(int(pid[i]))
    pos_by_id = {int(pid[i]): pos[i] for i in range(len(pos))}
    return _catalog_from_groups(groups, pos_by_id, domain, linking_length, min_members)


def fof_halos_distributed(
    comm: Communicator,
    decomposition: Decomposition,
    positions: np.ndarray,
    ids: np.ndarray,
    linking_length: float,
    min_members: int = 10,
    gid: int | None = None,
) -> HaloCatalog:
    """Distributed FOF: local linking + root merge (collective).

    Each rank links its owned + ghost particles (ghost thickness = the
    linking length suffices: any cross-rank link has both endpoints within
    one linking length of the boundary).  Edges are expressed in global ids
    and merged at the root; the full catalog is broadcast back.
    """
    gid = comm.rank if gid is None else gid
    pos = np.asarray(positions, dtype=float)
    pid = np.asarray(ids, dtype=np.int64)

    ghost_pos, ghost_ids = exchange_ghost_particles(
        decomposition, comm, gid, pos, pid, ghost=1.001 * linking_length
    )
    all_pos = np.concatenate([pos, ghost_pos]) if len(ghost_pos) else pos
    all_ids = np.concatenate([pid, ghost_ids])

    # Local linking in the block's frame (non-periodic: ghosts already
    # carry translated periodic images).
    edges: list[tuple[int, int]] = []
    if len(all_pos) > 1:
        for a, b in _link_pairs(all_pos, linking_length, domain=None):
            edges.append((int(all_ids[a]), int(all_ids[b])))

    gathered_edges = comm.gather(edges, root=0)
    gathered_pos = comm.gather({int(i): p for i, p in zip(pid, pos)}, root=0)

    if comm.rank == 0:
        pos_by_id: dict[int, np.ndarray] = {}
        for d in gathered_pos:
            pos_by_id.update(d)
        links = np.array(
            [e for rank_edges in gathered_edges for e in rank_edges],
            dtype=np.int64,
        ).reshape(-1, 2)
        nodes = np.unique(
            np.concatenate([np.fromiter(pos_by_id, dtype=np.int64), links.ravel()])
        )
        uf = ArrayUnionFind(len(nodes))
        uf.union_edges(
            np.searchsorted(nodes, links[:, 0]), np.searchsorted(nodes, links[:, 1])
        )
        # Keep only real particles (ghost ids duplicate real ones by design).
        groups: dict[int, list[int]] = {}
        for node, label in zip(nodes.tolist(), uf.labels().tolist()):
            if node in pos_by_id:
                groups.setdefault(label, []).append(node)
        catalog = _catalog_from_groups(
            groups, pos_by_id, decomposition.domain, linking_length, min_members
        )
    else:
        catalog = None
    return comm.bcast(catalog, root=0)
