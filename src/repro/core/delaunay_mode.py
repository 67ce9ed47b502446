"""Parallel Delaunay tetrahedralization — tess's dual output mode.

Paper §I: "In principle, similar methods can be applied to other
computational geometry problems such as Delaunay tetrahedralizations and
convex hulls."  (The production tess library did grow exactly this mode.)
The parallel scheme is the same as for Voronoi cells, with the dual
certification rule:

* exchange ghost particles, compute the local Delaunay over owned+ghost;
* a tetrahedron is **complete** when its circumsphere lies entirely inside
  the region whose particles the block has seen — the empty-circumsphere
  property is then certified against all unseen particles (this is the
  dual of the Voronoi security radius: the circumcenter is the dual
  Voronoi vertex);
* duplicates across blocks are resolved by ownership: a tet belongs to
  the block whose core contains its circumcenter (wrapped periodically),
  the dual of "keep cells sited at original particles".

The result is a global, duplicate-free tet soup keyed by global particle
ids, suitable for DTFE-style interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..diy.bounds import Bounds, wrap_positions
from ..diy.comm import Communicator, run_parallel
from ..diy.decomposition import Decomposition
from ..geometry.delaunay import circumcenters, delaunay
from .ghost import exchange_ghost_particles

__all__ = ["DelaunayBlock", "DistributedDelaunay", "delaunay_distributed",
           "dual_distributed", "tessellate_delaunay"]


@dataclass
class DelaunayBlock:
    """One block's owned tetrahedra.

    ``tetrahedra`` holds global particle ids (4 per row); ``vertices`` maps
    those ids' positions as this block saw them (periodic images already
    translated into the block frame).
    """

    gid: int
    tetrahedra: np.ndarray  # (m, 4) global ids
    circumcenters: np.ndarray  # (m, 3)
    volumes: np.ndarray  # (m,)

    @property
    def num_tetrahedra(self) -> int:
        return len(self.tetrahedra)


@dataclass
class DistributedDelaunay:
    """All blocks of a parallel Delaunay tessellation."""

    domain: Bounds
    blocks: list[DelaunayBlock]

    @property
    def num_tetrahedra(self) -> int:
        return sum(b.num_tetrahedra for b in self.blocks)

    def total_volume(self) -> float:
        """Sum of tet volumes (equals the box volume when complete)."""
        return float(sum(b.volumes.sum() for b in self.blocks))

    def all_tetrahedra(self) -> np.ndarray:
        """Concatenated (m, 4) global-id tet array, sorted canonically."""
        if not self.blocks:
            return np.empty((0, 4), dtype=np.int64)
        tets = np.concatenate([b.tetrahedra for b in self.blocks])
        tets = np.sort(tets, axis=1)
        order = np.lexsort(tets.T[::-1])
        return tets[order]


def delaunay_distributed(
    comm: Communicator,
    decomposition: Decomposition,
    positions: np.ndarray,
    ids: np.ndarray,
    ghost: float,
    gid: int | None = None,
) -> DelaunayBlock:
    """SPMD Delaunay over distributed particles (collective).

    Each rank returns the tetrahedra its block owns (circumcenter in the
    block core after periodic wrapping), certified complete via the
    circumsphere-in-seen-region rule.
    """
    gid = comm.rank if gid is None else gid
    block_def = decomposition.block(gid)

    ghost_pos, ghost_ids = exchange_ghost_particles(
        decomposition, comm, gid, positions, ids, ghost
    )
    own = np.atleast_2d(np.asarray(positions, dtype=float))
    all_pos = np.concatenate([own, ghost_pos]) if len(ghost_pos) else own
    all_ids = np.concatenate(
        [np.asarray(ids, dtype=np.int64), ghost_ids]
    )
    if len(all_pos) < 5:
        return DelaunayBlock(
            gid=gid,
            tetrahedra=np.empty((0, 4), dtype=np.int64),
            circumcenters=np.empty((0, 3)),
            volumes=np.empty(0),
        )

    mesh = delaunay(all_pos)
    return _block_from_mesh(
        mesh, all_ids, decomposition, block_def, ghost, gid
    )


def _block_from_mesh(
    mesh,
    all_ids: np.ndarray,
    decomposition: Decomposition,
    block_def,
    ghost: float,
    gid: int,
    centers: np.ndarray | None = None,
) -> DelaunayBlock:
    """Certify, own, and dedup one block's tetrahedra from its local mesh.

    ``centers`` may pass precomputed circumcenters of ``mesh``'s tets (the
    dual-mode sharing path reuses the Voronoi engine's vertex pool);
    otherwise they are computed here.
    """
    # Periodic ghost images make many points exactly cospherical/coplanar;
    # Qhull then emits zero-volume slivers whose circumcenter system is
    # singular.  They can never be owned tets (a true periodic Delaunay
    # has no degenerate cells at generic sites) — drop them up front.
    vols_all = mesh.volumes()
    positive = vols_all[vols_all > 0]
    if len(positive) == 0:
        return DelaunayBlock(
            gid=gid,
            tetrahedra=np.empty((0, 4), dtype=np.int64),
            circumcenters=np.empty((0, 3)),
            volumes=np.empty(0),
        )
    vol_floor = 1e-9 * max(float(np.median(positive)), 1e-300)
    solid = vols_all > vol_floor
    mesh = type(mesh)(
        points=mesh.points,
        tetrahedra=mesh.tetrahedra[solid],
        neighbors=mesh.neighbors[solid],
    )
    if centers is None:
        centers = circumcenters(mesh)
    else:
        centers = centers[solid]
    d = centers - mesh.points[mesh.tetrahedra[:, 0]]
    radii = np.sqrt(np.einsum("ij,ij->i", d, d))

    # Certification: circumsphere inside the seen region (core + ghost).
    seen = block_def.ghost_bounds(ghost)
    lo, hi = seen.as_arrays()
    margin = np.minimum(centers - lo, hi - centers).min(axis=1)
    certified = radii <= margin + 1e-12

    # Ownership: circumcenter (periodically wrapped) inside the block core.
    wrapped = wrap_positions(centers, decomposition.domain)
    owned = decomposition.locate(wrapped) == gid

    keep = np.flatnonzero(certified & owned)
    tet_ids = all_ids[mesh.tetrahedra[keep]]
    # A block can see a tetrahedron twice — once directly and once as a
    # periodic image inside its ghost halo (both wrap-own here).  The
    # sorted global-id tuple is the canonical key (with cells far smaller
    # than the box, one id quadruple is one tetrahedron).
    canonical = np.sort(tet_ids, axis=1)
    _, first = np.unique(canonical, axis=0, return_index=True)
    first.sort()
    keep = keep[first]
    return DelaunayBlock(
        gid=gid,
        tetrahedra=all_ids[mesh.tetrahedra[keep]],
        circumcenters=centers[keep],
        volumes=mesh.volumes()[keep],
    )


def dual_distributed(
    comm: Communicator,
    decomposition: Decomposition,
    positions: np.ndarray,
    ids: np.ndarray,
    ghost: float,
    vmin: float | None = None,
    vmax: float | None = None,
    gid: int | None = None,
):
    """Both tessellation outputs from **one** triangulation per block.

    The Delaunay-direct Voronoi engine keeps its triangulation
    (:attr:`~repro.geometry.voronoi_delaunay.DelaunayVoronoi.mesh`) and
    its circumcenter pool, so the dual output mode costs one qhull call
    and one ghost exchange instead of two of each — the
    one-triangulation-per-block sharing contract (DESIGN.md §11).

    Returns ``(voronoi_block, delaunay_block)`` for this rank's block.
    """
    from ..geometry.voronoi_delaunay import DelaunayVoronoi
    from .tessellate import _block_from_flat

    gid = comm.rank if gid is None else gid
    block_def = decomposition.block(gid)

    ghost_pos, ghost_ids = exchange_ghost_particles(
        decomposition, comm, gid, positions, ids, ghost
    )
    own = np.atleast_2d(np.asarray(positions, dtype=float))
    all_pos = np.concatenate([own, ghost_pos]) if len(ghost_pos) else own
    all_ids = np.concatenate([np.asarray(ids, dtype=np.int64), ghost_ids])

    # Nothing is withheld here: a block owns every tet whose circumcenter
    # is in its core, ghost-only tets included, and the lazy path's
    # certificate (tessellate._thin_block) only speaks for owned stars.
    dv = DelaunayVoronoi(all_pos, block_def.ghost_bounds(ghost), n_owned=len(own))
    vblock, _ = _block_from_flat(
        dv, len(own), all_pos, all_ids, gid, block_def.core, vmin, vmax
    )
    if dv.num_tets == 0:
        dblock = DelaunayBlock(
            gid=gid,
            tetrahedra=np.empty((0, 4), dtype=np.int64),
            circumcenters=np.empty((0, 3)),
            volumes=np.empty(0),
        )
    else:
        dblock = _block_from_mesh(
            dv.mesh, all_ids, decomposition, block_def, ghost, gid,
            centers=dv.tet_circumcenters,
        )
    return vblock, dblock


def tessellate_delaunay(
    points: np.ndarray,
    domain: Bounds,
    nblocks: int = 1,
    ghost: float | None = None,
    ids: np.ndarray | None = None,
) -> DistributedDelaunay:
    """Standalone parallel Delaunay tetrahedralization of a periodic box.

    Mirrors :func:`repro.core.tessellate.tessellate` for the dual problem.
    With a sufficient ghost the owned tets exactly tile the box: their
    volumes sum to the domain volume and the tet set is independent of the
    block count.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 3:
        raise ValueError(f"points must be (n, 3), got {pts.shape}")
    if not np.all(domain.contains(pts)):
        raise ValueError("all points must lie inside the domain (wrap first)")
    pid = (
        np.arange(len(pts), dtype=np.int64)
        if ids is None
        else np.asarray(ids, dtype=np.int64)
    )
    if ghost is None:
        spacing = (domain.volume / max(len(pts), 1)) ** (1.0 / 3.0)
        ghost = 4.0 * spacing
    decomp = Decomposition.regular(domain, nblocks, periodic=True)

    def worker(comm: Communicator) -> DelaunayBlock:
        mine = decomp.locate(pts) == comm.rank
        return delaunay_distributed(
            comm, decomp, pts[mine], pid[mine], ghost=ghost
        )

    blocks = run_parallel(nblocks, worker)
    return DistributedDelaunay(domain=domain, blocks=blocks)
