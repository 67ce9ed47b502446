"""Native cell-based Voronoi construction (bisector clipping).

This is ``clip``, the reference the tests hold the production engine
(:mod:`repro.geometry.voronoi_delaunay`) to — it shares no code and no
library (no qhull) with it, and no production entry point selects it.
Each cell starts as the container box and is intersected with one
halfspace per nearby site — the perpendicular bisector between the cell's
own site and that neighbor — in increasing distance order.  Iteration
stops at the *security radius*: once the next candidate site is farther
than twice the distance from the site to the farthest current cell vertex,
no further bisector can cut the cell (Rycroft's Voro++ uses the same
criterion; the paper cites it as the prior shared-memory parallel Voronoi
implementation).

Every face of the resulting polyhedron carries the index of the neighbor
site whose bisector generated it (or a negative wall code if the container
box survived on that side).  A cell is **complete** when no wall faces
remain: its geometry is fully determined by real neighbors, so a larger
point set could not change it — the exact property tess needs to certify
cells computed from ghost-augmented local points (paper §III-C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ..diy.bounds import Bounds
from .polyhedron import ConvexPolyhedron
from .predicates import DEFAULT_REL_EPS

__all__ = ["VoronoiCellGeometry", "voronoi_cells_clip"]


@dataclass
class VoronoiCellGeometry:
    """Geometry of one Voronoi cell.

    Attributes
    ----------
    site:
        Index of the generating site in the input point array.
    polyhedron:
        The cell's polyhedron, or ``None`` when construction degenerated
        (coincident sites).  Incomplete cells still carry their (box-clipped
        or unbounded-truncated) polyhedron for diagnostics.
    complete:
        True when the cell is bounded entirely by real bisector faces, so
        its geometry cannot change if more distant sites were added.
    """

    site: int
    polyhedron: ConvexPolyhedron | None
    complete: bool

    @property
    def volume(self) -> float:
        """Cell volume (0.0 for degenerate cells)."""
        return 0.0 if self.polyhedron is None else self.polyhedron.volume()

    @property
    def surface_area(self) -> float:
        """Cell surface area (0.0 for degenerate cells)."""
        return 0.0 if self.polyhedron is None else self.polyhedron.surface_area()

    @property
    def neighbors(self) -> np.ndarray:
        """Indices of sites sharing a face with this cell."""
        if self.polyhedron is None:
            return np.empty(0, dtype=np.int64)
        return self.polyhedron.neighbor_ids()


def voronoi_cells_clip(
    points: np.ndarray,
    box: Bounds,
    sites: np.ndarray | None = None,
    rel_eps: float = DEFAULT_REL_EPS,
    initial_k: int = 32,
) -> list[VoronoiCellGeometry]:
    """Compute Voronoi cells for ``sites`` among ``points`` inside ``box``.

    Parameters
    ----------
    points:
        ``(n, 3)`` array of all sites (e.g. owned + ghost particles).
    box:
        Container; cells are clipped to it, and cells that retain a wall
        face are flagged incomplete.
    sites:
        Indices of the points whose cells to compute (default: all).
    rel_eps:
        Relative geometric tolerance.
    initial_k:
        First KD-tree query size; grows geometrically as needed.

    Returns
    -------
    list[VoronoiCellGeometry]
        One entry per requested site, in the order of ``sites``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (n, 3), got {pts.shape}")
    n = len(pts)
    if n == 0:
        return []
    site_idx = np.arange(n) if sites is None else np.asarray(sites, dtype=np.int64)

    tree = cKDTree(pts)
    container = ConvexPolyhedron.from_bounds(box)
    # Precompute |p|^2 once; the bisector offset is (|c|^2 - |s|^2) / 2.
    sq = np.einsum("ij,ij->i", pts, pts)

    out: list[VoronoiCellGeometry] = []
    for s in site_idx:
        out.append(_build_cell(int(s), pts, sq, tree, container, rel_eps, initial_k))
    return out


def _build_cell(
    s: int,
    pts: np.ndarray,
    sq: np.ndarray,
    tree: cKDTree,
    container: ConvexPolyhedron,
    rel_eps: float,
    initial_k: int,
) -> VoronoiCellGeometry:
    n = len(pts)
    site = pts[s]
    poly: ConvexPolyhedron | None = container
    k = min(n, max(2, initial_k))
    # Position in the sorted neighbor list.  Start at 0 — with coincident
    # sites the KD-tree may put a twin, not self, in the first slot.
    processed = 0

    while True:
        dists, idxs = tree.query(site, k=k)
        dists = np.atleast_1d(dists)
        idxs = np.atleast_1d(idxs)
        # Drop the inf padding scipy appends when k exceeds n.
        valid = np.isfinite(dists)
        dists, idxs = dists[valid], idxs[valid]

        done = False
        while processed < len(idxs):
            c = int(idxs[processed])
            d = float(dists[processed])
            processed += 1
            if c == s:
                continue  # duplicate-coordinate site can displace self from slot 0
            if d <= 0.0:
                # Coincident site: the bisector is ill-defined; declare the
                # cell degenerate rather than fabricating geometry.
                return VoronoiCellGeometry(site=s, polyhedron=None, complete=False)
            if poly is not None and d > 2.0 * poly.max_vertex_distance(site):
                done = True
                break
            normal = pts[c] - site
            offset = 0.5 * (sq[c] - sq[s])
            poly = poly.clip_halfspace(normal, offset, generator_id=c, rel_eps=rel_eps)
            if poly is None:
                # Numerically impossible for distinct sites (the site itself
                # always satisfies every kept halfspace) — treat defensively.
                return VoronoiCellGeometry(site=s, polyhedron=None, complete=False)

        if done or processed >= n:
            break
        k = min(n, k * 2)

    complete = poly is not None and not bool(poly.wall_face_mask().any())
    return VoronoiCellGeometry(site=s, polyhedron=poly, complete=complete)
