"""Delaunay tetrahedralization.

The paper notes (§II-B) that the Delaunay tessellation is simply the dual of
the Voronoi diagram: Delaunay cells have input points at their vertices,
Voronoi cells contain them in their interiors, and each Voronoi vertex is
the circumcenter of a Delaunay tetrahedron
(:attr:`repro.geometry.voronoi_delaunay.DelaunayVoronoi.vertices`).  This module
exposes the Delaunay side — the star volumes the DTFE density estimator in
:mod:`repro.analysis.dtfe` divides by.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DelaunayMesh", "delaunay"]


@dataclass(frozen=True)
class DelaunayMesh:
    """A Delaunay tetrahedralization.

    Attributes
    ----------
    points:
        The generating points.
    tetrahedra:
        ``(m, 4)`` indices into ``points``.
    neighbors:
        ``(m, 4)`` indices of the tetrahedron opposite each vertex, or -1 on
        the convex-hull boundary (scipy convention).
    """

    points: np.ndarray
    tetrahedra: np.ndarray
    neighbors: np.ndarray

    @property
    def num_tetrahedra(self) -> int:
        return len(self.tetrahedra)

    def volumes(self) -> np.ndarray:
        """Signed-made-positive volume of every tetrahedron."""
        p = self.points
        a = p[self.tetrahedra[:, 0]]
        b = p[self.tetrahedra[:, 1]]
        c = p[self.tetrahedra[:, 2]]
        d = p[self.tetrahedra[:, 3]]
        return np.abs(np.einsum("ij,ij->i", np.cross(b - a, c - a), d - a)) / 6.0

    def vertex_star_volumes(self) -> np.ndarray:
        """Per-point sum of adjacent tetrahedron volumes (contiguous hull).

        This is the denominator of the Delaunay Tessellation Field Estimator
        (DTFE, Schaap 2007): the density estimate at a point is
        ``4 / (star volume)`` in 3D.
        """
        # column-major: each sum in the order of one np.add.at per column
        return np.bincount(
            self.tetrahedra.T.ravel(),
            weights=np.tile(self.volumes(), 4),
            minlength=len(self.points),
        )


def delaunay(points: np.ndarray) -> DelaunayMesh:
    """Delaunay tetrahedralization of 3D points (Qhull via scipy)."""
    from scipy.spatial import Delaunay

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (n, 3), got {pts.shape}")
    tri = Delaunay(pts)
    return DelaunayMesh(
        points=pts,
        tetrahedra=tri.simplices.astype(np.int64),
        neighbors=tri.neighbors.astype(np.int64),
    )

