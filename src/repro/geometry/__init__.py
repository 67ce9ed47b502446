"""Computational-geometry kernels (the repo's "Qhull" substrate).

Provides convex polyhedra with halfspace clipping, the Delaunay mesh the
DTFE estimator reads, and two
Voronoi constructions with different jobs: :class:`DelaunayVoronoi` is
the engine the tessellation pipeline runs, :func:`voronoi_cells_clip`
(KD-tree + bisector clipping, no qhull) the independent reference the
tests hold it to.  Everything downstream — tess's parallel tessellation
and the void analysis — builds on these kernels.
"""

from .delaunay import DelaunayMesh, delaunay
from .polyhedron import WALL_IDS, ConvexPolyhedron
from .predicates import DEFAULT_REL_EPS, classify_against_plane, orient3d, scale_eps
from .voronoi_cells import VoronoiCellGeometry, voronoi_cells_clip
from .voronoi_delaunay import DelaunayVoronoi, tet_circumcenters

__all__ = [
    "DelaunayMesh",
    "delaunay",
    "WALL_IDS",
    "ConvexPolyhedron",
    "DEFAULT_REL_EPS",
    "classify_against_plane",
    "orient3d",
    "scale_eps",
    "VoronoiCellGeometry",
    "voronoi_cells_clip",
    "DelaunayVoronoi",
    "tet_circumcenters",
]
