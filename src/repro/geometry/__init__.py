"""Computational-geometry kernels (the repo's "Qhull" substrate).

Provides convex hulls (native Quickhull and scipy/Qhull backends), convex
polyhedra with halfspace clipping, Delaunay duality helpers, and two
Voronoi constructions with different jobs: :class:`DelaunayVoronoi` is
the engine the tessellation pipeline runs, :func:`voronoi_cells_clip`
(KD-tree + bisector clipping, no qhull) the independent reference the
tests hold it to.  Everything downstream — tess's parallel tessellation
and the void analysis — builds on these kernels.
"""

from .convex_hull import Hull, convex_hull, merge_coplanar_triangles
from .delaunay import DelaunayMesh, circumcenters, circumradii, delaunay
from .polyhedron import WALL_IDS, ConvexPolyhedron
from .predicates import DEFAULT_REL_EPS, classify_against_plane, orient3d, scale_eps
from .voronoi_cells import VoronoiCellGeometry, voronoi_cells_clip
from .voronoi_delaunay import DelaunayVoronoi, tet_circumcenters

__all__ = [
    "Hull",
    "convex_hull",
    "merge_coplanar_triangles",
    "DelaunayMesh",
    "circumcenters",
    "circumradii",
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
