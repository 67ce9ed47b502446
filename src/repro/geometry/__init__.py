"""Computational-geometry kernels (the repo's "Qhull" substrate).

:class:`DelaunayVoronoi` is the one Voronoi engine: the tessellation
pipeline runs it on every block, from one native Delaunay triangulation.
:func:`delaunay` gives the Delaunay mesh the DTFE estimator reads.  The
independent clip reference the tests hold the engine to (KD-tree +
bisector clipping, no qhull) lives with the tests, in
``tests/clip_voronoi.py``.
"""

from .delaunay import DelaunayMesh, delaunay
from .voronoi_delaunay import DelaunayVoronoi, tet_circumcenters

__all__ = [
    "DelaunayMesh",
    "delaunay",
    "DelaunayVoronoi",
    "tet_circumcenters",
]
