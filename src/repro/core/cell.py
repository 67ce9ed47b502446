"""The per-cell record produced by the parallel tessellation.

A :class:`VoronoiCell` is the tessellation-level view of one Voronoi cell:
geometry plus *global* identity — the generating particle's
simulation-wide id and, per face, the global id of the neighboring particle
(or a negative wall code).  Global ids are what make cells from different
blocks stitchable: connected-component labeling and accuracy comparison both
key on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["VoronoiCell"]


@dataclass
class VoronoiCell:
    """One complete Voronoi cell owned by some block.

    Attributes
    ----------
    site_id:
        Global id of the generating particle.
    site:
        Position of the generating particle, shape ``(3,)``.
    vertices:
        Cell vertex coordinates, shape ``(nv, 3)``.
    faces:
        Ordered vertex-index cycles, one per face.
    neighbor_ids:
        Per-face global particle id of the site across that face (negative
        wall codes only appear on incomplete cells, which tess deletes
        before building blocks).
    volume, area:
        Exact cell volume and surface area.
    """

    site_id: int
    site: np.ndarray
    vertices: np.ndarray
    faces: list[np.ndarray]
    neighbor_ids: np.ndarray
    volume: float
    area: float

    @property
    def num_faces(self) -> int:
        """Number of faces."""
        return len(self.faces)

    @property
    def num_vertices(self) -> int:
        """Number of distinct vertices."""
        return len(self.vertices)

    @property
    def density(self) -> float:
        """Unit-mass density: reciprocal of the cell volume (paper eq. 2
        context: all particles have unit mass)."""
        return 1.0 / self.volume if self.volume > 0 else np.inf

    def real_neighbors(self) -> np.ndarray:
        """Global ids of neighboring particles (wall codes filtered out)."""
        return self.neighbor_ids[self.neighbor_ids >= 0]
