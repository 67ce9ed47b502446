"""Object-per-cell view of a tessellation, for the oracles and their tests.

Production has one cell representation, the CSR
:class:`~repro.core.data_model.VoronoiBlock`.  The clip reference
(:mod:`tests.clip_reference`) builds its cells one at a time, and the dict
oracles walk a block cell by cell; this module is the bridge between the
two: :class:`VoronoiCell` records, :func:`from_cells` to pool them into a
block, and :func:`block_cells` / :func:`faces_of_cell` /
:func:`neighbors_of_cell` to read a block back per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.data_model import VoronoiBlock, connectivity_index_dtype
from repro.diy.bounds import Bounds

__all__ = [
    "VoronoiCell",
    "from_cells",
    "block_cells",
    "tess_cells",
    "faces_of_cell",
    "neighbors_of_cell",
]


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
        """Unit-mass density: reciprocal of the cell volume (all particles
        have unit mass)."""
        return 1.0 / self.volume if self.volume > 0 else np.inf

    def real_neighbors(self) -> np.ndarray:
        """Global ids of neighboring particles (wall codes filtered out)."""
        return self.neighbor_ids[self.neighbor_ids >= 0]


def from_cells(
    gid: int,
    extents: Bounds,
    cells: list[VoronoiCell],
    dedup_decimals: int = 9,
) -> VoronoiBlock:
    """Assemble a block, deduplicating vertices shared between cells.

    Vertices are merged by rounded coordinates (``dedup_decimals``), which
    recovers the shared-vertex pool from cells built independently of one
    another.
    """
    vert_index: dict[tuple[float, ...], int] = {}
    vertices: list[np.ndarray] = []
    face_vertices: list[int] = []
    face_offsets = [0]
    face_neighbors: list[int] = []
    cell_face_offsets = [0]

    for cell in cells:
        local_map = np.empty(len(cell.vertices), dtype=np.int64)
        rounded = np.round(cell.vertices, dedup_decimals)
        for i, key_arr in enumerate(rounded):
            key = tuple(key_arr)
            j = vert_index.get(key)
            if j is None:
                j = len(vertices)
                vertices.append(cell.vertices[i])
                vert_index[key] = j
            local_map[i] = j
        for face, nb in zip(cell.faces, cell.neighbor_ids):
            face_vertices.extend(int(v) for v in local_map[face])
            face_offsets.append(len(face_vertices))
            face_neighbors.append(int(nb))
        cell_face_offsets.append(len(face_neighbors))

    idx_dtype = connectivity_index_dtype(max(len(face_vertices), len(vertices)))
    return VoronoiBlock(
        gid=gid,
        extents=extents,
        vertices=np.asarray(vertices) if vertices else np.empty((0, 3)),
        face_vertices=np.asarray(face_vertices, dtype=idx_dtype),
        face_offsets=np.asarray(face_offsets, dtype=idx_dtype),
        face_neighbors=np.asarray(face_neighbors, dtype=np.int64),
        cell_face_offsets=np.asarray(cell_face_offsets, dtype=idx_dtype),
        sites=np.asarray([c.site for c in cells]) if cells else np.empty((0, 3)),
        site_ids=np.asarray([c.site_id for c in cells], dtype=np.int64),
        volumes=np.asarray([c.volume for c in cells]),
        areas=np.asarray([c.area for c in cells]),
    )


def faces_of_cell(block: VoronoiBlock, i: int) -> list[np.ndarray]:
    """Vertex-index cycles of cell ``i`` (into the block vertex pool)."""
    off, cell_off = block.face_offsets, block.cell_face_offsets
    return [
        block.face_vertices[off[f] : off[f + 1]]
        for f in range(cell_off[i], cell_off[i + 1])
    ]


def neighbors_of_cell(block: VoronoiBlock, i: int) -> np.ndarray:
    """Global neighbor ids of cell ``i``, one per face."""
    return block.face_neighbors[
        block.cell_face_offsets[i] : block.cell_face_offsets[i + 1]
    ]


def block_cells(block: VoronoiBlock) -> list[VoronoiCell]:
    """Per-cell records of ``block`` (copies, each with its own vertex
    list)."""
    out = []
    for i in range(block.num_cells):
        faces_global = faces_of_cell(block, i)
        used = (
            np.unique(np.concatenate(faces_global))
            if faces_global
            else np.empty(0, np.int64)
        )
        remap = {int(v): j for j, v in enumerate(used)}
        faces = [
            np.asarray([remap[int(v)] for v in f], dtype=np.int64)
            for f in faces_global
        ]
        out.append(
            VoronoiCell(
                site_id=int(block.site_ids[i]),
                site=block.sites[i].copy(),
                vertices=block.vertices[used].copy(),
                faces=faces,
                neighbor_ids=neighbors_of_cell(block, i).copy(),
                volume=float(block.volumes[i]),
                area=float(block.areas[i]),
            )
        )
    return out


def tess_cells(tess) -> Iterator[VoronoiCell]:
    """Every cell of a :class:`~repro.core.tessellate.Tessellation`, block
    by block."""
    for block in tess.blocks:
        yield from block_cells(block)
