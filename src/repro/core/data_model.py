"""Block-level unstructured-mesh data model (paper §III-C2).

Each process maintains one :class:`VoronoiBlock` for the cells it owns.
Following the paper's data model, *vertices are listed once per block* and
integer indices connect vertices into faces and faces into cells.  In
memory a block holds:

* ``vertices``            (nv, 3) float64 — deduplicated block vertex pool
* ``face_vertices``       flat int32 — concatenated face vertex cycles
* ``face_offsets``        (nfaces + 1,) int32 — slice bounds per face
* ``face_neighbors``      (nfaces,) int64 — global particle id across each face
* ``cell_face_offsets``   (ncells + 1,) int32 — slice bounds per cell
* ``sites``               (ncells, 3) float64 — original particle locations
* ``site_ids``            (ncells,) int64
* ``volumes``/``areas``   (ncells,) float64

(the int32 arrays widen to int64 past 2**31 entries,
:func:`connectivity_index_dtype`).  This is the only cell representation:
cell ``i`` is row ``i`` of the per-cell columns and the face slice
``cell_face_offsets[i]:cell_face_offsets[i + 1]``, and everything else per
cell is derived from these columns.  On disk the connectivity is stored
narrower — counts instead of offsets, neighbour ids as deltas, every array
in the narrowest integer dtype its values need — and decoded back to
exactly these arrays; :mod:`repro.core.tess_io` owns that payload.

The byte accounting (:meth:`VoronoiBlock.size_report`) is of the in-memory
arrays; it reproduces the paper's observation that most of a
tessellation is mesh connectivity, not floating-point geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..diy.bounds import Bounds

__all__ = ["VoronoiBlock", "BlockSizeReport", "connectivity_index_dtype",
           "narrowest_int_dtype", "index_in_sorted", "isin_sorted"]


def narrowest_int_dtype(lo: int, hi: int, kind: str, floor: int = 1) -> np.dtype:
    """Narrowest integer dtype of ``kind`` (``"i"`` signed, ``"u"``
    unsigned), at least ``floor`` bytes wide, that holds ``[lo, hi]``."""
    for size in (1, 2, 4, 8):
        dtype = np.dtype(f"{kind}{size}")
        info = np.iinfo(dtype)
        if size >= floor and info.min <= lo and hi <= info.max:
            return dtype
    raise OverflowError(f"no {kind}-integer dtype holds [{lo}, {hi}]")


def connectivity_index_dtype(max_value: int) -> np.dtype:
    """In-memory dtype for connectivity indices up to ``max_value``.

    int32 for every realistic block; blocks whose vertex pool or
    face-vertex count reaches 2**31 entries widen to int64 instead of
    silently overflowing.
    """
    return narrowest_int_dtype(0, max_value, "i", floor=4)


def isin_sorted(values: np.ndarray, sorted_unique: np.ndarray) -> np.ndarray:
    """Membership mask of ``values`` in a *sorted, unique* int64 array.

    One ``searchsorted`` pass — the vectorized replacement for per-element
    ``x in set`` checks on the analysis hot paths.
    """
    values = np.asarray(values)
    if len(sorted_unique) == 0:
        return np.zeros(len(values), dtype=bool)
    pos = np.searchsorted(sorted_unique, values)
    pos[pos == len(sorted_unique)] = len(sorted_unique) - 1
    return sorted_unique[pos] == values


def index_in_sorted(
    values: np.ndarray, sorted_unique: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``values`` in a sorted, unique int64 array.

    Returns ``(pos, mask)``: ``pos[k]`` is the index of ``values[k]`` in
    ``sorted_unique`` wherever ``mask[k]`` is True (0 otherwise, safe for
    fancy indexing).  Particle ids are usually dense, so when the id span
    is comparable to the array length an O(1) inverse lookup table
    replaces the binary search — this is the membership kernel under the
    component-labeling hot path.
    """
    values = np.asarray(values, dtype=np.int64)
    sorted_unique = np.asarray(sorted_unique, dtype=np.int64)
    k = len(sorted_unique)
    if k == 0 or len(values) == 0:
        return (
            np.zeros(len(values), dtype=np.int64),
            np.zeros(len(values), dtype=bool),
        )
    lo = int(sorted_unique[0])
    span = int(sorted_unique[-1]) - lo + 1
    if span <= max(4 * k, 1 << 16):
        table = np.full(span, -1, dtype=np.int64)
        table[sorted_unique - lo] = np.arange(k, dtype=np.int64)
        pos = table[np.clip(values - lo, 0, span - 1)]
        mask = (values >= lo) & (values < lo + span) & (pos >= 0)
        pos[~mask] = 0
        return pos, mask
    pos = np.searchsorted(sorted_unique, values)
    pos[pos == k] = k - 1
    mask = sorted_unique[pos] == values
    pos[~mask] = 0
    return pos, mask


@dataclass(frozen=True)
class BlockSizeReport:
    """Byte breakdown of one block's serialized mesh."""

    geometry_bytes: int
    connectivity_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.geometry_bytes + self.connectivity_bytes

    @property
    def geometry_fraction(self) -> float:
        """Fraction of bytes holding floating-point geometry."""
        return self.geometry_bytes / self.total_bytes if self.total_bytes else 0.0


@dataclass
class VoronoiBlock:
    """All Voronoi cells owned by one block, in shared-vertex array form."""

    gid: int
    extents: Bounds
    vertices: np.ndarray
    face_vertices: np.ndarray
    face_offsets: np.ndarray
    face_neighbors: np.ndarray
    cell_face_offsets: np.ndarray
    sites: np.ndarray
    site_ids: np.ndarray
    volumes: np.ndarray
    areas: np.ndarray

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, gid: int, extents: Bounds) -> "VoronoiBlock":
        """A block that owns no cells."""
        idx = connectivity_index_dtype(0)
        return cls(
            gid=gid,
            extents=extents,
            vertices=np.empty((0, 3)),
            face_vertices=np.empty(0, dtype=idx),
            face_offsets=np.zeros(1, dtype=idx),
            face_neighbors=np.empty(0, dtype=np.int64),
            cell_face_offsets=np.zeros(1, dtype=idx),
            sites=np.empty((0, 3)),
            site_ids=np.empty(0, dtype=np.int64),
            volumes=np.empty(0),
            areas=np.empty(0),
        )

    @classmethod
    def from_rows(
        cls,
        gid: int,
        extents: Bounds,
        vertex_pool: np.ndarray,
        face_vertices: np.ndarray,
        face_lengths: np.ndarray,
        face_neighbors: np.ndarray,
        cell_face_counts: np.ndarray,
        sites: np.ndarray,
        site_ids: np.ndarray,
        volumes: np.ndarray,
        areas: np.ndarray,
    ) -> "VoronoiBlock":
        """Assemble a block from concatenated per-cell rows.

        ``face_vertices`` indexes ``vertex_pool``; the pool is compacted to
        the vertices actually referenced (pool order kept).  Connectivity
        indices stay int32 while they fit and widen to int64 beyond 2**31
        entries (silent wraparound otherwise).
        """
        used = np.zeros(len(vertex_pool), dtype=bool)
        used[face_vertices] = True
        idx_dtype = connectivity_index_dtype(
            max(len(face_vertices), int(used.sum()))
        )
        renumber = np.cumsum(used) - 1

        def offsets(lengths):
            return np.concatenate([[0], np.cumsum(lengths)]).astype(idx_dtype)

        return cls(
            gid=gid,
            extents=extents,
            vertices=vertex_pool[used],
            face_vertices=renumber[face_vertices].astype(idx_dtype),
            face_offsets=offsets(face_lengths),
            face_neighbors=np.asarray(face_neighbors, dtype=np.int64),
            cell_face_offsets=offsets(cell_face_counts),
            sites=sites,
            site_ids=site_ids,
            volumes=volumes,
            areas=areas,
        )

    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return len(self.site_ids)

    @property
    def num_faces(self) -> int:
        return len(self.face_neighbors)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    # ------------------------------------------------------------------
    # statistics used by the paper's data-model discussion
    # ------------------------------------------------------------------
    def faces_per_cell(self) -> float:
        """Mean faces per cell (paper: ~15 in HACC runs)."""
        return self.num_faces / self.num_cells if self.num_cells else 0.0

    def vertices_per_face(self) -> float:
        """Mean vertices per face (paper: ~5)."""
        return len(self.face_vertices) / self.num_faces if self.num_faces else 0.0

    def vertex_sharing(self) -> float:
        """Mean number of faces referencing each pooled vertex."""
        return len(self.face_vertices) / self.num_vertices if self.num_vertices else 0.0

    def size_report(self) -> BlockSizeReport:
        """Byte breakdown: float geometry vs integer connectivity."""
        geometry = (
            self.vertices.nbytes
            + self.sites.nbytes
            + self.volumes.nbytes
            + self.areas.nbytes
        )
        connectivity = (
            self.face_vertices.nbytes
            + self.face_offsets.nbytes
            + self.face_neighbors.nbytes
            + self.cell_face_offsets.nbytes
            + self.site_ids.nbytes
        )
        return BlockSizeReport(geometry, connectivity)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flatten to named arrays for :func:`repro.diy.mpi_io.pack_arrays`."""
        lo, hi = self.extents.as_arrays()
        return {
            "gid": np.asarray([self.gid], dtype=np.int64),
            "extents": np.stack([lo, hi]),
            "vertices": self.vertices,
            "face_vertices": self.face_vertices,
            "face_offsets": self.face_offsets,
            "face_neighbors": self.face_neighbors,
            "cell_face_offsets": self.cell_face_offsets,
            "sites": self.sites,
            "site_ids": self.site_ids,
            "volumes": self.volumes,
            "areas": self.areas,
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "VoronoiBlock":
        """Inverse of :meth:`to_arrays`."""
        ext = arrays["extents"]
        return cls(
            gid=int(arrays["gid"][0]),
            extents=Bounds.from_arrays(ext[0], ext[1]),
            vertices=arrays["vertices"],
            face_vertices=arrays["face_vertices"],
            face_offsets=arrays["face_offsets"],
            face_neighbors=arrays["face_neighbors"],
            cell_face_offsets=arrays["cell_face_offsets"],
            sites=arrays["sites"],
            site_ids=arrays["site_ids"],
            volumes=arrays["volumes"],
            areas=arrays["areas"],
        )
