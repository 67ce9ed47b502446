"""Convex polyhedra with halfspace clipping.

:class:`ConvexPolyhedron` is the workhorse of the clip Voronoi reference
(:mod:`repro.geometry.voronoi_cells`): a Voronoi cell starts as the block's
ghost-extended bounding box and is cut down by one bisector halfspace per
relevant neighbor, Voro++-style.  Each face remembers the *generator id* of
the halfspace that produced it — a neighboring site index for bisector
faces, or a negative wall code for the initial box faces — which later
drives both completeness detection (a cell with any wall face may be
unbounded in truth) and cell adjacency for connected-component labeling.

Geometric robustness comes from tolerant vertex classification (see
:mod:`repro.geometry.predicates`) and from recomputing derived quantities
(volume, area) in an orientation-free way: face normals are re-oriented
against the centroid rather than trusting stored winding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..diy.bounds import Bounds
from .predicates import DEFAULT_REL_EPS, INSIDE, ON, OUTSIDE, scale_eps

__all__ = ["ConvexPolyhedron", "WALL_IDS"]

#: Generator ids of the six initial box walls (-1 .. -6):
#: (-x, +x, -y, +y, -z, +z).
WALL_IDS = (-1, -2, -3, -4, -5, -6)


@dataclass
class ConvexPolyhedron:
    """A closed convex polyhedron as vertices plus face cycles.

    Attributes
    ----------
    vertices:
        Float array of shape ``(nv, 3)``.
    faces:
        One integer index array per face, each an ordered cycle into
        ``vertices``.  Winding is not guaranteed consistent; all metric
        queries re-orient internally.
    face_ids:
        One generator id per face: the neighbor-site index whose bisector
        carved the face, or a negative wall code from :data:`WALL_IDS`.
    """

    vertices: np.ndarray
    faces: list[np.ndarray]
    face_ids: np.ndarray

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_bounds(cls, bounds: Bounds) -> "ConvexPolyhedron":
        """Axis-aligned box with wall faces tagged by :data:`WALL_IDS`."""
        if bounds.dim != 3:
            raise ValueError("ConvexPolyhedron requires 3D bounds")
        lo, hi = bounds.as_arrays()
        x0, y0, z0 = lo
        x1, y1, z1 = hi
        vertices = np.array(
            [
                [x0, y0, z0],  # 0
                [x1, y0, z0],  # 1
                [x1, y1, z0],  # 2
                [x0, y1, z0],  # 3
                [x0, y0, z1],  # 4
                [x1, y0, z1],  # 5
                [x1, y1, z1],  # 6
                [x0, y1, z1],  # 7
            ],
            dtype=float,
        )
        faces = [
            np.array([0, 3, 7, 4]),  # -x
            np.array([1, 2, 6, 5]),  # +x
            np.array([0, 1, 5, 4]),  # -y
            np.array([3, 2, 6, 7]),  # +y
            np.array([0, 1, 2, 3]),  # -z
            np.array([4, 5, 6, 7]),  # +z
        ]
        return cls(vertices=vertices, faces=faces, face_ids=np.array(WALL_IDS))

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def num_face_vertices(self) -> int:
        """Total vertex references across faces (connectivity size)."""
        return int(sum(len(f) for f in self.faces))

    def characteristic_scale(self) -> float:
        """Largest extent along any axis (for tolerance scaling)."""
        if len(self.vertices) == 0:
            return 1.0
        return float(np.max(self.vertices.max(axis=0) - self.vertices.min(axis=0)))

    def centroid(self) -> np.ndarray:
        """Mean of the vertices (inside the polyhedron by convexity)."""
        return self.vertices.mean(axis=0)

    def max_vertex_distance(self, point: np.ndarray) -> float:
        """Greatest distance from ``point`` to any vertex.

        This is the 'security radius' test of the clip Voronoi reference: a
        bisector with a site farther than twice this distance cannot cut the
        cell any further.
        """
        d = self.vertices - np.asarray(point, dtype=float)
        return float(np.sqrt(np.einsum("ij,ij->i", d, d).max()))

    def max_pairwise_vertex_distance(self) -> float:
        """Greatest distance between any two vertices (cell 'diameter').

        Used by the paper's conservative early volume cull: a cell kept only
        if this exceeds the diameter of the sphere circumscribing the
        threshold volume.
        """
        v = self.vertices
        if len(v) < 2:
            return 0.0
        # O(n^2) but n ~ 35 for Voronoi cells.
        diff = v[:, None, :] - v[None, :, :]
        return float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).max()))

    def wall_face_mask(self) -> np.ndarray:
        """Boolean mask of faces generated by the initial box walls."""
        return self.face_ids < 0

    def neighbor_ids(self) -> np.ndarray:
        """Generator ids of all non-wall faces (neighboring site indices)."""
        return self.face_ids[self.face_ids >= 0]

    # ------------------------------------------------------------------
    # metric quantities (orientation-free)
    # ------------------------------------------------------------------
    def _face_area_vectors(self) -> np.ndarray:
        """Per-face area vectors (Newell's method), arbitrary sign."""
        out = np.zeros((len(self.faces), 3))
        for i, face in enumerate(self.faces):
            pts = self.vertices[face]
            nxt = np.roll(pts, -1, axis=0)
            out[i] = 0.5 * np.cross(pts, nxt).sum(axis=0)
        return out

    def surface_area(self) -> float:
        """Total face area."""
        av = self._face_area_vectors()
        return float(np.sqrt(np.einsum("ij,ij->i", av, av)).sum())

    def face_areas(self) -> np.ndarray:
        """Area of each face, in face order."""
        av = self._face_area_vectors()
        return np.sqrt(np.einsum("ij,ij->i", av, av))

    def volume(self) -> float:
        """Volume by summing pyramids from the centroid over each face.

        Valid for convex polyhedra regardless of face winding: each pyramid
        height is taken as an absolute distance.
        """
        c = self.centroid()
        total = 0.0
        for face in self.faces:
            rel = self.vertices[face] - c
            # Fan-triangulate the face and sum signed tetrahedron volumes
            # with apex at the centroid: det(q0, qk, qk+1).  For a planar
            # face the terms share a sign, so abs of the sum is the pyramid
            # volume regardless of winding.
            cr = np.cross(rel[1:-1], rel[2:])
            total += abs(float((cr @ rel[0]).sum()))
        return total / 6.0

    def face_plane(self, face_index: int) -> tuple[np.ndarray, float]:
        """Outward plane ``(unit_normal, offset)`` of a face.

        Outward means pointing away from the centroid; for degenerate
        (near-zero-area) faces the Newell normal may vanish, in which case a
        zero vector is returned.
        """
        face = self.faces[face_index]
        pts = self.vertices[face]
        nxt = np.roll(pts, -1, axis=0)
        n = 0.5 * np.cross(pts, nxt).sum(axis=0)
        norm = np.linalg.norm(n)
        if norm == 0.0:
            return np.zeros(3), 0.0
        n = n / norm
        p0 = pts.mean(axis=0)
        if np.dot(n, p0 - self.centroid()) < 0:
            n = -n
        return n, float(np.dot(n, p0))

    def contains(self, point: np.ndarray, rel_eps: float = DEFAULT_REL_EPS) -> bool:
        """Tolerant point-in-polyhedron test."""
        p = np.asarray(point, dtype=float)
        eps = scale_eps(self.characteristic_scale(), rel_eps)
        for i in range(len(self.faces)):
            n, d = self.face_plane(i)
            if np.dot(n, p) > d + eps:
                return False
        return True

    # ------------------------------------------------------------------
    # clipping
    # ------------------------------------------------------------------
    def clip_halfspace(
        self,
        normal: np.ndarray,
        offset: float,
        generator_id: int,
        rel_eps: float = DEFAULT_REL_EPS,
    ) -> "ConvexPolyhedron | None":
        """Intersect with the halfspace ``normal . x <= offset``.

        Returns a new polyhedron (``self`` unchanged), or ``None`` if the
        intersection is empty.  If the plane does not cut the polyhedron the
        original object is returned unmodified (no copy).  The new cap face
        is tagged with ``generator_id``.
        """
        normal = np.asarray(normal, dtype=float)
        eps = scale_eps(self.characteristic_scale(), rel_eps)
        dist = self.vertices @ normal - offset
        code = np.zeros(len(dist), dtype=np.int8)
        code[dist < -eps] = INSIDE
        code[dist > eps] = OUTSIDE

        if not np.any(code == OUTSIDE):
            return self  # plane misses (or merely grazes) the polyhedron
        if not np.any(code == INSIDE):
            return None  # entirely on the discarded side

        new_vertices: list[np.ndarray] = []
        # Map original kept vertex index -> new index, and cut edge -> new index.
        vmap: dict[int, int] = {}
        emap: dict[tuple[int, int], int] = {}

        def keep_vertex(i: int) -> int:
            j = vmap.get(i)
            if j is None:
                j = len(new_vertices)
                new_vertices.append(self.vertices[i])
                vmap[i] = j
            return j

        def cut_edge(i: int, j: int) -> int:
            key = (i, j) if i < j else (j, i)
            k = emap.get(key)
            if k is None:
                t = dist[i] / (dist[i] - dist[j])
                p = self.vertices[i] + t * (self.vertices[j] - self.vertices[i])
                k = len(new_vertices)
                new_vertices.append(p)
                emap[key] = k
            return k

        new_faces: list[np.ndarray] = []
        new_ids: list[int] = []
        cap_vertex_ids: set[int] = set()

        for face, fid in zip(self.faces, self.face_ids):
            poly: list[int] = []
            n = len(face)
            for a in range(n):
                i, j = int(face[a]), int(face[(a + 1) % n])
                ci, cj = code[i], code[j]
                if ci != OUTSIDE:
                    poly.append(keep_vertex(i))
                    if ci == ON:
                        cap_vertex_ids.add(vmap[i])
                if (ci == INSIDE and cj == OUTSIDE) or (
                    ci == OUTSIDE and cj == INSIDE
                ):
                    k = cut_edge(i, j)
                    poly.append(k)
                    cap_vertex_ids.add(k)
            # Collapse consecutive duplicates that tolerant classification
            # can produce, then drop degenerate faces.
            dedup: list[int] = []
            for v in poly:
                if not dedup or dedup[-1] != v:
                    dedup.append(v)
            if len(dedup) > 1 and dedup[0] == dedup[-1]:
                dedup.pop()
            if len(dedup) >= 3:
                new_faces.append(np.array(dedup, dtype=np.int64))
                new_ids.append(int(fid))

        # Build the cap face on the cutting plane.
        if len(cap_vertex_ids) >= 3:
            cap = self._order_cap(
                np.array(sorted(cap_vertex_ids)), new_vertices, normal
            )
            new_faces.append(cap)
            new_ids.append(int(generator_id))

        if len(new_faces) < 4 or len(new_vertices) < 4:
            return None  # clipped to (near) nothing

        return ConvexPolyhedron(
            vertices=np.asarray(new_vertices),
            faces=new_faces,
            face_ids=np.asarray(new_ids, dtype=np.int64),
        )

    @staticmethod
    def _order_cap(
        ids: np.ndarray, vertices: list[np.ndarray], normal: np.ndarray
    ) -> np.ndarray:
        """Order cap vertices into a cycle around the plane normal."""
        pts = np.asarray([vertices[i] for i in ids])
        center = pts.mean(axis=0)
        # In-plane orthonormal basis.
        n = normal / np.linalg.norm(normal)
        a = np.array([1.0, 0.0, 0.0])
        if abs(np.dot(a, n)) > 0.9:
            a = np.array([0.0, 1.0, 0.0])
        u = np.cross(n, a)
        u /= np.linalg.norm(u)
        v = np.cross(n, u)
        rel = pts - center
        ang = np.arctan2(rel @ v, rel @ u)
        return ids[np.argsort(ang)]

    # ------------------------------------------------------------------
    def validate(self, rel_eps: float = 1e-6) -> None:
        """Sanity checks: closed, convex-ish, centroid interior.

        Intended for tests and debugging; raises ``ValueError`` on the first
        violated invariant.
        """
        if len(self.faces) != len(self.face_ids):
            raise ValueError("face_ids length mismatch")
        if len(self.faces) < 4:
            raise ValueError(f"too few faces: {len(self.faces)}")
        used = np.unique(np.concatenate([np.asarray(f) for f in self.faces]))
        if used.min() < 0 or used.max() >= len(self.vertices):
            raise ValueError("face index out of range")
        # Every edge must be shared by exactly two faces (closed 2-manifold).
        from collections import Counter

        edge_count: Counter = Counter()
        for face in self.faces:
            n = len(face)
            for a in range(n):
                i, j = int(face[a]), int(face[(a + 1) % n])
                edge_count[(min(i, j), max(i, j))] += 1
        bad = {e: c for e, c in edge_count.items() if c != 2}
        if bad:
            raise ValueError(f"non-manifold edges: {bad}")
        # Centroid inside all face planes.
        c = self.centroid()
        eps = scale_eps(self.characteristic_scale(), rel_eps)
        for i in range(len(self.faces)):
            n, d = self.face_plane(i)
            if np.dot(n, c) > d + eps:
                raise ValueError(f"centroid outside face {i}")
