"""Minkowski functionals of connected components (plugin filter #4).

The four basic functionals the paper computes (§III-D, citing SURFGEN
[Sheth et al. 2002]) for each connected component of Voronoi cells:

* **volume** V — sum of member cell volumes;
* **surface area** S — area of the component's boundary surface (faces
  whose neighbor cell is not in the component);
* **integrated mean curvature** C — for a polyhedral surface,
  ``C = (1/2) sum_e len_e * alpha_e`` over boundary edges, where
  ``alpha_e`` is the signed exterior dihedral angle (positive at convex
  edges, negative at concave ones);
* **Euler characteristic** chi = V - E + F of the boundary surface, with
  genus ``g = 1 - chi/2`` (per closed surface; summed over shells).

From these, the Sahni-Sathyaprakash-Shandarin *shapefinders*:
thickness ``T = 3V/S``, breadth ``B = S/C``, length ``L = C/(4 pi)``
(all equal to R for a sphere of radius R), used to classify voids,
filaments, and walls.

The kernel is flat: every step is a whole-array operation on CSR
connectivity, with no loop over cells, faces or edges.  It reads the
sub-meshes of the parts — a rank's block in situ, or every block of a
tessellation — joined in block order: the member cells and those of
their faces that can bound a component or cross the seam.

1. Cells are labelled with one sorted lookup against the labeling;
   boundary faces are those whose neighbor is absent (``< 0``) or carries
   another label.
2. Area vectors and centres of the boundary faces come from segmented
   (``np.add.reduceat``) Newell sums; zero-area sliver faces are dropped.
3. Vertices are welded across faces and blocks by quantising their
   coordinates to integers at 1e-8.  One ``np.lexsort`` over the
   ``(component, qx, qy, qz)`` int64 columns orders the rows; a run-start
   mask on the sorted rows marks each distinct vertex, and its cumulative
   sum, scattered back through the sort order, is every row's welded id.
   The ids come out in lexicographic row order, and no key is packed, so
   any key range (negative on non-periodic axes) is exact.
4. Edges become packed ``lo * nv + hi`` keys of welded vertex ids (the
   ids are per component, so the key carries the component); an edge seen
   exactly twice gets the dihedral term, any other multiplicity is a
   non-manifold contact and is skipped.
5. ``np.bincount`` reduces faces, vertices, edges and dihedral terms per
   component.

Periodic seam: the same Voronoi vertex appears at ``x = lo - e`` in one
cell and ``x = hi - e`` in its neighbor across the box.  An axis counts as
periodic when a face between two cells of one component crosses the box
on it: the site reflected through the face plane lands a box length away
from the neighbor site, which no non-periodic tessellation can show.  On
such axes vertex keys are taken modulo the box, and the convexity test's
face-centre offset by minimum image.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence

import numpy as np

from .. import observe
from ..core.data_model import VoronoiBlock, connectivity_index_dtype, index_in_sorted
from ..core.tessellate import Tessellation
from ..diy.bounds import Bounds, minimum_image
from ..geometry.voronoi_delaunay import segment_gather
from .components import ComponentLabeling

__all__ = ["MinkowskiFunctionals", "minkowski_functionals"]

#: vertex welding resolution, as ``np.round(x, 8)``
_KEY_DECIMALS = 8
_KEY_SCALE = 10.0**_KEY_DECIMALS


@dataclass(frozen=True)
class MinkowskiFunctionals:
    """Functionals and shapefinders of one connected component."""

    label: int
    num_cells: int
    volume: float
    surface_area: float
    mean_curvature: float
    euler_characteristic: int
    genus: float
    num_boundary_faces: int

    @property
    def thickness(self) -> float:
        """Shapefinder T = 3V/S."""
        return 3.0 * self.volume / self.surface_area if self.surface_area else np.nan

    @property
    def breadth(self) -> float:
        """Shapefinder B = S/C (NaN when the curvature is nonpositive)."""
        if self.mean_curvature <= 0:
            return np.nan
        return self.surface_area / self.mean_curvature

    @property
    def length(self) -> float:
        """Shapefinder L = C/(4 pi)."""
        if self.mean_curvature <= 0:
            return np.nan
        return self.mean_curvature / (4.0 * np.pi)

    def as_row(self) -> dict[str, float]:
        """Printable row for the plugin-style report."""
        return {
            "label": self.label,
            "cells": self.num_cells,
            "V": self.volume,
            "S": self.surface_area,
            "C": self.mean_curvature,
            "chi": self.euler_characteristic,
            "genus": self.genus,
            "T": self.thickness,
            "B": self.breadth,
            "L": self.length,
        }


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product."""
    return (a * b).sum(axis=-1)


def _norm(a: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean norm."""
    return np.sqrt((a * a).sum(axis=-1))


def _cycles(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment starts of concatenated vertex cycles and, per vertex, the
    index of its successor on its cycle."""
    starts = np.cumsum(lengths) - lengths
    nxt = np.arange(1, int(lengths.sum()) + 1)
    nxt[starts + lengths - 1] = starts
    return starts, nxt


def _newell(pts: np.ndarray, starts: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Area vector of each face: half its Newell sum."""
    return 0.5 * np.add.reduceat(np.cross(pts, pts[nxt]), starts)


def _labels(ids: np.ndarray, labeling: ComponentLabeling) -> np.ndarray:
    """Component label of each id, -1 where the labeling lacks it."""
    pos, found = index_in_sorted(ids, labeling.site_ids)
    return np.where(found, labeling.labels[pos], -1)


@dataclass(frozen=True)
class _Mesh:
    """Member cells and the faces of theirs the kernel reads, as CSR with
    a compacted vertex pool: one part's (:meth:`part`), or every part's
    side by side (:meth:`join`)."""

    domain: Bounds
    ids: np.ndarray
    sites: np.ndarray
    volumes: np.ndarray
    cell_faces: np.ndarray
    face_lengths: np.ndarray
    face_neighbors: np.ndarray
    face_vertices: np.ndarray
    vertices: np.ndarray

    @classmethod
    def part(
        cls, blocks: Sequence[VoronoiBlock], key: np.ndarray, domain: Bounds,
        lookup: tuple[np.ndarray, ...] | None = None,
    ) -> "_Mesh":
        """The sub-mesh of the cells of ``blocks`` with ``key >= 0`` (one
        key per cell, in block order; adjacent cells of one key must be of
        one component).  A member's face is dropped when its neighbour is
        a same-key cell here and the two sites do not straddle the box
        (the ``far`` test of :func:`_seam_axes`): it is interior to the
        component wherever the parts are joined.  ``lookup`` is the
        neighbour lookup :func:`~repro.analysis.components._local_rows`
        made over ``blocks``, when it covers the members' faces."""
        whole = cls.join(
            [
                cls(domain, b.site_ids, b.sites, b.volumes,
                    np.diff(b.cell_face_offsets), np.diff(b.face_offsets),
                    b.face_neighbors, b.face_vertices, b.vertices)
                for b in blocks or [VoronoiBlock.empty(0, domain)]
            ]
        )
        ids, sites, owner = whole.ids, whole.sites, whole.face_owner
        if lookup is None:  # the cell of each face's neighbour here, or -1
            order = np.argsort(ids, kind="stable")
            pos, found = index_in_sorted(whole.face_neighbors, ids[order])
            across = np.where(found, order[pos], -1)
        else:
            looked, here, cell = lookup
            across = np.full(len(owner), -1)
            across[np.flatnonzero(looked)[here]] = cell[here]
        own = key[owner]
        sent = own >= 0
        inner = np.flatnonzero(sent & (across >= 0) & (key[across] == own))
        apart = np.abs(sites[across[inner]] - sites[owner[inner]]) > domain.sizes / 2
        sent[inner[~apart.any(axis=1)]] = False
        sent = np.flatnonzero(sent)
        lengths = whole.face_lengths
        gathered = whole.face_vertices[
            segment_gather((np.cumsum(lengths) - lengths)[sent], lengths[sent])
        ]
        used = np.zeros(len(whole.vertices), dtype=bool)
        used[gathered] = True
        member = key >= 0
        return cls(
            domain=domain,
            ids=ids[member],
            sites=sites[member],
            volumes=whole.volumes[member],
            cell_faces=np.bincount(owner[sent], minlength=len(ids))[member],
            face_lengths=lengths[sent],
            face_neighbors=whole.face_neighbors[sent],
            face_vertices=(np.cumsum(used) - 1)[gathered].astype(
                connectivity_index_dtype(len(used))
            ),
            vertices=whole.vertices[used],
        )

    @classmethod
    def join(cls, parts: Sequence["_Mesh"]) -> "_Mesh":
        """The parts side by side, in order."""
        cat = {
            f.name: np.concatenate([getattr(p, f.name) for p in parts])
            for f in fields(cls)[1:]
        }
        pool = np.cumsum([0] + [len(p.vertices) for p in parts])
        cat["face_vertices"] = np.concatenate(
            [p.face_vertices.astype(np.int64) + o for p, o in zip(parts, pool)]
        )
        return cls(domain=parts[0].domain, **cat)

    @cached_property
    def face_owner(self) -> np.ndarray:
        """Cell index of each face."""
        return np.repeat(np.arange(len(self.ids)), self.cell_faces)

    def face_points(self, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated vertex cycles of ``faces`` and their lengths."""
        lengths = self.face_lengths[faces]
        starts = (np.cumsum(self.face_lengths) - self.face_lengths)[faces]
        return self.vertices[self.face_vertices[segment_gather(starts, lengths)]], lengths


def _seam_axes(mesh: _Mesh, faces: np.ndarray) -> np.ndarray:
    """Axes on which one of ``faces`` — each between two cells of one
    component — crosses the periodic box (see the module docstring)."""
    order = np.argsort(mesh.ids, kind="stable")
    pos, found = index_in_sorted(mesh.face_neighbors[faces], mesh.ids[order])
    faces = faces[found]
    other = mesh.sites[order[pos[found]]]
    site = mesh.sites[mesh.face_owner[faces]]
    half = mesh.domain.sizes / 2
    far = (np.abs(other - site) > half).any(axis=1)
    faces, other, site = faces[far], other[far], site[far]
    pts, lengths = mesh.face_points(faces)
    starts, nxt = _cycles(lengths)
    area_vec = _newell(pts, starts, nxt)
    n = area_vec / _norm(area_vec)[:, None]
    center = np.add.reduceat(pts, starts) / lengths[:, None]
    mirror = site + 2.0 * _dot(center - site, n)[:, None] * n
    return (np.abs(mirror - other) > half).any(axis=0)


def _weld_keys(pts: np.ndarray, domain: Bounds, periodic: np.ndarray) -> np.ndarray:
    """Integer vertex keys at the welding resolution, canonical modulo
    the box on periodic axes."""
    lo, _ = domain.as_arrays()
    size = domain.sizes
    x = np.where(periodic, np.mod(pts - lo, size), pts)
    keys = np.rint(x * _KEY_SCALE).astype(np.int64)
    wrap = np.rint(size * _KEY_SCALE).astype(np.int64)
    keys[:, periodic] %= wrap[periodic]
    return keys


def _weld(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an int64 ``(n, k)`` array, in lexicographic order,
    and per row the index of its distinct row.

    One ``np.lexsort`` over the columns (first column most significant),
    a run-start mask on the sorted rows and a cumulative sum: the same
    rows and inverse as ``np.unique(rows, axis=0, return_inverse=True)``,
    which sorts the rows as one structured dtype with a generic
    comparator and costs several times more.
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    start = np.ones(len(rows), dtype=bool)
    start[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    vid = np.empty(len(rows), dtype=np.int64)
    vid[order] = np.cumsum(start) - 1
    return ordered[start], vid


def minkowski_functionals(
    tess: Tessellation, labeling: ComponentLabeling
) -> list[MinkowskiFunctionals]:
    """Compute functionals for every component of ``labeling``: the
    kernel on one part holding every block of ``tess``, keyed by label.

    The boundary surface is assembled across blocks by welding Voronoi
    vertices on quantised coordinates: the same vertex appears bitwise
    (or near-bitwise) identically in adjacent blocks, and modulo the box
    across the periodic seam.
    """
    if labeling.num_components == 0:
        return []
    key = _labels(tess.site_ids(), labeling)
    return _functionals(
        _Mesh.join([_Mesh.part(tess.blocks, key, tess.domain)]), labeling
    )


def _functionals(
    mesh: _Mesh, labeling: ComponentLabeling
) -> list[MinkowskiFunctionals]:
    """The kernel: functionals of every component of ``labeling`` from
    the joined sub-meshes of every part (steps 1-5 of the module
    docstring)."""
    ncomp = labeling.num_components
    if ncomp == 0:
        return []

    # 1. labels, volumes, boundary faces
    cell_label = _labels(mesh.ids, labeling)
    member = cell_label >= 0
    volume = np.bincount(
        cell_label[member], weights=mesh.volumes[member], minlength=ncomp
    )
    num_cells = np.bincount(cell_label[member], minlength=ncomp)
    own = cell_label[mesh.face_owner]
    across = _labels(mesh.face_neighbors, labeling)
    periodic = _seam_axes(mesh, np.flatnonzero((own >= 0) & (across == own)))
    faces = np.flatnonzero((own >= 0) & (across != own))

    # 2. face geometry; zero-area sliver faces are dropped
    pts, lengths = mesh.face_points(faces)
    starts, nxt = _cycles(lengths)
    area_vec = _newell(pts, starts, nxt)
    norm = _norm(area_vec)
    keep = norm != 0.0
    if not keep.all():
        pts = pts[np.repeat(keep, lengths)]
        faces, lengths = faces[keep], lengths[keep]
        area_vec, norm = area_vec[keep], norm[keep]
        starts, nxt = _cycles(lengths)
    normal = area_vec / norm[:, None]
    center = np.add.reduceat(pts, starts) / lengths[:, None]
    normal[_dot(normal, center - mesh.sites[mesh.face_owner[faces]]) < 0] *= -1.0
    face_comp = own[faces]
    rounded = np.round(pts, _KEY_DECIMALS)
    area = _norm(_newell(rounded, starts, nxt))

    # 3. weld vertices per component
    vert_comp = np.repeat(face_comp, lengths)
    welded, vid = _weld(
        np.column_stack([vert_comp, _weld_keys(pts, mesh.domain, periodic)])
    )

    # 4. pair edges on packed keys; the stable sort keeps occurrences in
    # face order, so each pair's first member is the edge's first sighting
    key = np.minimum(vid, vid[nxt]) * len(welded) + np.maximum(vid, vid[nxt])
    order = np.argsort(key, kind="stable")
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[order[1:]] != key[order[:-1]]
    run = np.flatnonzero(new)
    run_len = np.diff(np.append(run, len(key)))
    pair = run[run_len == 2]
    by_first = np.argsort(order[pair])
    first, second = order[pair][by_first], order[pair + 1][by_first]

    face_of = np.repeat(np.arange(len(faces)), lengths)
    n1, n2 = normal[face_of[first]], normal[face_of[second]]
    ends = rounded[nxt[first]]
    length = _norm(ends - rounded[first])
    offset = center[face_of[second]] - 0.5 * (rounded[first] + ends)
    offset = np.where(periodic, minimum_image(offset, mesh.domain), offset)
    ang = np.arccos(np.clip(_dot(n1, n2), -1.0, 1.0))
    # convex edge: the other face's centre lies below this face's plane
    dihedral = 0.5 * length * np.where(_dot(n1, offset) < 0.0, ang, -ang)

    # 5. per-component reductions
    surface = np.bincount(face_comp, weights=area, minlength=ncomp)
    curvature = np.bincount(vert_comp[first], weights=dihedral, minlength=ncomp)
    num_faces = np.bincount(face_comp, minlength=ncomp)
    chi = (
        np.bincount(welded[:, 0], minlength=ncomp)
        - np.bincount(vert_comp[order[run]], minlength=ncomp)
        + num_faces
    )
    if observe.enabled():
        reg = observe.registry()
        reg.counter("analysis.minkowski.boundary_faces").inc(len(faces))
        reg.counter("analysis.minkowski.welded_vertices").inc(len(welded))
        reg.counter("analysis.minkowski.nonmanifold_edges").inc(
            int((run_len != 2).sum())
        )
    return [
        MinkowskiFunctionals(
            label=comp,
            num_cells=int(num_cells[comp]),
            volume=float(volume[comp]),
            surface_area=float(surface[comp]),
            mean_curvature=float(curvature[comp]),
            euler_characteristic=int(chi[comp]),
            genus=1.0 - int(chi[comp]) / 2.0,
            num_boundary_faces=int(num_faces[comp]),
        )
        for comp in range(ncomp)
    ]
