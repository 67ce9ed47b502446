"""Voronoi cells by NumPy passes: the oracle of the kernel's ``dt_cells``.

The engine (:class:`repro.geometry.voronoi_delaunay.DelaunayVoronoi`)
takes every array of its diagram from one compiled pass over its
triangulation (:meth:`repro._native.Triangulation.cells`).
:func:`voronoi_cells_reference` computes the same arrays from a
triangulation's ``(tets, neighbors, duplicates)`` one step at a time, as
the engine's module docstring lists them:

* circumcenters by Cramer's rule, each tet's vertices in index order,
  in the kernel's operation order;
* rings: the 6m (edge, tet) incidences grouped by edge key
  ``lo * n + hi``, each ring's tets ascending, edges with no owned end
  and hull edges left out;
* each ring ordered by angle around its site pair, a vertex within the
  coincidence tolerance of its cyclic predecessor merged, a ring left
  with fewer than three vertices dropped, and its Newell area summed
  edge by edge;
* bisector-pyramid volumes and areas, completeness, and the per-site
  ridge CSR.

It runs on any triangulation: the kernel's own
(:func:`reference_diagram`), where numbering, ring order and merges must
agree exactly, or qhull's, an independent triangulator.  It is slow (one
Python step per ring); it is meant for the tests.
"""

from __future__ import annotations

import numpy as np

from repro import _native
from repro.geometry.voronoi_delaunay import (
    _COINCIDENT_RTOL,
    DelaunayVoronoi,
    _lstsq_fixup,
)

_TET_EDGES = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
#: the face opposite each tet vertex (``neighbors[t, k]`` is across it)
_TET_FACES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
_FACE_EDGES = np.array([[0, 1], [0, 2], [1, 2]])


def circumcenters(points: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Cramer's rule on ``center - a`` in the order ``circumcenter`` in
    ``voronoi_kernels.c`` takes (products, then one reciprocal of the
    determinant); exactly singular slivers re-solved by least squares."""
    a = points[tets[:, 0]]
    r0, r1, r2 = (points[tets[:, k]] - a for k in (1, 2, 3))
    b0, b1, b2 = (
        0.5 * (r[:, 0] * r[:, 0] + r[:, 1] * r[:, 1] + r[:, 2] * r[:, 2])
        for r in (r0, r1, r2)
    )
    c23, c31, c12 = np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)
    det = r0[:, 0] * c23[:, 0] + r0[:, 1] * c23[:, 1] + r0[:, 2] * c23[:, 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / det
        centers = (
            b0[:, None] * c23 + b1[:, None] * c31 + b2[:, None] * c12
        ) * inv[:, None] + a
    _lstsq_fixup(centers, points, tets, ~np.isfinite(centers).all(axis=1))
    return centers


def _ordered_ring(p, q, centers, ring, eps):
    """``ring``'s tets by angle around the axis ``p -> q`` (from the
    centroid of their circumcenters), less each one within ``eps`` of its
    cyclic predecessor, and the Newell area of what is left."""
    axis = (q - p) / np.linalg.norm(q - p)
    helper = np.array([0.0, 1.0, 0.0] if abs(axis[0]) > 0.9 else [1.0, 0.0, 0.0])
    u = np.cross(axis, helper)
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    rel = centers[ring] - centers[ring].mean(axis=0)
    ring = ring[np.argsort(np.arctan2(rel @ v, rel @ u), kind="stable")]
    c = centers[ring]
    step = c - np.roll(c, 1, axis=0)
    ring = ring[np.einsum("ij,ij->i", step, step) > eps * eps]
    if len(ring) < 3:
        return ring, 0.0
    c = centers[ring]
    normal = np.cumsum(np.cross(c, np.roll(c, -1, axis=0)), axis=0)[-1]
    return ring, 0.5 * np.sqrt(normal @ normal)


def voronoi_cells_reference(points, tets, nbrs, duplicates, owned, box) -> dict:
    """Every array of ``DelaunayVoronoi`` by name, as
    :meth:`repro._native.Triangulation.cells` returns them, from the
    triangulation ``(tets, nbrs)`` of ``points``; ``duplicates`` holds
    one ``(point, -, representative)`` row per site left out of it,
    ``owned`` is a bool mask or ``None`` and ``box`` the container."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    tets = np.asarray(tets, dtype=np.int64)
    nbrs = np.asarray(nbrs, dtype=np.int64)
    n, m = len(pts), len(tets)
    lo, hi = box.as_arrays()
    eps = _COINCIDENT_RTOL * float(np.linalg.norm(hi - lo))
    centers = circumcenters(pts, np.sort(tets, axis=1))

    # rings: (edge, tet) incidences in edge-key order, tets ascending
    ends = np.sort(tets[:, _TET_EDGES], axis=2).reshape(-1, 2)
    tet_of = np.repeat(np.arange(m), 6)
    if owned is not None:
        touched = owned[ends].any(axis=1)
        ends, tet_of = ends[touched], tet_of[touched]
    order = np.argsort(ends[:, 0] * n + ends[:, 1], kind="stable")
    ends, tet_of = ends[order], tet_of[order]
    first = np.ones(len(ends), dtype=bool)
    first[1:] = (ends[1:] != ends[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    stops = np.append(starts[1:], len(ends))

    # hull faces: their vertices are unbounded cells, their edges
    # unbounded ridges
    bt, bk = np.nonzero(nbrs == -1)
    hull_faces = tets[bt[:, None], _TET_FACES[bk]]
    hull_edges = {
        (int(a), int(b))
        for a, b in np.sort(hull_faces[:, _FACE_EDGES], axis=2).reshape(-1, 2)
    }

    ridge_sites, ridge_flat, ridge_offsets, ridge_areas = [], [], [0], []
    dropped = 0
    for start, stop in zip(starts, stops):
        p, q = (int(s) for s in ends[start])
        if (p, q) in hull_edges:
            continue
        ring, area = _ordered_ring(pts[p], pts[q], centers, tet_of[start:stop], eps)
        if len(ring) < 3:
            dropped += 1
            continue
        ridge_sites.append((p, q))
        ridge_flat.extend(ring.tolist())
        ridge_offsets.append(len(ridge_flat))
        ridge_areas.append(area)
    ridge_sites = np.array(ridge_sites, dtype=np.int64).reshape(-1, 2)
    ridge_areas = np.array(ridge_areas, dtype=np.float64)
    R = len(ridge_sites)

    # bisector pyramids, summed per site over side-0 ridges, then side-1
    d = np.linalg.norm(pts[ridge_sites[:, 1]] - pts[ridge_sites[:, 0]], axis=1)
    pyramid = ridge_areas * d / 6.0
    volumes, areas = (
        np.bincount(ridge_sites[:, 0], weights=w, minlength=n)
        + np.bincount(ridge_sites[:, 1], weights=w, minlength=n)
        for w in (pyramid, ridge_areas)
    )

    # complete: in a tet, off the hull, every incident circumcenter in the
    # box; a duplicate takes its representative's hull flag
    bounded = np.ones(n, dtype=bool)
    bounded[hull_faces.ravel()] = False
    inside = np.ones(n, dtype=bool)
    inside[tets[~((centers >= lo) & (centers <= hi)).all(axis=1)].ravel()] = False
    in_tri = np.zeros(n, dtype=bool)
    in_tri[tets.ravel()] = True
    complete = bounded & inside & in_tri
    for point, _, rep in np.asarray(duplicates, dtype=np.int64).reshape(-1, 3):
        if not in_tri[point]:
            complete[point] = bounded[rep]

    # per site its ridges: side-0 entries before side-1 ones, ridge order
    counts = np.bincount(ridge_sites.ravel(), minlength=n)
    return dict(
        _tets=tets,
        _neighbors=nbrs,
        vertices=centers,
        ridge_sites=ridge_sites,
        ridge_offsets=np.array(ridge_offsets, dtype=np.int64),
        ridge_flat=np.array(ridge_flat, dtype=np.int64),
        ridge_areas=ridge_areas,
        volumes=volumes,
        areas=areas,
        complete=complete,
        cell_ridges_offsets=np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
        cell_ridges_flat=np.tile(np.arange(R, dtype=np.int64), 2)[
            np.argsort(ridge_sites.T.ravel(), kind="stable")
        ],
        merged_sites=int((~in_tri).sum()),
        degenerate_ridges_dropped=dropped,
    )


def reference_diagram(points, box, owned=None, triangulation=None) -> DelaunayVoronoi:
    """A ``DelaunayVoronoi`` whose arrays come from
    :func:`voronoi_cells_reference`, on ``triangulation`` ``(tets, nbrs,
    duplicates)`` or else the kernel's own (``repro._native.delaunay``)."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    tri = _native.delaunay(pts) if triangulation is None else triangulation
    diagram = object.__new__(DelaunayVoronoi)
    diagram.points, diagram.box = pts, box
    diagram.__dict__.update(voronoi_cells_reference(pts, *tri, owned, box))
    diagram.num_tets = len(diagram._tets)
    return diagram
