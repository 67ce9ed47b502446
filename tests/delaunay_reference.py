"""Exact rational Delaunay predicates: the oracle of the native kernel.

The compiled Bowyer–Watson kernel (``repro._native.delaunay``) decides
orientation and insphere tests exactly and breaks exact cospherical ties
by Simulation of Simplicity on point indices.  This module decides the
same tests over :class:`fractions.Fraction` (every double is a rational),
independently of the kernel's float filter and expansion arithmetic:

* :func:`orient` is the sign of ``det[b - a; c - a; d - a]``;
* :func:`insphere_sos` is the sign of ``det[x y z |p|^2 1]`` over five
  rows, < 0 when the last lies inside the sphere of the positively
  oriented first four;
* the perturbation raises point ``i``'s lift by ``eps**f(i)``, the larger
  index dominating, so an exact zero is decided by the first non-zero
  lift cofactor in decreasing index order.

:func:`violations` uses them to list every way a triangulation fails to
be the perturbed Delaunay triangulation of its points.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _det(rows) -> Fraction:
    """Determinant of a square matrix of rationals (Gaussian elimination)."""
    m = [[Fraction(x) for x in row] for row in rows]
    n, det = len(m), Fraction(1)
    for i in range(n):
        pivot = next((r for r in range(i, n) if m[r][i] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, n):
            f = m[r][i] / m[i][i]
            for c in range(i, n):
                m[r][c] -= f * m[i][c]
    return det


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def orient(a, b, c, d) -> int:
    """Sign of ``det[b - a; c - a; d - a]`` (> 0: ``d`` on the side of
    ``(b - a) x (c - a)``)."""
    a = [Fraction(x) for x in a]
    return _sign(
        _det([[Fraction(p[k]) - a[k] for k in range(3)] for p in (b, c, d)])
    )


def _lift_rows(q):
    return [
        [*map(Fraction, p), sum(Fraction(x) ** 2 for x in p), 1] for p in q
    ]


def insphere_sos(points: np.ndarray, tet, e: int) -> int:
    """Perturbed sign of ``det[x y z |p|^2 1]`` over the rows ``tet`` (a
    positively oriented finite tet) then ``e``: < 0 iff ``e`` is inside."""
    ids = [*map(int, tet), int(e)]
    rows = _lift_rows(points[ids])
    s = _sign(_det(rows))
    if s:
        return s
    for i in sorted(range(5), key=lambda r: -ids[r]):
        # the coefficient of row i's lift: its cofactor in column 3
        minor = [row[:3] + row[4:] for r, row in enumerate(rows) if r != i]
        s = (-1) ** (i + 3) * _sign(_det(minor))
        if s:
            return s
    raise AssertionError("no perturbation term decides the test")


def beyond_hull(points: np.ndarray, tet, k: int, e: int) -> bool:
    """Whether ``e`` conflicts with the hull facet opposite vertex ``k``
    of the positively oriented ``tet``: strictly beyond the facet, or on
    its plane and inside its perturbed circumcircle, which is where the
    insphere of ``tet`` says so (the perturbation term of ``tet[k]``, off
    the plane, vanishes)."""
    face = points[np.delete(tet, k)]
    side = orient(*face, points[e])
    if side:
        return side == -orient(*face, points[tet[k]])
    return insphere_sos(points, tet, e) < 0


def violations(points, tets, neighbors, skip=()) -> list[str]:
    """Every way ``(tets, neighbors)`` fails to be the index-perturbed
    Delaunay triangulation of ``points`` (without the ``skip`` ids, the
    duplicates left out): a tet not positively oriented, a neighbour link
    that is not reciprocal or shares no face, a hull that does not close,
    a point inside some tet's perturbed sphere or beyond a hull facet.

    Points far from a sphere are settled in floating point (a margin of
    1e-6 of the radius); the rest are decided exactly."""
    points = np.asarray(points, dtype=np.float64)
    out: list[str] = []
    others = np.setdiff1d(np.arange(len(points)), np.asarray(skip, dtype=int))
    used = np.unique(tets)
    if not np.array_equal(used, others):
        out.append(f"vertices {used} are not the points {others}")
    for t, tet in enumerate(tets):
        p = points[tet]
        if orient(*p) <= 0:
            out.append(f"tet {t} {tet} is not positively oriented")
        for k in range(4):
            u = neighbors[t, k]
            face = set(np.delete(tet, k).tolist())
            if u < 0:
                continue
            if not face <= set(tets[u].tolist()):
                out.append(f"tets {t} and {u} share no face {face}")
            elif t not in neighbors[u]:
                out.append(f"tet {u} does not link back to {t}")
        # the circumsphere, then every point near or inside it exactly
        # (all of them when the tet is too thin to solve in floats)
        rows = p[1:] - p[0]
        near = others
        with np.errstate(all="ignore"):
            try:
                rhs = 0.5 * np.einsum("ij,ij->i", rows, rows)
                center = p[0] + np.linalg.solve(rows, rhs)
                radii = np.linalg.norm(p - center, axis=1)
                if np.isfinite(radii).all() and np.ptp(radii) < 1e-9 * radii[0]:
                    dist = np.linalg.norm(points[others] - center, axis=1)
                    near = others[dist < radii[0] * (1 + 1e-6)]
            except np.linalg.LinAlgError:
                pass
        for e in near:
            if e not in tet and insphere_sos(points, tet, e) < 0:
                out.append(f"point {e} is inside the sphere of tet {t} {tet}")
    # hull facets: every edge on exactly two, no point beyond any
    edges: dict[tuple[int, int], int] = {}
    bt, bk = np.nonzero(neighbors == -1)
    for t, k in zip(bt, bk):
        face = np.delete(tets[t], k)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            key = tuple(sorted((int(face[i]), int(face[j]))))
            edges[key] = edges.get(key, 0) + 1
        # outward side in floating point where it is far from zero
        a, b, c = points[face]
        normal = np.cross(b - a, c - a)
        side = (points[others] - a) @ normal
        if (points[tets[t, k]] - a) @ normal > 0:
            side = -side
        tol = 1e-9 * np.abs(normal).sum() * np.ptp(points, axis=0).max()
        for e in others[side > -tol]:
            if e not in face and beyond_hull(points, tets[t], k, e):
                out.append(f"point {e} conflicts with hull facet {face}")
    out += [f"hull edge {e} on {c} facets" for e, c in edges.items() if c != 2]
    return out
