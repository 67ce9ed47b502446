"""Geometric predicates and tolerance policy.

All tolerance decisions of the clip reference (:mod:`tests.clip_polyhedron`,
:mod:`tests.clip_voronoi`) go through this module so the rest of the code
never hardcodes epsilons.  Tolerances are *relative*: they scale with the
extent of the object being tested, which keeps the kernels stable whether
a simulation box is 1 or 10^4 Mpc/h across.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_REL_EPS",
    "scale_eps",
    "orient3d",
    "classify_against_plane",
    "ON",
    "INSIDE",
    "OUTSIDE",
]

#: Relative tolerance used to decide "on plane" vs "off plane".
DEFAULT_REL_EPS = 1e-9

# Vertex classification codes w.r.t. an oriented plane.
INSIDE = -1  # strictly on the kept side (n.x < d)
ON = 0  # within tolerance of the plane
OUTSIDE = 1  # strictly on the discarded side (n.x > d)


def scale_eps(scale: float, rel_eps: float = DEFAULT_REL_EPS) -> float:
    """Absolute tolerance for an object of characteristic size ``scale``."""
    return max(abs(scale), 1.0) * rel_eps


def orient3d(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> float:
    """Signed volume (times 6) of tetrahedron ``abcd``.

    Positive when ``d`` is on the side of plane ``abc`` that makes ``abcd``
    positively oriented (right-hand rule over ``(b-a, c-a)``).  This is the
    floating-point version of Shewchuk's predicate; callers must compare it
    against a tolerance from :func:`scale_eps`, never against exact zero.
    """
    ad = np.asarray(a, dtype=float) - np.asarray(d, dtype=float)
    bd = np.asarray(b, dtype=float) - np.asarray(d, dtype=float)
    cd = np.asarray(c, dtype=float) - np.asarray(d, dtype=float)
    return float(np.dot(ad, np.cross(bd, cd)))


def classify_against_plane(
    points: np.ndarray, normal: np.ndarray, offset: float, eps: float
) -> np.ndarray:
    """Classify points against the oriented plane ``normal . x = offset``.

    Returns an int array with values :data:`INSIDE` (kept side,
    ``normal . x < offset - eps``), :data:`ON` (within ``eps``), or
    :data:`OUTSIDE`.
    """
    d = np.asarray(points, dtype=float) @ np.asarray(normal, dtype=float) - offset
    out = np.zeros(len(d), dtype=np.int8)
    out[d < -eps] = INSIDE
    out[d > eps] = OUTSIDE
    return out
