"""Clustered point sets for the tessellation tests."""

import numpy as np

from repro.diy.bounds import Bounds, wrap_positions


def clustered_points(
    n: int,
    box: float,
    seed: int = 0,
    ncenters: int = 5,
    width_fraction: float = 0.045,
    background_fraction: float = 0.15,
    seam: bool = True,
) -> np.ndarray:
    """A clustered test universe: Gaussian clumps plus a sparse background.

    This is the late-time-snapshot stand-in of the slab, lazy-ghost and CLI
    tests: most mass sits in a handful of clusters crowded into one octant
    (so a regular decomposition is badly imbalanced), and with
    ``seam=True`` one cluster straddles ``x = 0`` so periodic wrap handling
    is always exercised.  Positions are wrapped into ``[0, box)``.
    """
    rng = np.random.default_rng(seed)
    n_background = int(n * background_fraction)
    n_clustered = n - n_background
    centers = rng.uniform(0.05 * box, 0.45 * box, size=(ncenters, 3))
    if seam and ncenters > 0:
        centers[0] = (0.0, 0.5 * box, 0.5 * box)  # straddles the x seam
    which = rng.integers(0, max(ncenters, 1), size=n_clustered)
    pts = centers[which] + rng.normal(
        0.0, width_fraction * box, size=(n_clustered, 3)
    )
    background = rng.uniform(0.0, box, size=(n_background, 3))
    cloud = np.concatenate([pts, background]) if n_background else pts
    return wrap_positions(cloud, Bounds.cube(box))
