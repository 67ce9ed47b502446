"""Volume-threshold culling (paper §III-C steps 3c and 3e).

Two passes, exactly as in the paper:

1. **Early conservative cull** — before spending a convex hull on a cell,
   discard it if it *provably* cannot reach the minimum volume.  By the
   isodiametric inequality the ball maximizes volume at fixed diameter, so
   any cell whose max pairwise vertex distance is below the diameter of the
   sphere of volume ``vmin`` has volume < ``vmin``.  The paper phrases the
   keep-side of this test: keep cells whose vertex separation exceeds the
   circumscribing-sphere diameter of the threshold volume.
2. **Exact cull** — after volumes are computed, enforce
   ``vmin <= volume <= vmax``.

The characteristic volume distribution (paper Figure 8) is heavily skewed
toward zero — 75% of cells fall in the smallest 10% of the volume range —
so the early cull removes most cells cheaply when a threshold is active.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sphere_diameter_for_volume", "early_cull_mask"]


def sphere_diameter_for_volume(volume: float) -> float:
    """Diameter of the sphere with the given volume."""
    if volume < 0:
        raise ValueError(f"volume must be nonnegative, got {volume}")
    return 2.0 * (3.0 * volume / (4.0 * np.pi)) ** (1.0 / 3.0)


def early_cull_mask(max_separations: np.ndarray, vmin: float | None) -> np.ndarray:
    """Keep-mask of the cells whose diameter (max vertex separation) could
    still hold a volume >= ``vmin``."""
    seps = np.asarray(max_separations, dtype=float)
    if vmin is None or vmin <= 0.0:
        return np.ones(len(seps), dtype=bool)
    return seps >= sphere_diameter_for_volume(vmin)
