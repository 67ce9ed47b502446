"""Recursive coordinate bisection: the load-balance cross-check.

The pipeline partitions the coarse load grid with one partitioner, the
Morton-curve cut :func:`repro.balance.sfc_partition`.  Weighted orthogonal
recursive bisection is an independent way to split the same histogram, so
it lives with the tests: ``tests/test_balance.py`` checks that both land
within the same balance bar.
"""

from __future__ import annotations

import numpy as np

__all__ = ["recursive_bisection_partition"]


def recursive_bisection_partition(
    cell_counts: np.ndarray, nblocks: int
) -> np.ndarray:
    """Weighted orthogonal recursive bisection.

    Recursively splits the coarse grid along its longest axis at the
    plane closest to a load split proportional to the block counts on
    each side (``floor(n/2) : ceil(n/2)``), so any ``nblocks`` works, not
    just powers of two.  Returns the same flat owner array layout as
    :func:`repro.balance.sfc_partition`; unlike the SFC cut, every block
    here is a *box* of coarse cells.
    """
    counts = np.asarray(cell_counts, dtype=np.float64)
    if counts.ndim != 3:
        raise ValueError(f"cell_counts must be 3-D, got shape {counts.shape}")
    ncells = counts.size
    if not 1 <= nblocks <= ncells:
        raise ValueError(f"cannot cut {ncells} cells into {nblocks} blocks")
    owners = np.empty(counts.shape, dtype=np.int64)

    def rec(lo: tuple, hi: tuple, gid0: int, n: int) -> None:
        sl = tuple(slice(a, b) for a, b in zip(lo, hi))
        if n == 1:
            owners[sl] = gid0
            return
        n_left = n // 2
        extents = [b - a for a, b in zip(lo, hi)]
        # Longest splittable axis (needs >= 2 cells; at least one exists
        # because n <= number of cells in this box).
        axes = sorted(range(3), key=lambda ax: -extents[ax])
        axis = next(ax for ax in axes if extents[ax] >= 2)
        other = tuple(ax for ax in range(3) if ax != axis)
        marginal = counts[sl].sum(axis=other)
        cum = np.cumsum(marginal)
        target = cum[-1] * n_left / n
        # Plane k puts k cell layers on the left; 1 <= k <= extent-1,
        # and each side needs at least as many cells as blocks.
        left_cells_per_layer = int(
            np.prod([extents[a] for a in other], dtype=np.int64)
        )
        k_lo = max(1, -(-n_left // left_cells_per_layer))
        k_hi = min(
            extents[axis] - 1,
            extents[axis]
            - (-(-(n - n_left) // left_cells_per_layer)),
        )
        k = int(np.searchsorted(cum, target, side="left")) + 1
        if k > 1 and abs(cum[k - 2] - target) <= abs(cum[k - 1] - target):
            k -= 1
        k = min(max(k, k_lo), k_hi)
        mid = list(hi)
        mid[axis] = lo[axis] + k
        lo_right = list(lo)
        lo_right[axis] = lo[axis] + k
        rec(lo, tuple(mid), gid0, n_left)
        rec(tuple(lo_right), hi, gid0 + n_left, n - n_left)

    rec((0, 0, 0), counts.shape, 0, nblocks)
    return owners.ravel()
