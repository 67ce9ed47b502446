"""Volume threshold filtering (plugin filter #2, paper §III-D).

The characteristic cell-volume distribution is strongly skewed toward zero
(75% of cells in the smallest 10% of the volume range — Figure 8), so a
simple threshold dramatically reduces the cell set while retaining every
cell that contributes to a void.  The filter operates on an assembled
:class:`~repro.core.tessellate.Tessellation` and returns a flat mask aligned
with the concatenated cell order (block by block).
"""

from __future__ import annotations

import numpy as np

from ..core.tessellate import Tessellation

__all__ = ["volume_threshold_mask"]


def volume_threshold_mask(
    tess: Tessellation, vmin: float | None = None, vmax: float | None = None
) -> np.ndarray:
    """Boolean keep-mask over all cells with ``vmin <= volume <= vmax``."""
    v = tess.volumes()
    keep = np.ones(len(v), dtype=bool)
    if vmin is not None:
        keep &= v >= vmin
    if vmax is not None:
        keep &= v <= vmax
    return keep
