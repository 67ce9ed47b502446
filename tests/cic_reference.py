"""The ``np.add.at`` CIC deposit that the bincount deposit replaced.

:func:`repro.hacc.mesh.cic_deposit` accumulates all eight trilinear corners
with one ``np.bincount``.  The direct ``np.add.at`` scatter is the obvious
way to write the same deposit, so it stays as the oracle
``tests/test_hacc_mesh_poisson.py`` compares against.  It rounds each
corner weight to a multiple of ``WEIGHT_QUANTUM`` exactly as the stencil
does; the rounding is part of the deposit's definition.
"""

from __future__ import annotations

import numpy as np

from repro.hacc.mesh import WEIGHT_QUANTUM

__all__ = ["cic_deposit_add_at"]


def cic_deposit_add_at(
    positions: np.ndarray, ng: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """CIC deposit by ``np.add.at``, one call per trilinear corner."""
    pos = np.mod(np.asarray(positions, dtype=float), ng)
    w = np.ones(len(pos)) if weights is None else np.asarray(weights, dtype=float)
    i0 = np.floor(pos).astype(np.int64)
    f = pos - i0
    g = 1.0 - f
    i0 = np.mod(i0, ng)
    i1 = np.mod(i0 + 1, ng)
    out = np.zeros((ng, ng, ng))
    for ix, wx in ((i0[:, 0], g[:, 0]), (i1[:, 0], f[:, 0])):
        for iy, wy in ((i0[:, 1], g[:, 1]), (i1[:, 1], f[:, 1])):
            for iz, wz in ((i0[:, 2], g[:, 2]), (i1[:, 2], f[:, 2])):
                corner = np.rint(wx * wy * wz / WEIGHT_QUANTUM) * WEIGHT_QUANTUM
                np.add.at(out, (ix, iy, iz), w * corner)
    return out
