"""Cloud-in-cell (CIC) mesh operations on a periodic grid.

The spectral particle-mesh force solver needs two grid transfers:
depositing particle mass onto the density mesh and gathering mesh-defined
accelerations back to particle positions.  Both use the standard CIC
(trilinear) kernel with no per-particle Python loops.

The deposit scatter-add is a single ``np.bincount`` over raveled flat mesh
indices of all 8 trilinear corners — ``np.add.at`` performs the same
reduction but through the much slower buffered ufunc.at machinery; it
survives only as the test oracle in ``tests/cic_reference.py``.

Positions are in *grid units* ``[0, ng)``; callers convert from physical
coordinates by dividing by the cell size.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cic_deposit", "cic_gather", "density_contrast"]


def _cic_weights(pos: np.ndarray, ng: int):
    """Base cell indices and per-axis weights for trilinear interpolation."""
    p = np.mod(pos, ng)
    i0 = np.floor(p).astype(np.int64)
    frac = p - i0
    i0 = np.mod(i0, ng)
    i1 = np.mod(i0 + 1, ng)
    return i0, i1, frac


def cic_deposit(
    positions: np.ndarray, ng: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """Deposit particles onto an ``ng^3`` periodic mesh with CIC weighting.

    Parameters
    ----------
    positions:
        ``(n, 3)`` particle positions in grid units.
    ng:
        Mesh points per dimension.
    weights:
        Optional per-particle masses (default 1).

    Returns
    -------
    numpy.ndarray
        ``(ng, ng, ng)`` mass mesh; its sum equals the total input mass.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"positions must be (n, 3), got {pos.shape}")
    w = np.ones(len(pos)) if weights is None else np.asarray(weights, dtype=float)
    if len(w) != len(pos):
        raise ValueError("weights length must match positions")
    n = len(pos)
    if n == 0:
        return np.zeros((ng, ng, ng))

    i0, i1, f = _cic_weights(pos, ng)
    g = 1.0 - f
    # All 8 trilinear corner contributions, accumulated by one bincount over
    # flat (raveled) mesh indices: 8n index/weight entries, one pass.
    flat = np.empty(8 * n, dtype=np.int64)
    wgt = np.empty(8 * n)
    corner = 0
    for ix, wx in ((i0[:, 0], g[:, 0]), (i1[:, 0], f[:, 0])):
        base_x = ix * (ng * ng)
        for iy, wy in ((i0[:, 1], g[:, 1]), (i1[:, 1], f[:, 1])):
            base_xy = base_x + iy * ng
            wxy = w * wx * wy
            for iz, wz in ((i0[:, 2], g[:, 2]), (i1[:, 2], f[:, 2])):
                sl = slice(corner * n, (corner + 1) * n)
                np.add(base_xy, iz, out=flat[sl])
                np.multiply(wxy, wz, out=wgt[sl])
                corner += 1
    return np.bincount(flat, weights=wgt, minlength=ng**3).reshape(ng, ng, ng)


def cic_gather(field: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Interpolate a mesh field to particle positions (CIC; the adjoint of
    :func:`cic_deposit`).

    ``field`` may be ``(ng, ng, ng)`` for a scalar or ``(ng, ng, ng, c)``
    for ``c`` components (e.g. a 3-vector acceleration).
    """
    f_arr = np.asarray(field, dtype=float)
    ng = f_arr.shape[0]
    if f_arr.shape[:3] != (ng, ng, ng):
        raise ValueError(f"field must be cubic, got {f_arr.shape}")
    pos = np.asarray(positions, dtype=float)
    i0, i1, f = _cic_weights(pos, ng)
    g = 1.0 - f

    vec = f_arr.ndim == 4
    out_shape = (len(pos), f_arr.shape[3]) if vec else (len(pos),)
    out = np.zeros(out_shape)
    for dx, wx in ((0, g[:, 0]), (1, f[:, 0])):
        ix = i0[:, 0] if dx == 0 else i1[:, 0]
        for dy, wy in ((0, g[:, 1]), (1, f[:, 1])):
            iy = i0[:, 1] if dy == 0 else i1[:, 1]
            for dz, wz in ((0, g[:, 2]), (1, f[:, 2])):
                iz = i0[:, 2] if dz == 0 else i1[:, 2]
                w = wx * wy * wz
                if vec:
                    out += f_arr[ix, iy, iz] * w[:, None]
                else:
                    out += f_arr[ix, iy, iz] * w
    return out


def density_contrast(mass_mesh: np.ndarray) -> np.ndarray:
    """Overdensity field ``delta = rho / rho_mean - 1`` from a mass mesh."""
    mean = mass_mesh.mean()
    if mean <= 0:
        raise ValueError("mass mesh has nonpositive mean; no particles deposited?")
    return mass_mesh / mean - 1.0
