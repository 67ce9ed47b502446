"""Cloud-in-cell (CIC) mesh operations on a periodic grid.

The spectral particle-mesh force solver needs two grid transfers:
depositing particle mass onto the density mesh and gathering mesh-defined
accelerations back to particle positions.  Both use the standard CIC
(trilinear) kernel with no per-particle Python loops, and both read one
:class:`CICStencil`: the eight corners of every particle as flat mesh
indices and weights, built once per force evaluation.

The deposit scatter-add is a single ``np.bincount`` over the stencil's
flat indices — ``np.add.at`` performs the same reduction but through the
much slower buffered ufunc.at machinery; it survives only as the test
oracle in ``tests/cic_reference.py``.  The gather reads rows of the
flattened field by the same indices, so the two stay exact adjoints.

The weights are rounded to multiples of :data:`WEIGHT_QUANTUM` (2^-32).  A
float64 sum of such numbers is exact while it stays below
:data:`EXACT_CELL_MASS` (2^21), so a unit-mass deposit is the same mesh
whatever order its terms are added in: per rank, then across ranks by the
allreduce.  That makes the force, and the whole simulation, independent of
the rank count.

Positions are in *grid units* ``[0, ng)``; callers convert from physical
coordinates by dividing by the cell size.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CICStencil",
    "EXACT_CELL_MASS",
    "WEIGHT_QUANTUM",
    "cic_deposit",
    "density_contrast",
    "wrap",
]

#: Every CIC weight is a multiple of this.
WEIGHT_QUANTUM = 2.0**-32
#: Sums of quantized weights are exact in float64 below this value
#: (2^53 quanta), so a unit-mass cell must hold less than this.
EXACT_CELL_MASS = 2.0**21


class CICStencil:
    """The eight trilinear corners of ``n`` particles on an ``ng^3`` mesh.

    ``index`` holds the corners' flat (raveled) mesh indices and ``weight``
    their weights, both ``(8, n)`` with the corners in x-major order.
    """

    def __init__(self, positions: np.ndarray, ng: int) -> None:
        p = np.asarray(positions, dtype=float)
        if ((p < 0.0) | (p >= ng)).any():
            p = np.mod(p, ng)
        i0 = np.floor(p).astype(np.int64)
        f = p - i0
        g = 1.0 - f
        i0[i0 == ng] = 0  # np.mod rounds a tiny negative position up to ng
        i1 = i0 + 1
        i1[i1 == ng] = 0
        n = len(p)
        self.ng = ng
        self.index = np.empty((8, n), dtype=np.int64)
        self.weight = np.empty((8, n))
        corner = 0
        for ix, wx in ((i0[:, 0], g[:, 0]), (i1[:, 0], f[:, 0])):
            base_x = ix * (ng * ng)
            for iy, wy in ((i0[:, 1], g[:, 1]), (i1[:, 1], f[:, 1])):
                base_xy = base_x + iy * ng
                wxy = wx * wy
                for iz, wz in ((i0[:, 2], g[:, 2]), (i1[:, 2], f[:, 2])):
                    np.add(base_xy, iz, out=self.index[corner])
                    np.multiply(wxy, wz, out=self.weight[corner])
                    corner += 1
        # Round to the fixed-point grid: scaling by a power of two is exact.
        self.weight *= 1.0 / WEIGHT_QUANTUM
        np.rint(self.weight, out=self.weight)
        self.weight *= WEIGHT_QUANTUM

    def deposit(self, mass: np.ndarray | None = None) -> np.ndarray:
        """``(ng, ng, ng)`` mesh of the particles' ``mass`` (default 1 each)."""
        w = self.weight if mass is None else self.weight * mass
        ng = self.ng
        return np.bincount(
            self.index.ravel(), weights=w.ravel(), minlength=ng**3
        ).reshape(ng, ng, ng)

    def gather(self, field: np.ndarray) -> np.ndarray:
        """``field`` (``(ng, ng, ng)`` or ``(ng, ng, ng, c)``) at the
        particles: ``(n,)`` or ``(n, c)``, the corners summed in order —
        the exact adjoint of :meth:`deposit`."""
        ng = self.ng
        if field.shape[:3] != (ng, ng, ng):
            raise ValueError(f"field must be {ng}^3 cubic, got {field.shape}")
        rows = field.reshape(ng**3, -1)
        terms = np.take(rows, self.index, axis=0)
        terms *= self.weight[..., None]
        out = terms[0].copy()
        for term in terms[1:]:
            out += term
        return out if field.ndim == 4 else out[:, 0]


def wrap(x: np.ndarray, ng: int) -> np.ndarray:
    """``np.mod(x, ng, out=x)``, bit for bit, touching only the entries
    outside ``[0, ng)`` (after a drift, the few that crossed the box)."""
    out = (x < 0.0) | (x >= ng)
    if out.any():
        x[out] = np.mod(x[out], ng)
    return x


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
        ``(ng, ng, ng)`` mass mesh; its sum equals the total input mass to
        within the weight quantum.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"positions must be (n, 3), got {pos.shape}")
    mass = None if weights is None else np.asarray(weights, dtype=float)
    if mass is not None and len(mass) != len(pos):
        raise ValueError("weights length must match positions")
    return CICStencil(pos, ng).deposit(mass)


def density_contrast(mass_mesh: np.ndarray) -> np.ndarray:
    """Overdensity field ``delta = rho / rho_mean - 1`` from a mass mesh."""
    mean = mass_mesh.mean()
    if mean <= 0:
        raise ValueError("mass mesh has nonpositive mean; no particles deposited?")
    return mass_mesh / mean - 1.0
