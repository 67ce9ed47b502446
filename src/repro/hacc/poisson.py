"""Spectral Poisson solver for the particle-mesh force calculation.

HACC's long-range force component is a spectral particle-mesh solve; this
module is its replicated-mesh equivalent.  In the code's internal
(supercomoving, grid) units the Poisson equation is

    laplacian(phi) = (3/2) (Omega_m / a) * delta ,

solved in Fourier space with periodic boundary conditions.  Accelerations
are the spectral gradient ``-i k phat(k)`` transformed back to real space,
one FFT per component.  An optional CIC deconvolution sharpens the force at
the mesh scale by dividing out the assignment window twice (deposit +
gather).

The spectral kernels (wavenumber grids and the CIC window) depend only on
the mesh size, so they are memoized per ``ng`` — the force solver calls
here every step of a run, and rebuilding them dominated small-mesh solves.
Cached arrays are marked read-only; treat them as immutable.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["accelerations_from_delta"]


@functools.lru_cache(maxsize=8)
def _k_grids(ng: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angular wavenumbers (grid units, spacing 1) for an rfftn layout.

    Memoized per mesh size; the returned arrays are shared and read-only.
    """
    k = 2.0 * np.pi * np.fft.fftfreq(ng)
    kz = 2.0 * np.pi * np.fft.rfftfreq(ng)
    grids = (
        k[:, None, None].copy(),
        k[None, :, None].copy(),
        kz[None, None, :].copy(),
    )
    for g in grids:
        g.setflags(write=False)
    return grids


@functools.lru_cache(maxsize=8)
def _cic_window_sq(ng: int) -> np.ndarray:
    """Squared CIC assignment window W^2(k) on the rfftn grid.

    Memoized per mesh size; the returned array is shared and read-only.
    """

    def w1d(k: np.ndarray) -> np.ndarray:
        x = k / 2.0
        out = np.ones_like(k)
        nz = x != 0
        out[nz] = (np.sin(x[nz]) / x[nz]) ** 2
        return out

    k = 2.0 * np.pi * np.fft.fftfreq(ng)
    kz = 2.0 * np.pi * np.fft.rfftfreq(ng)
    wx = w1d(k)[:, None, None]
    wy = w1d(k)[None, :, None]
    wz = w1d(kz)[None, None, :]
    out = (wx * wy * wz) ** 2
    out.setflags(write=False)
    return out


def accelerations_from_delta(
    delta: np.ndarray, prefactor: float, deconvolve: bool = False
) -> np.ndarray:
    """Mesh acceleration field ``g = -grad(phi)`` for the given source.

    Returns ``(ng, ng, ng, 3)``, computed spectrally (4 FFTs total).
    """
    d = np.asarray(delta, dtype=float)
    ng = d.shape[0]
    if d.shape != (ng, ng, ng):
        raise ValueError(f"delta must be cubic, got {d.shape}")
    kx, ky, kz = _k_grids(ng)
    k2 = kx**2 + ky**2 + kz**2
    dk = np.fft.rfftn(d)
    if deconvolve:
        dk /= np.maximum(_cic_window_sq(ng), 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        phik = np.where(k2 > 0, -prefactor * dk / k2, 0.0)
    out = np.empty((ng, ng, ng, 3))
    for axis, kcomp in enumerate((kx, ky, kz)):
        out[..., axis] = np.fft.irfftn(-1j * kcomp * phik, s=d.shape, axes=(0, 1, 2))
    return out
