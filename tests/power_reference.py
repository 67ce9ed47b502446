"""The P(k) estimator the physics tests check the simulation with.

HACC's science output is dominated by the matter power spectrum (the paper
cites the Coyote Universe precision-P(k) program), and the paper motivates
tessellations as a probe *beyond* such two-point statistics.  Nothing in
the pipeline measures P(k), so the estimator lives with the tests: a
shot-noise-corrected P(k) on the CIC mesh, which
``tests/test_hacc_measurements.py`` uses to check that the initial
conditions and the simulation's large scales track linear theory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hacc.mesh import cic_deposit, density_contrast

__all__ = ["MeasuredPower", "measure_power_spectrum"]


@dataclass(frozen=True)
class MeasuredPower:
    """Binned power spectrum measurement."""

    k: np.ndarray  # bin-mean wavenumber, h/Mpc
    power: np.ndarray  # P(k), (Mpc/h)^3, shot-noise corrected
    modes: np.ndarray  # modes per bin
    shot_noise: float  # subtracted white level, box^3 / N

    def rows(self) -> list[tuple[float, float, int]]:
        """(k, P, modes) rows for printing."""
        return list(zip(self.k.tolist(), self.power.tolist(), self.modes.tolist()))


def measure_power_spectrum(
    positions: np.ndarray,
    box: float,
    ng: int,
    nbins: int = 16,
    deconvolve: bool = True,
    subtract_shot_noise: bool = True,
) -> MeasuredPower:
    """Measure P(k) of a periodic particle snapshot.

    Parameters
    ----------
    positions:
        ``(n, 3)`` positions in box units ``[0, box)`` (Mpc/h).
    box:
        Box side, Mpc/h.
    ng:
        FFT mesh per dimension.
    nbins:
        Logarithmic k bins between the fundamental and the Nyquist mode.
    deconvolve:
        Divide out the CIC assignment window (|W|^2 per mode).
    subtract_shot_noise:
        Remove the discreteness plateau ``box^3 / N``.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"positions must be (n, 3), got {pos.shape}")
    n = len(pos)
    if n == 0:
        raise ValueError("no particles")

    delta = density_contrast(cic_deposit(pos / (box / ng), ng))
    dk = np.fft.rfftn(delta)

    k1 = 2.0 * np.pi * np.fft.fftfreq(ng, d=box / ng)
    kz = 2.0 * np.pi * np.fft.rfftfreq(ng, d=box / ng)
    kk = np.sqrt(
        k1[:, None, None] ** 2 + k1[None, :, None] ** 2 + kz[None, None, :] ** 2
    )

    pk_mode = np.abs(dk) ** 2 * (box**3 / ng**6)

    if deconvolve:
        def w1d(k: np.ndarray) -> np.ndarray:
            x = k * (box / ng) / 2.0
            out = np.ones_like(k)
            nz = x != 0
            out[nz] = (np.sin(x[nz]) / x[nz]) ** 2
            return out

        window = (
            w1d(k1)[:, None, None]
            * w1d(k1)[None, :, None]
            * w1d(kz)[None, None, :]
        ) ** 2
        pk_mode = pk_mode / np.maximum(window, 1e-12)

    # rfftn double-counts nothing on the kz=0 / kz=Nyquist planes for the
    # purposes of binned averages if we weight those planes once; the bias
    # from ignoring this is far below our validation tolerances, so modes
    # are binned uniformly.
    k_fund = 2.0 * np.pi / box
    k_nyq = np.pi * ng / box
    edges = np.logspace(np.log10(k_fund * 0.99), np.log10(k_nyq), nbins + 1)
    which = np.digitize(kk.ravel(), edges) - 1
    valid = (which >= 0) & (which < nbins) & (kk.ravel() > 0)

    ksum = np.bincount(which[valid], weights=kk.ravel()[valid], minlength=nbins)
    psum = np.bincount(which[valid], weights=pk_mode.ravel()[valid], minlength=nbins)
    counts = np.bincount(which[valid], minlength=nbins)

    good = counts > 0
    kmean = np.where(good, ksum / np.maximum(counts, 1), np.nan)
    pmean = np.where(good, psum / np.maximum(counts, 1), np.nan)

    shot = box**3 / n
    if subtract_shot_noise:
        pmean = pmean - shot

    return MeasuredPower(
        k=kmean[good],
        power=pmean[good],
        modes=counts[good],
        shot_noise=shot,
    )
