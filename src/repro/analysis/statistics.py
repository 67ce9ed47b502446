"""Summary statistics of tessellations (paper Figures 8 and 11).

Histograms of cell volume and of the cell density contrast

    delta = (d - mu_d) / mu_d ,   d = 1 / volume  (unit-mass particles),

with the skewness and (Pearson, non-excess) kurtosis the paper annotates on
each plot.  The paper tracks these moments over time as simple indicators
of the breakdown of perturbation theory: the early near-Gaussian field has
kurtosis ~3, and both moments grow as halos collapse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Histogram",
    "histogram",
    "cell_density",
    "density_contrast",
    "volume_range_concentration",
]


@dataclass(frozen=True)
class Histogram:
    """A binned distribution plus the moments the paper reports."""

    counts: np.ndarray
    edges: np.ndarray
    skewness: float
    kurtosis: float
    mean: float
    std: float
    n_samples: int
    n_clipped: int

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def rows(self) -> list[tuple[float, int]]:
        """(bin center, count) pairs — the printable series of a figure."""
        return list(zip(self.centers.tolist(), self.counts.tolist()))


def _moments(values: np.ndarray) -> tuple[float, float, float, float]:
    mean = float(values.mean())
    std = float(values.std())
    if std == 0.0:
        return mean, std, 0.0, 0.0
    z = (values - mean) / std
    skew = float(np.mean(z**3))
    kurt = float(np.mean(z**4))  # Pearson convention: Gaussian -> 3
    return mean, std, skew, kurt


def histogram(
    values: np.ndarray,
    bins: int = 100,
    value_range: tuple[float, float] | None = None,
) -> Histogram:
    """Histogram with the paper's annotation set (100 bins by default).

    Moments are computed over *all* samples; the counts only cover
    ``value_range`` (the paper's Figure 8 clips the display range to
    [0.02, 2] while quoting global moments).
    """
    v = np.asarray(values, dtype=float)
    if len(v) == 0:
        raise ValueError("cannot histogram an empty sample")
    if value_range is None:
        value_range = (float(v.min()), float(v.max()))
    counts, edges = np.histogram(v, bins=bins, range=value_range)
    mean, std, skew, kurt = _moments(v)
    return Histogram(
        counts=counts,
        edges=edges,
        skewness=skew,
        kurtosis=kurt,
        mean=mean,
        std=std,
        n_samples=len(v),
        n_clipped=int(len(v) - counts.sum()),
    )


def cell_density(volumes: np.ndarray) -> np.ndarray:
    """Unit-mass cell density ``d = 1 / volume`` (paper §IV-D)."""
    v = np.asarray(volumes, dtype=float)
    if np.any(v <= 0):
        raise ValueError("cell volumes must be positive")
    return 1.0 / v


def density_contrast(volumes: np.ndarray) -> np.ndarray:
    """Density contrast ``delta = (d - mu_d)/mu_d`` from cell volumes."""
    d = cell_density(volumes)
    mu = d.mean()
    return (d - mu) / mu


def volume_range_concentration(
    volumes: np.ndarray, fraction_of_range: float = 0.1
) -> float:
    """Fraction of cells within the smallest ``fraction_of_range`` of the
    volume range (paper: 75% of cells in the smallest 10%)."""
    v = np.asarray(volumes, dtype=float)
    if len(v) == 0:
        raise ValueError("empty volume sample")
    lo, hi = float(v.min()), float(v.max())
    cut = lo + fraction_of_range * (hi - lo)
    return float(np.mean(v <= cut))
