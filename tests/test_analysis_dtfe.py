"""Tests for the DTFE density estimator."""

import numpy as np
import pytest

from repro.diy.bounds import Bounds
from repro.core import tessellate
from repro.analysis.dtfe import dtfe_density, dtfe_grid, voronoi_density
from repro.analysis.dtfe import _padded_periodic
from repro.geometry import delaunay


def grid_points(n, size, jitter, seed=0):
    rng = np.random.default_rng(seed)
    spacing = size / n
    base = (np.mgrid[0:n, 0:n, 0:n].reshape(3, -1).T + 0.5) * spacing
    return np.mod(base + rng.uniform(-jitter, jitter, base.shape) * spacing, size)


class TestDTFEDensity:
    def test_star_volumes_equal_add_at_bit_for_bit(self):
        # the padded periodic mesh dtfe_density triangulates
        size = 8.0
        domain = Bounds.cube(size)
        pts, _ = _padded_periodic(
            grid_points(8, size, jitter=0.3, seed=7), domain, 0.15 * size
        )
        mesh = delaunay(pts)
        want = np.zeros(len(pts))
        for k in range(4):
            np.add.at(want, mesh.tetrahedra[:, k], mesh.volumes())
        got = mesh.vertex_star_volumes()
        assert got.tobytes() == want.tobytes()

    def test_uniformish_field_near_mean_density(self):
        size = 8.0
        pts = grid_points(8, size, jitter=0.15, seed=1)
        rho = dtfe_density(pts, domain=Bounds.cube(size))
        mean = len(pts) / size**3
        assert np.all(np.isfinite(rho))
        assert np.median(rho) == pytest.approx(mean, rel=0.25)

    def test_cluster_is_denser_than_void(self):
        rng = np.random.default_rng(2)
        cluster = rng.normal(4.0, 0.25, size=(80, 3))
        sparse = rng.uniform(0, 8.0, size=(80, 3))
        pts = np.clip(np.vstack([cluster, sparse]), 0.01, 7.99)
        rho = dtfe_density(pts, domain=Bounds.cube(8.0))
        assert np.median(rho[:80]) > 5 * np.median(rho[80:])

    def test_masses_scale_linearly(self):
        pts = grid_points(6, 6.0, jitter=0.2, seed=3)
        r1 = dtfe_density(pts, domain=Bounds.cube(6.0))
        r2 = dtfe_density(pts, domain=Bounds.cube(6.0), masses=np.full(len(pts), 2.0))
        np.testing.assert_allclose(r2, 2 * r1)

    def test_open_boundaries_hull_is_nan(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 4, size=(60, 3))
        rho = dtfe_density(pts, domain=None)
        assert np.isnan(rho).any()
        assert np.isfinite(rho).any()

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            dtfe_density(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            dtfe_density(np.zeros((4, 3)), masses=np.ones(3))

    def test_total_mass_consistency(self):
        """Sum of m_i should roughly equal integral rho dV ~ sum(m/rho * rho)."""
        size = 6.0
        pts = grid_points(6, size, jitter=0.25, seed=5)
        rho = dtfe_density(pts, domain=Bounds.cube(size))
        # Each particle's implied volume m/rho: star/4 — total ~ box volume.
        implied = (1.0 / rho).sum()
        assert implied == pytest.approx(size**3, rel=0.15)


class TestDTFEGrid:
    def test_grid_mean_matches_global_density(self):
        size = 6.0
        pts = grid_points(6, size, jitter=0.2, seed=6)
        field = dtfe_grid(pts, Bounds.cube(size), grid_size=12)
        assert field.shape == (12, 12, 12)
        mean = len(pts) / size**3
        assert field.mean() == pytest.approx(mean, rel=0.3)

    def test_grid_peaks_at_cluster(self):
        rng = np.random.default_rng(7)
        cluster = np.clip(rng.normal(2.0, 0.2, size=(100, 3)), 0.1, 7.9)
        bg = rng.uniform(0, 8, size=(120, 3))
        pts = np.vstack([cluster, bg])
        field = dtfe_grid(pts, Bounds.cube(8.0), grid_size=8)
        peak = np.unravel_index(np.argmax(field), field.shape)
        # Cluster center (2,2,2) lies in grid cell (2,2,2) of 8 over 8 Mpc.
        assert all(abs(p - 2) <= 1 for p in peak)

    def test_positive_everywhere_for_periodic_sample(self):
        pts = grid_points(5, 5.0, jitter=0.3, seed=8)
        field = dtfe_grid(pts, Bounds.cube(5.0), grid_size=10)
        assert np.all(np.isfinite(field))
        assert np.all(field > 0)

    def test_pad_fraction_default_unchanged(self):
        """Explicit pad_fraction=0.25 must equal the legacy hardcoded pad."""
        pts = grid_points(5, 5.0, jitter=0.3, seed=8)
        default = dtfe_grid(pts, Bounds.cube(5.0), grid_size=6)
        explicit = dtfe_grid(pts, Bounds.cube(5.0), grid_size=6, pad_fraction=0.25)
        np.testing.assert_array_equal(default, explicit)

    def test_pad_fraction_threads_through(self):
        """A larger padding keeps the field finite and close to default —
        the knob is live, not ignored (dense boxes can shrink it)."""
        pts = grid_points(6, 6.0, jitter=0.2, seed=6)
        wide = dtfe_grid(pts, Bounds.cube(6.0), grid_size=6, pad_fraction=0.5)
        slim = dtfe_grid(pts, Bounds.cube(6.0), grid_size=6, pad_fraction=0.15)
        assert np.all(np.isfinite(wide)) and np.all(np.isfinite(slim))
        np.testing.assert_allclose(wide, slim, rtol=0.2)

    def test_pad_fraction_validated(self):
        pts = grid_points(4, 4.0, jitter=0.2, seed=1)
        for bad in (0.0, -0.1):
            with pytest.raises(ValueError, match="pad_fraction"):
                dtfe_grid(pts, Bounds.cube(4.0), grid_size=4, pad_fraction=bad)
            with pytest.raises(ValueError, match="pad_fraction"):
                dtfe_density(pts, domain=Bounds.cube(4.0), pad_fraction=bad)


class TestVoronoiDensity:
    def test_matches_cell_volumes(self):
        pts = grid_points(6, 6.0, jitter=0.2, seed=9)
        tess = tessellate(pts, Bounds.cube(6.0), nblocks=1, ghost=3.0)
        ids, rho = voronoi_density(tess)
        np.testing.assert_allclose(rho, 1.0 / tess.volumes())
        assert len(ids) == tess.num_cells

    def test_agrees_with_dtfe_in_order_of_magnitude(self):
        size = 6.0
        pts = grid_points(6, size, jitter=0.2, seed=10)
        tess = tessellate(pts, Bounds.cube(size), nblocks=1, ghost=3.0)
        ids, rho_v = voronoi_density(tess)
        rho_d = dtfe_density(pts, domain=Bounds.cube(size))
        by_id = rho_d[np.asarray(ids, dtype=int)]
        ratio = rho_v / by_id
        assert 0.3 < np.median(ratio) < 3.0
