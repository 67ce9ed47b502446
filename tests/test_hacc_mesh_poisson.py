"""Tests for CIC mesh transfers and the spectral Poisson solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hacc.mesh import CICStencil, cic_deposit, density_contrast
from repro.hacc.poisson import accelerations_from_delta

from .cic_reference import cic_deposit_add_at


class TestCICDeposit:
    def test_mass_conservation(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 16, size=(500, 3))
        mesh = cic_deposit(pos, 16)
        assert mesh.sum() == pytest.approx(500.0)

    def test_particle_at_cell_center(self):
        mesh = cic_deposit(np.array([[2.0, 3.0, 4.0]]), 8)
        assert mesh[2, 3, 4] == pytest.approx(1.0)
        assert mesh.sum() == pytest.approx(1.0)

    def test_particle_between_cells(self):
        mesh = cic_deposit(np.array([[2.5, 3.0, 4.0]]), 8)
        assert mesh[2, 3, 4] == pytest.approx(0.5)
        assert mesh[3, 3, 4] == pytest.approx(0.5)

    def test_periodic_wrap(self):
        mesh = cic_deposit(np.array([[7.5, 0.0, 0.0]]), 8)
        assert mesh[7, 0, 0] == pytest.approx(0.5)
        assert mesh[0, 0, 0] == pytest.approx(0.5)

    def test_negative_position_wraps(self):
        mesh = cic_deposit(np.array([[-0.5, 1.0, 1.0]]), 8)
        assert mesh[7, 1, 1] == pytest.approx(0.5)
        assert mesh[0, 1, 1] == pytest.approx(0.5)

    def test_weighted_deposit(self):
        mesh = cic_deposit(np.array([[1.0, 1.0, 1.0]]), 4, weights=np.array([3.0]))
        assert mesh[1, 1, 1] == pytest.approx(3.0)

    def test_mismatched_weights(self):
        with pytest.raises(ValueError):
            cic_deposit(np.zeros((2, 3)), 4, weights=np.ones(3))

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            cic_deposit(np.zeros((5, 2)), 4)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=4, max_value=24),
    )
    def test_mass_conserved_property(self, seed, ng):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        pos = rng.uniform(-ng, 2 * ng, size=(n, 3))  # includes out-of-box
        mesh = cic_deposit(pos, ng)
        assert mesh.sum() == pytest.approx(n, rel=1e-9)
        assert np.all(mesh >= 0)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_add_at_oracle(self, weighted):
        rng = np.random.default_rng(4)
        pos = rng.uniform(-8, 24, size=(2000, 3))  # includes out-of-box
        w = rng.uniform(0.5, 2.0, size=2000) if weighted else None
        np.testing.assert_allclose(
            cic_deposit(pos, 16, weights=w),
            cic_deposit_add_at(pos, 16, weights=w),
            rtol=1e-12, atol=1e-12,
        )


def _gather(field, pos):
    return CICStencil(pos, field.shape[0]).gather(field)


class TestCICGather:
    def test_constant_field(self):
        field = np.full((8, 8, 8), 3.5)
        pos = np.random.default_rng(1).uniform(0, 8, size=(100, 3))
        np.testing.assert_allclose(_gather(field, pos), 3.5)

    def test_linear_field_interpolated_exactly(self):
        # CIC reproduces linear functions exactly away from the wrap seam.
        ng = 16
        x = np.arange(ng, dtype=float)
        field = np.broadcast_to(x[:, None, None], (ng, ng, ng)).copy()
        pos = np.column_stack(
            [
                np.linspace(2.0, 12.0, 50),
                np.full(50, 5.0),
                np.full(50, 7.0),
            ]
        )
        np.testing.assert_allclose(_gather(field, pos), pos[:, 0], atol=1e-12)

    def test_vector_field(self):
        ng = 4
        field = np.zeros((ng, ng, ng, 3))
        field[..., 0] = 1.0
        field[..., 2] = 2.0
        out = _gather(field, np.array([[1.5, 2.5, 3.5]]))
        np.testing.assert_allclose(out, [[1.0, 0.0, 2.0]])

    def test_adjointness(self):
        """<deposit(p), f> == <1_p, gather(f, p)> — CIC is self-adjoint."""
        rng = np.random.default_rng(2)
        ng = 8
        pos = rng.uniform(0, ng, size=(40, 3))
        f = rng.normal(size=(ng, ng, ng))
        lhs = float((cic_deposit(pos, ng) * f).sum())
        rhs = float(_gather(f, pos).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_non_cubic_rejected(self):
        with pytest.raises(ValueError):
            CICStencil(np.zeros((1, 3)), 4).gather(np.zeros((4, 4, 5)))


class TestDensityContrast:
    def test_uniform_gives_zero(self):
        np.testing.assert_allclose(density_contrast(np.ones((4, 4, 4))), 0.0)

    def test_mean_is_zero(self):
        rng = np.random.default_rng(3)
        mesh = rng.uniform(0.1, 2.0, size=(6, 6, 6))
        assert density_contrast(mesh).mean() == pytest.approx(0.0, abs=1e-12)

    def test_empty_mesh_rejected(self):
        with pytest.raises(ValueError):
            density_contrast(np.zeros((4, 4, 4)))


class TestPoisson:
    def test_acceleration_is_minus_gradient(self):
        ng = 32
        m = 2
        kx = 2 * np.pi * m / ng
        x = np.arange(ng)
        delta = np.cos(kx * x)[:, None, None] * np.ones((1, ng, ng))
        g = accelerations_from_delta(delta, prefactor=1.0)
        # phi = -cos(kx x)/k^2, g = -dphi/dx = -sin(kx x)/k.
        np.testing.assert_allclose(g[:, 0, 0, 0], -np.sin(kx * x) / kx, atol=1e-10)
        np.testing.assert_allclose(g[..., 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(g[..., 2], 0.0, atol=1e-12)

    def test_mean_mode_dropped(self):
        g = accelerations_from_delta(np.full((8, 8, 8), 5.0), prefactor=1.0)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_prefactor_linear(self):
        rng = np.random.default_rng(4)
        delta = rng.normal(size=(8, 8, 8))
        delta -= delta.mean()
        g1 = accelerations_from_delta(delta, prefactor=1.0)
        g2 = accelerations_from_delta(delta, prefactor=2.5)
        np.testing.assert_allclose(g2, 2.5 * g1, atol=1e-12)

    def test_point_mass_attracts(self):
        """Particles around an overdensity accelerate toward it."""
        ng = 16
        delta = np.zeros((ng, ng, ng))
        delta[8, 8, 8] = 100.0
        delta -= delta.mean()
        g = accelerations_from_delta(delta, prefactor=1.0)
        # Immediately +x of the mass the acceleration points in -x (cells
        # farther out show spectral ringing from the single-cell source).
        assert g[9, 8, 8, 0] < 0
        assert g[7, 8, 8, 0] > 0

    def test_deconvolve_amplifies_small_scales(self):
        ng = 16
        rng = np.random.default_rng(5)
        delta = rng.normal(size=(ng, ng, ng))
        delta -= delta.mean()
        g0 = accelerations_from_delta(delta, 1.0, deconvolve=False)
        g1 = accelerations_from_delta(delta, 1.0, deconvolve=True)
        assert np.abs(g1).mean() > np.abs(g0).mean()

    def test_non_cubic_rejected(self):
        with pytest.raises(ValueError):
            accelerations_from_delta(np.zeros((4, 4, 5)), 1.0)
        with pytest.raises(ValueError):
            accelerations_from_delta(np.zeros((4, 5, 4)), 1.0)
