"""Tests for the power spectrum measurement."""

import numpy as np
import pytest

from repro.hacc import LCDM, LinearPowerSpectrum, SimulationConfig, zeldovich_ics

from .power_reference import measure_power_spectrum


class TestMeasurementBasics:
    def test_random_points_are_shot_noise(self):
        """A Poisson sample has P(k) = box^3/N; after subtraction ~0."""
        rng = np.random.default_rng(0)
        box, n = 64.0, 20000
        pos = rng.uniform(0, box, size=(n, 3))
        m = measure_power_spectrum(pos, box, ng=32, subtract_shot_noise=False)
        assert np.nanmedian(m.power) == pytest.approx(box**3 / n, rel=0.25)
        m2 = measure_power_spectrum(pos, box, ng=32)
        assert abs(np.nanmedian(m2.power)) < 0.5 * m.shot_noise

    def test_single_mode_recovered(self):
        """Particles modulated by one plane wave put power at that k only."""
        rng = np.random.default_rng(1)
        box, ng = 32.0, 32
        n = 200_000
        x = rng.uniform(0, box, size=(n, 3))
        # Rejection-sample a 1 + A cos(k1 x) density along x.
        k1 = 2 * np.pi * 4 / box
        keep = rng.uniform(0, 2.0, n) < 1.0 + 0.8 * np.cos(k1 * x[:, 0])
        pos = x[keep]
        m = measure_power_spectrum(pos, box, ng=ng, nbins=20)
        peak_bin = int(np.nanargmax(m.power))
        assert m.k[peak_bin] == pytest.approx(k1, rel=0.25)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            measure_power_spectrum(np.zeros((3, 2)), 10.0, 8)
        with pytest.raises(ValueError):
            measure_power_spectrum(np.empty((0, 3)), 10.0, 8)

    def test_rows(self):
        rng = np.random.default_rng(2)
        m = measure_power_spectrum(rng.uniform(0, 16, (2000, 3)), 16.0, 16)
        rows = m.rows()
        assert len(rows) == len(m.k)
        assert all(len(r) == 3 for r in rows)


class TestAgainstLinearTheory:
    def test_initial_conditions_match_input_spectrum(self):
        """The Zel'dovich ICs must carry the linear P(k, a_init) imprint."""
        cosmo = LCDM()
        box = 64.0
        np_side = 32
        a0 = 0.05
        ics = zeldovich_ics(np_side, cosmo, a_init=a0, box=box, seed=3)
        pos = ics.positions * (box / np_side)
        # Lattice ICs carry no Poisson shot noise (grid pre-initial
        # conditions suppress discreteness), so do not subtract it.
        m = measure_power_spectrum(
            pos, box, ng=32, nbins=10, subtract_shot_noise=False
        )
        linear = LinearPowerSpectrum(cosmo)
        # Compare on intermediate scales: large-scale bins hold too few
        # modes (cosmic variance), small scales hit mesh artifacts.
        for i in range(3, 7):
            expect = linear(m.k[i], a=a0)
            assert m.power[i] == pytest.approx(expect, rel=0.6)

    def test_growth_boosts_power(self):
        """Power grows between early and late snapshots, more on small
        scales (nonlinear growth)."""
        cfg = SimulationConfig(np_side=16, nsteps=30, seed=4)
        from repro.hacc import HACCSimulation

        sim = HACCSimulation(cfg)
        early = sim.local.positions.copy() * cfg.cell_size
        sim.run()
        late = sim.local.positions * cfg.cell_size
        m0 = measure_power_spectrum(early, cfg.box_size, 16, nbins=6)
        m1 = measure_power_spectrum(late, cfg.box_size, 16, nbins=6)
        valid = np.isfinite(m0.power) & np.isfinite(m1.power) & (m0.power > 0)
        assert np.all(m1.power[valid] > m0.power[valid])
