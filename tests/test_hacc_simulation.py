"""Tests for Zel'dovich ICs, the integrator, and the simulation driver."""

import numpy as np
import pytest

from repro.diy.comm import run_parallel
from repro.hacc import (
    LCDM,
    HACCSimulation,
    ParticleSet,
    SimulationConfig,
    TimeStepper,
    run_simulation,
    zeldovich_ics,
)
from repro.hacc.mesh import cic_deposit, density_contrast


# Module-level workers: picklable by reference, so they lease the rank pool.
def _owns_its_particles(comm, cfg):
    sim = HACCSimulation(cfg, comm=comm)
    sim.run()
    owners = sim.decomposition.locate(sim.positions_mpc())
    return bool(np.all(owners == sim.gid)), len(sim.local)


def _num_global(comm, cfg):
    return HACCSimulation(cfg, comm=comm).num_global()


class TestParticleSet:
    def test_shapes_enforced(self):
        with pytest.raises(ValueError):
            ParticleSet(np.zeros((3, 2)), np.zeros((3, 3)), np.arange(3))
        with pytest.raises(ValueError):
            ParticleSet(np.zeros((3, 3)), np.zeros((2, 3)), np.arange(3))
        with pytest.raises(ValueError):
            ParticleSet(np.zeros((3, 3)), np.zeros((3, 3)), np.arange(2))

    def test_select_and_concat(self):
        p = ParticleSet(np.arange(12.0).reshape(4, 3), np.zeros((4, 3)), np.arange(4))
        sub = p.select(np.array([True, False, True, False]))
        assert list(sub.ids) == [0, 2]
        cat = ParticleSet.concatenate([sub, p.select(np.array([1, 3]))])
        assert sorted(cat.ids) == [0, 1, 2, 3]

    def test_empty(self):
        e = ParticleSet.empty()
        assert len(e) == 0
        assert len(ParticleSet.concatenate([e, e])) == 0

    def test_select_copies(self):
        p = ParticleSet(np.zeros((2, 3)), np.zeros((2, 3)), np.arange(2))
        s = p.select(np.array([0]))
        s.positions += 1.0
        assert p.positions[0, 0] == 0.0


class TestZeldovichICs:
    def test_layout(self):
        ics = zeldovich_ics(8, LCDM(), a_init=0.02, seed=1)
        assert len(ics) == 512
        assert np.all(ics.positions >= 0) and np.all(ics.positions < 8)
        assert len(np.unique(ics.ids)) == 512

    def test_small_initial_displacements(self):
        # At z=49 displacements are a small fraction of the grid spacing.
        ics = zeldovich_ics(16, LCDM(), a_init=0.02, seed=2)
        lattice = np.mgrid[0:16, 0:16, 0:16].reshape(3, -1).T.astype(float)
        from repro.diy.bounds import Bounds, minimum_image

        d = minimum_image(ics.positions - lattice, Bounds.cube(16.0))
        assert np.abs(d).max() < 1.0

    def test_deterministic_by_seed(self):
        a = zeldovich_ics(8, LCDM(), 0.02, seed=7)
        b = zeldovich_ics(8, LCDM(), 0.02, seed=7)
        c = zeldovich_ics(8, LCDM(), 0.02, seed=8)
        np.testing.assert_array_equal(a.positions, b.positions)
        assert not np.allclose(a.positions, c.positions)

    def test_velocity_displacement_alignment(self):
        # Zel'dovich momenta are parallel to displacements (both ∝ psi).
        ics = zeldovich_ics(8, LCDM(), 0.02, seed=3)
        lattice = np.mgrid[0:8, 0:8, 0:8].reshape(3, -1).T.astype(float)
        from repro.diy.bounds import Bounds, minimum_image

        disp = minimum_image(ics.positions - lattice, Bounds.cube(8.0))
        big = np.linalg.norm(disp, axis=1) > 1e-4
        cos = np.einsum("ij,ij->i", disp[big], ics.velocities[big]) / (
            np.linalg.norm(disp[big], axis=1)
            * np.linalg.norm(ics.velocities[big], axis=1)
        )
        assert np.all(cos > 0.999)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            zeldovich_ics(1, LCDM(), 0.02)
        with pytest.raises(ValueError):
            zeldovich_ics(8, LCDM(), 0.0)


class TestTimeStepper:
    def test_schedule(self):
        ts = TimeStepper(0.02, 1.0, 49)
        assert ts.da == pytest.approx(0.02)
        assert ts.a_at(0) == 0.02
        assert ts.a_at(49) == pytest.approx(1.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            TimeStepper(0.5, 0.2, 10)
        with pytest.raises(ValueError):
            TimeStepper(0.02, 1.0, 0)
        with pytest.raises(ValueError):
            TimeStepper(0.02, 1.0, 10).a_at(11)


class TestSimulation:
    def test_particle_count_conserved(self):
        cfg = SimulationConfig(np_side=8, nsteps=5)
        final = run_simulation(cfg)
        assert len(final) == 512
        assert sorted(final.ids) == list(range(512))

    def test_positions_stay_in_box(self):
        cfg = SimulationConfig(np_side=8, nsteps=10)
        final = run_simulation(cfg)
        assert np.all(final.positions >= 0)
        assert np.all(final.positions < 8)

    def test_structure_grows(self):
        cfg = SimulationConfig(np_side=16, nsteps=30, seed=1)
        sim = HACCSimulation(cfg)
        d0 = density_contrast(cic_deposit(sim.local.positions, 16)).std()
        sim.run()
        d1 = density_contrast(cic_deposit(sim.local.positions, 16)).std()
        assert d1 > 5 * d0  # strong nonlinear growth by z=0

    def test_parallel_matches_serial(self):
        """The deposit is exact in any order, so the run is the same bits
        at every rank count."""
        cfg = SimulationConfig(np_side=8, nsteps=10, seed=3)
        serial = run_simulation(cfg)
        for nranks in (2, 4, 8):
            par = run_simulation(cfg, nranks=nranks)
            assert len(par) == len(serial)
            for field in ("positions", "velocities"):
                s = getattr(serial, field)[np.argsort(serial.ids)]
                p = getattr(par, field)[np.argsort(par.ids)]
                assert np.array_equal(p, s), (nranks, field)

    def test_parallel_ownership_invariant(self):
        cfg = SimulationConfig(np_side=8, nsteps=5, seed=2)
        out = run_parallel(4, _owns_its_particles, cfg)
        assert all(ok for ok, _ in out)
        assert sum(n for _, n in out) == 512

    def test_hooks_fire_at_selected_steps(self):
        cfg = SimulationConfig(np_side=8, nsteps=6)
        seen = []

        def hook(sim, step, a):
            seen.append((step, round(a, 6)))

        sim = HACCSimulation(cfg)
        sim.run(hooks={0: [hook], 3: [hook], 6: [hook]})
        assert [s for s, _ in seen] == [0, 3, 6]
        assert seen[-1][1] == pytest.approx(1.0)

    def test_hooks_every_step(self):
        cfg = SimulationConfig(np_side=8, nsteps=4)
        count = []
        sim = HACCSimulation(cfg)
        sim.run(hooks=[lambda s, i, a: count.append(i)])
        assert count == [1, 2, 3, 4]

    def test_step_past_end_raises(self):
        cfg = SimulationConfig(np_side=8, nsteps=2)
        sim = HACCSimulation(cfg)
        sim.run()
        with pytest.raises(RuntimeError):
            sim.step()

    def test_step_records(self):
        cfg = SimulationConfig(np_side=8, nsteps=3)
        sim = HACCSimulation(cfg)
        sim.run()
        assert len(sim.step_records) == 3
        assert sim.simulation_seconds() > 0

    def test_energy_like_sanity_momentum(self):
        """Total momentum stays near zero (translation invariance)."""
        cfg = SimulationConfig(np_side=16, nsteps=20, seed=5)
        sim = HACCSimulation(cfg)
        p0 = np.abs(sim.local.velocities.sum(axis=0)).max()
        sim.run()
        p1 = np.abs(sim.local.velocities.sum(axis=0)).max()
        # Momentum conservation up to FFT/CIC roundoff accumulation.
        assert p1 < max(10 * p0, 1e-8) + 1e-6 * len(sim.local)

    def test_mismatched_decomposition_rejected(self):
        from repro.diy.bounds import Bounds
        from repro.diy.decomposition import Decomposition

        cfg = SimulationConfig(np_side=8, nsteps=2)
        decomp = Decomposition(Bounds.cube(8.0), (2, 1, 1))
        with pytest.raises(ValueError):
            HACCSimulation(cfg, comm=None, decomposition=decomp)

    def test_num_global(self):
        cfg = SimulationConfig(np_side=8, nsteps=1)
        assert run_parallel(2, _num_global, cfg) == [512, 512]


class TestParticleSetEdgeCases:
    def _pset(self, n=5, seed=0):
        from repro.hacc.particles import ParticleSet

        rng = np.random.default_rng(seed)
        return ParticleSet(
            positions=rng.random((n, 3)),
            velocities=rng.random((n, 3)),
            ids=np.arange(n, dtype=np.int64),
            annotations={"phi": rng.random(n)},
        )

    def test_concatenate_empty_list(self):
        from repro.hacc.particles import ParticleSet

        empty = ParticleSet.concatenate([])
        assert len(empty) == 0
        assert empty.ids.dtype == np.int64

    def test_zero_row_selection_roundtrips(self):
        p = self._pset()
        sel = p.select(np.array([], dtype=np.int64))
        assert len(sel) == 0
        assert sel.positions.dtype == p.positions.dtype
        assert sel.ids.dtype == np.int64
        assert set(sel.annotations) == {"phi"}
        # An empty *float* index array (np.where on nothing, list []) must
        # coerce rather than crash.
        sel2 = p.select(np.array([]))
        assert len(sel2) == 0

    def test_concatenate_with_empty_parts(self):
        from repro.hacc.particles import ParticleSet

        p = self._pset(n=4)
        empty = ParticleSet.empty()
        out = ParticleSet.concatenate([empty, p, empty])
        assert len(out) == 4
        assert set(out.annotations) == {"phi"}
        np.testing.assert_array_equal(out.ids, p.ids)

    def test_concatenate_mismatched_annotations_raise(self):
        p1 = self._pset(n=3, seed=1)
        p2 = self._pset(n=2, seed=2)
        p2.annotations["rho"] = np.zeros(2)
        from repro.hacc.particles import ParticleSet

        with pytest.raises(ValueError, match="rho"):
            ParticleSet.concatenate([p1, p2])

    def test_annotation_shape_validated(self):
        from repro.hacc.particles import ParticleSet

        with pytest.raises(ValueError):
            ParticleSet(
                positions=np.zeros((3, 3)),
                velocities=np.zeros((3, 3)),
                ids=np.arange(3, dtype=np.int64),
                annotations={"phi": np.zeros(2)},
            )
