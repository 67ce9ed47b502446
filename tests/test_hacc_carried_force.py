"""The simulation evaluates the PM force once per step and carries it.

The oracle is the two-force step of ``tests/kdk_reference.py``.  The
deposit is exact in any order, so the carried-force run equals it bit for
bit at every rank count; a force that migration leaves misaligned with its
particle fails here.
"""

import numpy as np
import pytest

from repro.diy.comm import run_parallel
from repro.hacc import HACCSimulation, ParticleSet, SimulationConfig, run_simulation
from repro.hacc.integrator import compute_accelerations

from .kdk_reference import run_two_force

CFG = SimulationConfig(np_side=16, nsteps=12, seed=3100)


def _by_id(particles):
    order = np.argsort(particles.ids)
    return particles.positions[order], particles.velocities[order]


@pytest.fixture(scope="module")
def oracle():
    return _by_id(run_two_force(CFG))


def _assert_equal(particles, want):
    pos, vel = _by_id(particles)
    assert np.array_equal(pos, want[0])
    assert np.array_equal(vel, want[1])


# Module-level workers: picklable by reference, so they lease the rank pool.
def _allreduces_per_step(comm, cfg):
    sim = HACCSimulation(cfg, comm=comm)
    counts = []
    for _ in range(3):
        before = comm.stats.snapshot()
        sim.step()
        counts.append(comm.stats.since(before).collective_calls.get("allreduce"))
    return counts


def _first_step_on_rank_zero(comm, cfg):
    """Rank 0 takes every particle, so rank 1 steps owning none."""
    sim = HACCSimulation(cfg, comm=comm)
    everyone = comm.gather(sim.local, root=0)
    sim.local = (
        ParticleSet.concatenate(everyone) if comm.rank == 0
        else ParticleSet.empty()
    )
    sim.step()
    sim.run()
    return sim.local


@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_matches_two_force_oracle(oracle, nranks):
    _assert_equal(run_simulation(CFG, nranks=nranks), oracle)


def test_one_density_allreduce_per_step_after_the_first():
    cfg = SimulationConfig(np_side=8, nsteps=4, seed=2)
    assert run_parallel(2, _allreduces_per_step, cfg) == [[2, 1, 1]] * 2


def test_assigning_local_recomputes_the_force(oracle):
    sim = HACCSimulation(CFG)
    for _ in range(5):
        sim.step()
    sim.local = sim.local.copy()
    before = sim.comm.stats.snapshot()
    sim.step()
    assert sim.comm.stats.since(before).collective_calls["allreduce"] == 2
    sim.run()
    # The recomputed force is the carried one, bit for bit.
    _assert_equal(sim.local, oracle)


def test_carried_force_stays_out_of_local():
    sim = HACCSimulation(SimulationConfig(np_side=8, nsteps=2, seed=1))
    sim.run()
    assert sim.local.annotations == {}
    assert run_simulation(sim.config, nranks=2).annotations == {}


def test_rank_without_particles_steps_cleanly(oracle):
    parts = run_parallel(2, _first_step_on_rank_zero, CFG)
    assert all(len(p) for p in parts)  # migration refilled rank 1
    _assert_equal(ParticleSet.concatenate(parts), oracle)


def test_deposit_past_the_exact_bound_raises():
    pos = np.zeros((1, 3))
    with pytest.raises(OverflowError, match="2.09715e\\+06"):
        compute_accelerations(
            pos, 4, CFG.cosmo, 0.5, density_callback=lambda m: m + 2.0**21
        )
