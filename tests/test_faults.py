"""Fault-injection tests: rank kills, shm reclaim, kill-and-resume.

Exercises :mod:`repro.faults` end to end: a rank killed mid-simulation
(raised, or a hard exit detected within a bound; never a hard exit of the
process that armed the injector), and bit-identical resume from the last
checkpoint via
:func:`repro.hacc.simulation.run_with_recovery`.  Torn checkpoint writes
are covered in ``tests/test_robustness.py``.
"""

import os
import time

import numpy as np
import pytest

from repro import faults
from repro.diy.comm import ParallelError, run_parallel
from repro.diy.process_backend import RankDiedError
from repro.hacc import HACCSimulation, SimulationConfig, run_with_recovery


@pytest.fixture(autouse=True)
def _clear_faults():
    """Never let an injector leak between tests."""
    yield
    faults.clear()


class TestFaultSpec:
    def test_rejects_bad_rates_and_modes(self):
        with pytest.raises(ValueError):
            faults.FaultSpec(kill_mode="segfault")
        with pytest.raises(ValueError):
            faults.FaultSpec(tear_mode="segfault")
        with pytest.raises(ValueError):
            faults.FaultSpec(tear_fraction=-0.1)
        with pytest.raises(ValueError):
            faults.FaultSpec(tear_fraction=2.0)

    def test_install_active_clear(self):
        assert faults.active() is None
        inj = faults.install(faults.FaultSpec(kill_rank=0, kill_step=1))
        try:
            assert faults.active() is inj
        finally:
            faults.clear()
        assert faults.active() is None


def _sim_worker(comm, cfg):
    sim = HACCSimulation(cfg, comm=comm)
    sim.run()
    return sim.local


class TestRankKill:
    def test_kill_at_step_raises(self):
        cfg = SimulationConfig(np_side=8, nsteps=4, seed=11)
        faults.install(
            faults.FaultSpec(kill_rank=1, kill_step=3, kill_mode="raise")
        )
        with pytest.raises(ParallelError) as exc:
            run_parallel(2, _sim_worker, cfg)
        assert exc.value.rank == 1
        assert isinstance(exc.value.original, faults.RankKilledError)
        assert "step 3" in str(exc.value.original)

    def test_exit_mode_raises_in_the_arming_process(self):
        """An inline rank runs in the process that armed the injector: a
        hard exit there would take the caller (a CLI, this test run) down
        with it, so the kill raises instead."""
        cfg = SimulationConfig(np_side=8, nsteps=4, seed=11)
        faults.install(
            faults.FaultSpec(kill_rank=0, kill_step=3, kill_mode="exit")
        )
        with pytest.raises(faults.RankKilledError, match="step 3"):
            run_parallel(1, _sim_worker, cfg)

    def test_process_backend_kill_detected_within_bound(self):
        """A child dying via os._exit must surface as ParallelError naming
        the rank well before the full recv timeout would expire."""
        cfg = SimulationConfig(np_side=8, nsteps=4, seed=11)
        faults.install(
            faults.FaultSpec(kill_rank=1, kill_step=2, kill_mode="exit",
                             kill_exitcode=87)
        )
        t0 = time.perf_counter()
        with pytest.raises(ParallelError) as exc:
            run_parallel(2, _sim_worker, cfg, recv_timeout=60.0)
        elapsed = time.perf_counter() - t0
        assert exc.value.rank == 1
        assert isinstance(exc.value.original, RankDiedError)
        assert "exit code 87" in str(exc.value.original)
        assert elapsed < 30.0  # bounded detection, not the 60 s recv timeout


def _shm_heavy_sim_worker(comm, cfg):
    """Picklable rank worker (pool path): allocate shm segments, then run a
    simulation the fault injector can kill mid-step."""
    comm.gather(np.full(100_000, float(comm.rank)), root=0)
    sim = HACCSimulation(cfg, comm=comm)
    sim.run()


class TestShmReclaim:
    @staticmethod
    def _repro_segments():
        try:
            names = os.listdir("/dev/shm")
        except OSError:
            return set()
        return {n for n in names if n.startswith("repro-")}

    def test_killed_rank_shm_segments_reclaimed(self):
        """Satellite regression: a rank hard-killed by fault injection never
        unlinks its pooled segments itself — the parent's prefix sweep must,
        or repeated fault-injection runs exhaust /dev/shm."""
        from repro.diy.process_backend import shutdown_pool

        shutdown_pool()
        baseline = self._repro_segments()
        cfg = SimulationConfig(np_side=8, nsteps=4, seed=11)
        for round_no in range(3):
            faults.install(
                faults.FaultSpec(kill_rank=1, kill_step=2, kill_mode="exit")
            )
            with pytest.raises(ParallelError) as exc:
                run_parallel(2, _shm_heavy_sim_worker, cfg, recv_timeout=60.0)
            faults.clear()
            assert isinstance(exc.value.original, RankDiedError)
            # Every round's pool (and its /dev/shm segments, including the
            # dead rank's) is reclaimed before the error reaches the caller.
            assert self._repro_segments() == baseline, f"round {round_no}"


def _recover_worker(comm, cfg, ckpt_dir, resume):
    sim = run_with_recovery(
        cfg, comm, checkpoint_dir=ckpt_dir, checkpoint_every=2, resume=resume,
    )
    return sim.local, sim.recovery.resumed_step


class TestKillAndResume:
    CFG = SimulationConfig(np_side=8, nsteps=6, seed=7)

    @pytest.mark.parametrize("kill_mode", ["raise", "exit"])
    def test_resume_is_bit_identical(self, tmp_path, kill_mode):
        ckpt_dir = str(tmp_path / "ckpts")
        reference = run_parallel(2, _sim_worker, self.CFG)

        faults.install(
            faults.FaultSpec(kill_rank=1, kill_step=5, kill_mode=kill_mode)
        )
        with pytest.raises(ParallelError):
            run_parallel(2, _recover_worker, self.CFG, ckpt_dir, False)
        faults.clear()

        # Checkpoints for steps 2 and 4 must have survived the crash.
        names = sorted(os.listdir(ckpt_dir))
        assert names == ["ckpt-000002.ckpt", "ckpt-000004.ckpt"]

        results = run_parallel(2, _recover_worker, self.CFG, ckpt_dir, True)
        for rank, (local, resumed_step) in enumerate(results):
            assert resumed_step == 4
            ref = reference[rank]
            assert np.array_equal(local.positions, ref.positions)
            assert np.array_equal(local.velocities, ref.velocities)
            assert np.array_equal(local.ids, ref.ids)
