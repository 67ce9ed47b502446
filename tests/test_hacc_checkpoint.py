"""Tests for HACC-style checkpoints and simulation restart."""

import numpy as np
import pytest

from repro.diy.comm import run_parallel
from repro.diy.mpi_io import write_blocks
from repro.hacc import HACCSimulation, SimulationConfig
from repro.hacc.checkpoint import (
    BYTES_PER_PARTICLE,
    CheckpointError,
    _encode_block,
    checkpoint_path,
    find_latest_checkpoint,
    read_checkpoint,
    restart_simulation,
    write_checkpoint,
)


class TestCheckpointFormat:
    def test_roundtrip_and_size(self, tmp_path):
        cfg = SimulationConfig(np_side=8, nsteps=6, seed=1)
        path = str(tmp_path / "c.ckpt")

        def worker(comm):
            sim = HACCSimulation(cfg, comm=comm)
            for _ in range(3):
                sim.step()
            return write_checkpoint(path, comm, sim), sim.a

        sizes = run_parallel(2, worker)
        particles, scalar, a, step, np_side = read_checkpoint(path)
        assert len(particles) == 512
        assert sorted(particles.ids) == list(range(512))
        assert step == 3 and np_side == 8
        assert a == pytest.approx(sizes[0][1])
        # 40 bytes/particle plus per-block headers and the file index.
        payload = 512 * BYTES_PER_PARTICLE
        assert payload <= sizes[0][0] < payload + 512

    def test_positions_float32_rounding(self, tmp_path):
        cfg = SimulationConfig(np_side=8, nsteps=2, seed=2)
        path = str(tmp_path / "c.ckpt")

        def worker(comm):
            sim = HACCSimulation(cfg, comm=comm)
            sim.step()
            write_checkpoint(path, comm, sim)
            return sim.local

        local = run_parallel(1, worker)[0]
        particles, _, _, _, _ = read_checkpoint(path)
        got = particles.positions[np.argsort(particles.ids)]
        want = local.positions[np.argsort(local.ids)]
        np.testing.assert_allclose(got, want, atol=1e-5)  # f32 storage

    def test_scalar_annotation(self, tmp_path):
        cfg = SimulationConfig(np_side=8, nsteps=1, seed=3)
        path = str(tmp_path / "c.ckpt")

        def worker(comm):
            sim = HACCSimulation(cfg, comm=comm)
            density = np.arange(len(sim.local), dtype=float)
            write_checkpoint(path, comm, sim, scalar=density)
            return len(sim.local)

        run_parallel(1, worker)
        _, scalar, _, _, _ = read_checkpoint(path)
        np.testing.assert_allclose(scalar, np.arange(512), atol=1e-3)


class TestRestart:
    def test_restart_matches_uninterrupted(self, tmp_path):
        cfg = SimulationConfig(np_side=8, nsteps=8, seed=4)
        path = str(tmp_path / "mid.ckpt")

        def straight(comm):
            sim = HACCSimulation(cfg, comm=comm)
            sim.run()
            return sim.local

        def interrupted(comm):
            sim = HACCSimulation(cfg, comm=comm)
            for _ in range(4):
                sim.step()
            write_checkpoint(path, comm, sim)
            resumed = restart_simulation(path, cfg, comm=comm)
            assert resumed.step_index == 4
            while resumed.step_index < cfg.nsteps:
                resumed.step()
            return resumed.local

        a = run_parallel(1, straight)[0]
        b = run_parallel(1, interrupted)[0]
        pa = a.positions[np.argsort(a.ids)]
        pb = b.positions[np.argsort(b.ids)]
        # Equal up to float32 storage rounding amplified by 4 steps.
        np.testing.assert_allclose(pb, pa, atol=1e-3)

    def test_restart_with_different_rank_count(self, tmp_path):
        cfg = SimulationConfig(np_side=8, nsteps=4, seed=5)
        path = str(tmp_path / "r.ckpt")

        def writer(comm):
            sim = HACCSimulation(cfg, comm=comm)
            sim.step()
            write_checkpoint(path, comm, sim)

        run_parallel(2, writer)

        def reader(comm):
            sim = restart_simulation(path, cfg, comm=comm)
            return len(sim.local)

        counts = run_parallel(4, reader)
        assert sum(counts) == 512

    def test_mismatched_config_rejected(self, tmp_path):
        cfg = SimulationConfig(np_side=8, nsteps=2, seed=6)
        path = str(tmp_path / "m.ckpt")

        def writer(comm):
            sim = HACCSimulation(cfg, comm=comm)
            write_checkpoint(path, comm, sim)

        run_parallel(1, writer)
        with pytest.raises(ValueError, match="8"):
            restart_simulation(path, SimulationConfig(np_side=12, nsteps=2))

    def test_restart_redistributes_scalar_annotation(self, tmp_path):
        """The per-particle scalar written with the checkpoint follows its
        particles through restart redistribution, even when the restart
        rank count differs from the writing one."""
        cfg = SimulationConfig(np_side=8, nsteps=4, seed=12)
        path = str(tmp_path / "s.ckpt")

        def writer(comm):
            sim = HACCSimulation(cfg, comm=comm)
            sim.step()
            # A scalar that identifies its particle: scalar[i] = ids[i].
            write_checkpoint(path, comm, sim,
                             scalar=sim.local.ids.astype(float),
                             precision="f8")

        run_parallel(2, writer)

        def reader(comm):
            sim = restart_simulation(path, cfg, comm=comm)
            assert sim.cell_density is not None
            assert len(sim.cell_density) == len(sim.local)
            np.testing.assert_array_equal(
                sim.cell_density, sim.local.ids.astype(float)
            )
            return len(sim.local)

        for nranks in (2, 4):  # same and different rank count
            assert sum(run_parallel(nranks, reader)) == 512

    def test_one_rank_step_keeps_the_restart_annotation(self, tmp_path):
        """At one rank no particle changes owner, so a step after a restart
        neither rebuilds ``sim.local`` nor drops its scalar annotation:
        ``cell_density`` stays aligned with ``local.ids``."""
        cfg = SimulationConfig(np_side=8, nsteps=4, seed=12)
        path = str(tmp_path / "one.ckpt")
        sim = HACCSimulation(cfg)
        sim.step()
        write_checkpoint(path, None, sim, scalar=sim.local.ids.astype(float),
                         precision="f8")
        resumed = restart_simulation(path, cfg)
        resumed.step()
        assert resumed.cell_density is not None
        np.testing.assert_array_equal(
            resumed.cell_density, resumed.local.ids.astype(float)
        )


class TestCheckpointValidation:
    def test_empty_file_rejected_with_named_error(self, tmp_path):
        path = str(tmp_path / "empty.ckpt")
        open(path, "wb").close()
        with pytest.raises(CheckpointError, match="empty.ckpt"):
            read_checkpoint(path)

    def test_truncated_block_names_path_gid_and_bytes(self, tmp_path):
        """A block cut mid-particle-data is reported with the path, the
        block gid, and expected vs. actual byte counts — not an opaque
        numpy buffer error."""
        cfg = SimulationConfig(np_side=8, nsteps=1, seed=9)
        sim = HACCSimulation(cfg)
        blob = _encode_block(sim.local, sim.a, 1, 8, None)
        cut = blob[: len(blob) // 2]
        path = str(tmp_path / "trunc.ckpt")
        run_parallel(
            1, lambda c: write_blocks(path, c, [(0, cut)], nblocks_total=1)
        )
        with pytest.raises(CheckpointError) as exc:
            read_checkpoint(path)
        msg = str(exc.value)
        assert "trunc.ckpt" in msg and "block 0" in msg
        assert str(len(cut)) in msg and str(len(blob)) in msg

    def test_duplicate_ids_rejected_by_validate(self, tmp_path):
        cfg = SimulationConfig(np_side=8, nsteps=1, seed=10)
        sim = HACCSimulation(cfg)
        blob = _encode_block(sim.local, sim.a, 1, 8, None)
        path = str(tmp_path / "dup.ckpt")
        run_parallel(
            1,
            lambda c: write_blocks(
                path, c, [(0, blob), (1, blob)], nblocks_total=2
            ),
        )
        # Without validation the duplicated file reads "successfully"...
        particles, _, _, _, _ = read_checkpoint(path)
        assert len(particles) == 1024
        # ...with validation the id-coverage check catches it.
        with pytest.raises(CheckpointError, match="duplicate"):
            read_checkpoint(path, validate=True)
        with pytest.raises(CheckpointError, match="duplicate"):
            restart_simulation(path, cfg)

    def test_find_latest_skips_invalid_checkpoints(self, tmp_path):
        cfg = SimulationConfig(np_side=8, nsteps=6, seed=13)
        ckpt_dir = str(tmp_path)

        def writer(comm):
            sim = HACCSimulation(cfg, comm=comm)
            sim.step(); sim.step()
            write_checkpoint(checkpoint_path(ckpt_dir, 2), comm, sim)

        run_parallel(2, writer)
        # A newer checkpoint that is garbage (e.g. assembled from a torn
        # write of the pre-CRC format) must be skipped, not crash the scan.
        with open(checkpoint_path(ckpt_dir, 4), "wb") as fh:
            fh.write(b"\x00" * 100)
        found = find_latest_checkpoint(ckpt_dir, cfg)
        assert found is not None
        step, path = found
        assert step == 2 and path.endswith("ckpt-000002.ckpt")
