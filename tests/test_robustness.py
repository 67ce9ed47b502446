"""Failure-injection tests: deadlocks, corrupted files, hostile inputs."""

import os
import struct

import numpy as np
import pytest

import repro.diy.comm as comm_mod
from repro.diy.comm import ParallelError, run_parallel
from repro.diy.mpi_io import BlockFileReader, pack_arrays, write_blocks


class TestDeadlockDetection:
    def test_recv_without_sender_times_out(self, monkeypatch):
        """A matched receive that can never complete must raise, not hang."""
        monkeypatch.setattr(comm_mod, "_DEFAULT_TIMEOUT", 0.2)

        def worker(comm):
            if comm.rank == 0:
                comm.gather("x", root=0)  # rank 1 never contributes

        with pytest.raises(ParallelError) as exc:
            run_parallel(2, worker)
        assert isinstance(exc.value.original, TimeoutError)
        assert "deadlock" in str(exc.value.original)

    def test_mismatched_collectives_detected(self, monkeypatch):
        """One rank skipping a collective wedges its peers — detected."""
        monkeypatch.setattr(comm_mod, "_DEFAULT_TIMEOUT", 0.2)

        def worker(comm):
            if comm.rank == 0:
                return None  # skips the bcast entirely
            return comm.bcast(None, root=0)  # blocks on the missing root

        with pytest.raises(ParallelError):
            run_parallel(2, worker)


class TestCorruptedBlockFiles:
    def _write(self, path):
        def f(comm):
            blocks = [(0, pack_arrays({"x": np.arange(5.0)}))]
            return write_blocks(path, comm, blocks, nblocks_total=1)

        return run_parallel(1, f)[0]

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "t.diy")
        self._write(path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.raises(Exception):
            with BlockFileReader(path) as r:
                r.read_block(0)

    def test_corrupted_footer_offset(self, tmp_path):
        path = str(tmp_path / "f.diy")
        self._write(path)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.seek(size - 8)
            fh.write(struct.pack("<Q", size * 10))  # absurd footer pointer
        with pytest.raises(Exception):
            BlockFileReader(path)

    def test_corrupted_payload_detected_by_crc(self, tmp_path):
        from repro.diy.mpi_io import CheckpointError

        path = str(tmp_path / "p.diy")
        self._write(path)
        with open(path, "r+b") as fh:
            fh.seek(20)  # inside the payload
            fh.write(b"\xff" * 8)
        with BlockFileReader(path) as r:
            with pytest.raises(CheckpointError, match="CRC"):
                r.read_block(0)
            # verify=False still hands back the raw bytes for forensics.
            assert isinstance(r.read_block(0, verify=False), bytes)

    def test_corrupted_footer_crc_rejected(self, tmp_path):
        from repro.diy.mpi_io import CheckpointError

        path = str(tmp_path / "fc.diy")
        self._write(path)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.seek(size - 20)  # inside the footer index
            fh.write(b"\xff\xff")
        with pytest.raises(CheckpointError, match="footer"):
            BlockFileReader(path)

    def test_torn_tmp_file_never_replaces_checkpoint(self, tmp_path):
        """A write torn mid-stream leaves only a .tmp orphan; the published
        file (if any) is untouched and still validates."""
        from repro import faults
        from repro.diy.mpi_io import CheckpointError

        path = str(tmp_path / "t.diy")
        self._write(path)
        before = open(path, "rb").read()
        faults.install(faults.FaultSpec(tear_rank=0, tear_step=None))
        try:
            # nranks=1 runs serially, so the fault surfaces unwrapped.
            with pytest.raises(faults.TornWriteError):
                self._write(path)
        finally:
            faults.clear()
        assert open(path, "rb").read() == before
        with BlockFileReader(path) as r:  # still fully valid
            assert r.nblocks == 1
        # The torn partial write is quarantined in the temp file.
        with pytest.raises(CheckpointError):
            BlockFileReader(path + ".tmp")


class TestHostileGeometryInputs:
    def test_all_identical_points(self):
        from repro.diy.bounds import Bounds
        from repro.core import tessellate

        pts = np.full((10, 3), 2.0)
        tess = tessellate(pts, Bounds.cube(4.0), nblocks=1, ghost=1.0)
        assert tess.num_cells == 0  # every cell degenerate or unbounded

    def test_collinear_points_no_crash(self):
        from repro.diy.bounds import Bounds
        from repro.core import tessellate

        pts = np.column_stack(
            [np.linspace(0.5, 3.5, 20), np.full(20, 2.0), np.full(20, 2.0)]
        )
        tess = tessellate(pts, Bounds.cube(4.0), nblocks=1, ghost=1.0)
        assert tess.num_cells == 0  # degenerate configuration, no cells

    def test_single_point(self):
        from repro.diy.bounds import Bounds
        from repro.core import tessellate

        tess = tessellate(
            np.array([[1.0, 1.0, 1.0]]), Bounds.cube(2.0), nblocks=1, ghost=0.5
        )
        assert tess.num_cells == 0

    def test_grid_points_exact_degeneracy(self):
        """A perfect lattice (maximally cospherical) must not crash."""
        from repro.diy.bounds import Bounds
        from repro.core import tessellate

        n = 6
        g = (np.mgrid[0:n, 0:n, 0:n].reshape(3, -1).T + 0.5).astype(float)
        tess = tessellate(g, Bounds.cube(float(n)), nblocks=2, ghost=2.0)
        # Lattice cells are unit cubes.
        assert tess.num_cells > 0
        np.testing.assert_allclose(tess.volumes(), 1.0, rtol=1e-6)

    def test_extreme_aspect_point_cloud(self):
        """A near-planar slab has cells taller than any reasonable ghost
        guess; a ghost at the half-box cap recovers the full periodic
        partition."""
        from repro.diy.bounds import Bounds
        from repro.core import tessellate

        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 10, size=(200, 3))
        pts[:, 2] = rng.uniform(4.9, 5.1, size=200)  # nearly planar slab
        # Insufficient ghost: vertical neighbors (periodic images 4.9
        # away) are unseen, so most cells are incomplete and deleted.
        short = tessellate(pts, Bounds.cube(10.0), nblocks=1, ghost=4.0)
        assert short.num_cells < 200
        capped = tessellate(pts, Bounds.cube(10.0), nblocks=1, ghost=5.0)
        assert capped.num_cells == 200
        # Cell diameters here approach the box size — past the paper's
        # design envelope (block size ~10x cell size) — so residual
        # boundary error survives even at the ghost cap.
        assert capped.total_volume() == pytest.approx(1000.0, rel=1e-3)
