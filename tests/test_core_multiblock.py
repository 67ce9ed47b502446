"""Tests for multi-block-per-rank tessellation (blocks > ranks)."""

import numpy as np
import pytest

from repro.diy.bounds import Bounds
from repro.diy.comm import run_parallel
from repro.diy.decomposition import Decomposition
from repro.diy.exchange import Assignment
from repro.core import match_tessellations, read_tessellation, tessellate
from repro.core.ghost import (
    exchange_ghost_particles,
    exchange_ghost_particles_multi,
)


def _per_rank_ghosts(comm, decomp, pts, ids, owners):
    """Module-level (so it leases the rank pool): one block per rank."""
    mine = owners == comm.rank
    return exchange_ghost_particles(
        decomp, comm, comm.rank, pts[mine], ids[mine], ghost=2.0
    )


class TestMultiGhostExchange:
    def test_matches_per_block_exchange(self):
        """One rank holding all blocks must see the same ghosts the
        one-block-per-rank configuration delivers."""
        domain = Bounds.cube(8.0)
        decomp = Decomposition.regular(domain, 4, periodic=True)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 8, size=(400, 3))
        ids = np.arange(400, dtype=np.int64)
        owners = decomp.locate(pts)
        reference = run_parallel(4, _per_rank_ghosts, decomp, pts, ids, owners)

        def serial(comm):
            assignment = Assignment(4, 1)
            by_gid = {g: (pts[owners == g], ids[owners == g]) for g in range(4)}
            return exchange_ghost_particles_multi(
                decomp, comm, assignment, by_gid, ghost=2.0
            )

        combined = run_parallel(1, serial)[0]
        for gid in range(4):
            ref_pos, ref_ids = reference[gid]
            got_pos, got_ids = combined[gid]
            order_a = np.lexsort((ref_ids, *ref_pos.T))
            order_b = np.lexsort((got_ids, *got_pos.T))
            np.testing.assert_array_equal(got_ids[order_b], ref_ids[order_a])
            np.testing.assert_allclose(got_pos[order_b], ref_pos[order_a])

    def test_wrong_gid_coverage_rejected(self):
        domain = Bounds.cube(4.0)
        decomp = Decomposition.regular(domain, 2, periodic=True)

        def worker(comm):
            assignment = Assignment(2, 1)
            return exchange_ghost_particles_multi(
                decomp, comm, assignment,
                {0: (np.empty((0, 3)), np.empty(0, dtype=np.int64))},  # gid 1 missing
                ghost=1.0,
            )

        with pytest.raises(Exception):
            run_parallel(1, worker)


class TestMultiBlockTessellate:
    @pytest.mark.parametrize("nblocks,nranks", [(4, 1), (4, 2), (8, 3)])
    def test_matches_one_block_per_rank(self, nblocks, nranks):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 10, size=(700, 3))
        domain = Bounds.cube(10.0)
        reference = tessellate(pts, domain, nblocks=nblocks, ghost=3.5)
        multi = tessellate(
            pts, domain, nblocks=nblocks, ghost=3.5, nranks=nranks
        )
        assert multi.num_blocks == nblocks
        assert [b.gid for b in multi.blocks] == list(range(nblocks))
        m = match_tessellations(multi, reference)
        assert m.cells_matching == m.cells_reference == 700

    def test_output_written_from_multiblock_ranks(self, tmp_path):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 8, size=(300, 3))
        path = str(tmp_path / "multi.tess")
        tess = tessellate(
            pts, Bounds.cube(8.0), nblocks=6, ghost=3.0, nranks=2,
            output_path=path,
        )
        assert tess.output_bytes > 0
        back = read_tessellation(path)
        assert back.num_blocks == 6
        assert back.num_cells == tess.num_cells

    def test_volume_threshold_multiblock(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 10, size=(500, 3))
        domain = Bounds.cube(10.0)
        full = tessellate(pts, domain, nblocks=4, ghost=3.5, nranks=2)
        vmin = float(np.quantile(full.volumes(), 0.5))
        culled = tessellate(
            pts, domain, nblocks=4, ghost=3.5, nranks=2, vmin=vmin
        )
        assert np.all(culled.volumes() >= vmin)
        expect = set(full.site_ids()[full.volumes() >= vmin].tolist())
        assert set(culled.site_ids().tolist()) == expect

    def test_serial_mode_with_many_blocks_partitions(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 10, size=(400, 3))
        tess = tessellate(
            pts, Bounds.cube(10.0), nblocks=8, ghost=4.0, nranks=1
        )
        assert tess.num_cells == 400
        assert tess.total_volume() == pytest.approx(1000.0, rel=1e-9)
