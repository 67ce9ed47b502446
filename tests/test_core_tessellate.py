"""Tests for the parallel tessellation pipeline (repro.core)."""

import numpy as np
import pytest

from repro.diy.bounds import Bounds
from repro.diy.comm import run_parallel
from repro.diy.decomposition import Decomposition
from repro.core import (
    Tessellation,
    match_tessellations,
    read_tessellation,
    tessellate,
    tessellate_distributed,
)
from repro.core.ghost import exchange_ghost_particles

from .clip_reference import tessellate_block


def random_points(n: int, size: float, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0, size, size=(n, 3))


class TestGhostExchange:
    def test_ghosts_carry_ids(self):
        domain = Bounds.cube(8.0)
        decomp = Decomposition(domain, (2, 1, 1), periodic=True)

        def worker(comm):
            gid = comm.rank
            lo, hi = decomp.block(gid).core.as_arrays()
            rng = np.random.default_rng(gid)
            pos = rng.uniform(lo, hi, size=(100, 3))
            ids = np.arange(100) + gid * 1000
            gpos, gids = exchange_ghost_particles(
                decomp, comm, gid, pos, ids, ghost=1.5
            )
            return gpos, gids

        out = run_parallel(2, worker)
        # Block 0's ghosts came from block 1 (ids 1000+) and periodic images
        # of its own particles (grid is 2x1x1 so y/z seams are self-links).
        gpos0, gids0 = out[0]
        assert len(gids0) > 0
        assert np.all((gids0 >= 1000) | (gids0 < 100))
        ghost_box = decomp.block(0).core.grown(1.5)
        assert np.all(ghost_box.contains_closed(gpos0))

    def test_zero_ghost_returns_empty(self):
        domain = Bounds.cube(8.0)
        decomp = Decomposition(domain, (2, 1, 1), periodic=True)

        def worker(comm):
            pos = random_points(10, 4.0, comm.rank)
            return exchange_ghost_particles(
                decomp, comm, comm.rank, pos, np.arange(10), ghost=0.0
            )

        for gpos, gids in run_parallel(2, worker):
            assert len(gpos) == 0 and len(gids) == 0

    def test_negative_ghost_rejected(self):
        domain = Bounds.cube(8.0)
        decomp = Decomposition(domain, (1, 1, 1), periodic=True)

        def worker(comm):
            return exchange_ghost_particles(
                decomp, comm, 0, np.zeros((1, 3)), np.zeros(1), ghost=-1.0
            )

        with pytest.raises(Exception):
            run_parallel(1, worker)


class TestTessellateBlock:
    def test_serial_periodic_all_complete(self):
        """One block + its own periodic ghosts completes every cell."""
        domain = Bounds.cube(10.0)
        pts = random_points(300, 10.0, seed=1)
        tess = tessellate(pts, domain, nblocks=1, ghost=4.0)
        assert tess.num_cells == 300
        assert tess.total_volume() == pytest.approx(domain.volume, rel=1e-9)

    def test_no_ghost_boundary_cells_deleted(self):
        domain = Bounds.cube(10.0)
        pts = random_points(300, 10.0, seed=2)
        tess = tessellate(pts, domain, nblocks=1, ghost=0.0)
        assert 0 < tess.num_cells < 300  # interior survives, boundary culled

    def test_nonperiodic_mode(self):
        domain = Bounds.cube(10.0)
        pts = random_points(400, 10.0, seed=3)
        tess = tessellate(pts, domain, nblocks=2, ghost=3.0, periodic=False)
        # Domain-boundary cells are incomplete without periodic ghosts.
        assert 0 < tess.num_cells < 400

    def test_volume_threshold_culling(self):
        domain = Bounds.cube(10.0)
        pts = random_points(500, 10.0, seed=4)
        full = tessellate(pts, domain, nblocks=1, ghost=3.0)
        vmin = float(np.quantile(full.volumes(), 0.5))
        culled = tessellate(pts, domain, nblocks=1, ghost=3.0, vmin=vmin)
        assert culled.num_cells < full.num_cells
        assert np.all(culled.volumes() >= vmin)
        # Exactly the cells at/above the threshold survive.
        expect = set(full.site_ids()[full.volumes() >= vmin].tolist())
        assert set(culled.site_ids().tolist()) == expect

    def test_vmax_culling(self):
        domain = Bounds.cube(10.0)
        pts = random_points(300, 10.0, seed=5)
        full = tessellate(pts, domain, nblocks=1, ghost=3.0)
        vmax = float(np.quantile(full.volumes(), 0.8))
        culled = tessellate(pts, domain, nblocks=1, ghost=3.0, vmax=vmax)
        assert np.all(culled.volumes() <= vmax)

    def test_block_api(self):
        domain = Bounds.cube(6.0)
        pts = random_points(100, 6.0, seed=6)
        cells = tessellate_block(
            pts,
            np.arange(100),
            np.empty((0, 3)),
            np.empty(0, dtype=np.int64),
            container=domain,
        )
        assert all(c.volume > 0 for c in cells)
        # No ghosts: every complete cell is interior.
        for c in cells:
            assert np.all(c.neighbor_ids >= 0)

    def test_empty_block(self):
        cells = tessellate_block(
            np.empty((0, 3)), np.empty(0), np.empty((0, 3)), np.empty(0),
            container=Bounds.cube(1.0),
        )
        assert cells == []


class TestFaceStatistics:
    def test_fast_path_face_statistics(self):
        domain = Bounds.cube(12.0)
        pts = random_points(800, 12.0, seed=8)
        tess = tessellate(pts, domain, nblocks=2, ghost=3.0)
        b = tess.blocks[0]
        assert 13.0 < b.faces_per_cell() < 17.5
        assert 4.5 < b.vertices_per_face() < 6.0


class TestParallelInvariants:
    def test_no_duplicate_cells_across_blocks(self):
        domain = Bounds.cube(10.0)
        pts = random_points(800, 10.0, seed=9)
        tess = tessellate(pts, domain, nblocks=8, ghost=3.0)
        ids = tess.site_ids()
        assert len(np.unique(ids)) == len(ids) == 800

    def test_partition_of_unity(self):
        domain = Bounds.cube(10.0)
        pts = random_points(500, 10.0, seed=10)
        tess = tessellate(pts, domain, nblocks=4, ghost=4.0)
        assert tess.total_volume() == pytest.approx(domain.volume, rel=1e-9)

    def test_cells_sited_in_own_block(self):
        domain = Bounds.cube(10.0)
        pts = random_points(400, 10.0, seed=11)
        tess = tessellate(pts, domain, nblocks=4, ghost=3.0)
        for b in tess.blocks:
            assert np.all(b.extents.contains(b.sites))

    def test_accuracy_improves_with_ghost(self):
        """Table I dynamics: accuracy monotone in ghost size, 100% when
        the ghost zone is sufficient."""
        domain = Bounds.cube(12.0)
        pts = random_points(700, 12.0, seed=12)
        serial = tessellate(pts, domain, nblocks=1, ghost=4.0)
        accs = []
        for g in (0.0, 1.0, 2.0, 4.0):
            par = tessellate(pts, domain, nblocks=8, ghost=g)
            accs.append(match_tessellations(par, serial).accuracy_percent)
        assert accs == sorted(accs)
        assert accs[0] < 70.0
        assert accs[-1] == pytest.approx(100.0)

    def test_more_blocks_lower_accuracy_at_zero_ghost(self):
        domain = Bounds.cube(12.0)
        pts = random_points(700, 12.0, seed=13)
        serial = tessellate(pts, domain, nblocks=1, ghost=4.0)
        acc = [
            match_tessellations(
                tessellate(pts, domain, nblocks=nb, ghost=0.0), serial
            ).accuracy_percent
            for nb in (2, 4, 8)
        ]
        assert acc[0] > acc[-1]

    def test_timings_populated(self):
        domain = Bounds.cube(8.0)
        pts = random_points(200, 8.0, seed=14)
        tess = tessellate(pts, domain, nblocks=2, ghost=2.0)
        assert tess.timings.compute > 0
        assert tess.timings.compute_cpu > 0


class TestDistributedInSitu:
    def test_insitu_entry_point(self):
        """Call the SPMD primitive directly with pre-distributed particles."""
        domain = Bounds.cube(8.0)
        decomp = Decomposition.regular(domain, 4, periodic=True)
        pts = random_points(400, 8.0, seed=15)
        ids = np.arange(400, dtype=np.int64)

        def worker(comm):
            mine = decomp.locate(pts) == comm.rank
            block, timings, nbytes = tessellate_distributed(
                comm, decomp, pts[mine], ids[mine], ghost=3.5
            )
            return block

        blocks = run_parallel(4, worker)
        total = sum(b.num_cells for b in blocks)
        assert total == 400
        vol = sum(float(b.volumes.sum()) for b in blocks)
        assert vol == pytest.approx(domain.volume, rel=1e-9)


class TestTessIO:
    def test_write_read_roundtrip(self, tmp_path):
        domain = Bounds.cube(8.0)
        pts = random_points(300, 8.0, seed=16)
        path = str(tmp_path / "out.tess")
        tess = tessellate(pts, domain, nblocks=4, ghost=2.5, output_path=path)
        assert tess.output_bytes > 0

        back = read_tessellation(path)
        assert back.num_blocks == 4
        assert back.num_cells == tess.num_cells
        assert back.domain == domain
        np.testing.assert_allclose(
            np.sort(back.volumes()), np.sort(tess.volumes()), rtol=1e-12
        )
        for orig, rd in zip(tess.blocks, back.blocks):
            assert rd.gid == orig.gid
            assert rd.extents == orig.extents
            np.testing.assert_array_equal(rd.site_ids, orig.site_ids)
            np.testing.assert_array_equal(rd.face_neighbors, orig.face_neighbors)

    def test_serial_write_method(self, tmp_path):
        domain = Bounds.cube(8.0)
        pts = random_points(200, 8.0, seed=17)
        tess = tessellate(pts, domain, nblocks=2, ghost=2.5)
        path = str(tmp_path / "serial.tess")
        nbytes = tess.write(path)
        assert nbytes > 0
        back = read_tessellation(path)
        assert back.num_cells == tess.num_cells

    def test_subset_read(self, tmp_path):
        from repro.core.tess_io import read_blocks

        domain = Bounds.cube(8.0)
        pts = random_points(200, 8.0, seed=18)
        path = str(tmp_path / "sub.tess")
        tessellate(pts, domain, nblocks=4, ghost=2.5, output_path=path)
        blocks, dom = read_blocks(path, gids=[2])
        assert len(blocks) == 1 and blocks[0].gid == 2
        assert dom == domain


class TestTessellationContainer:
    def test_empty(self):
        t = Tessellation(domain=Bounds.cube(1.0), blocks=[])
        assert t.num_cells == 0
        assert t.total_volume() == 0.0
        assert len(t.volumes()) == 0

    def test_cells_iteration(self):
        domain = Bounds.cube(8.0)
        pts = random_points(100, 8.0, seed=19)
        tess = tessellate(pts, domain, nblocks=2, ghost=2.5)
        cells = list(tess.cells())
        assert len(cells) == tess.num_cells
        v1 = sorted(c.volume for c in cells)
        v2 = sorted(tess.volumes())
        np.testing.assert_allclose(v1, v2)

    @pytest.mark.parametrize("nranks", (0, 4))
    def test_rank_count_validated_before_any_rank_starts(self, nranks):
        # a plain ValueError, not a ParallelError from inside the region
        pts = random_points(50, 4.0, seed=22)
        with pytest.raises(ValueError, match=f"nblocks=2, got {nranks}"):
            tessellate(pts, Bounds.cube(4.0), nblocks=2, nranks=nranks)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            tessellate(np.zeros((5, 2)), Bounds.cube(1.0))
        with pytest.raises(ValueError):
            tessellate(np.full((5, 3), 9.0), Bounds.cube(1.0))  # outside
        with pytest.raises(ValueError):
            tessellate(
                np.full((5, 3), 0.5), Bounds.cube(1.0), ids=np.arange(3)
            )


class TestAccuracyMatcher:
    def test_duplicate_cells_detected(self):
        domain = Bounds.cube(8.0)
        pts = random_points(50, 8.0, seed=20)
        t = tessellate(pts, domain, nblocks=1, ghost=2.5)
        dup = Tessellation(domain=domain, blocks=t.blocks + t.blocks)
        with pytest.raises(ValueError):
            match_tessellations(dup, t)

    def test_perfect_self_match(self):
        domain = Bounds.cube(8.0)
        pts = random_points(100, 8.0, seed=21)
        t = tessellate(pts, domain, nblocks=1, ghost=2.5)
        m = match_tessellations(t, t)
        assert m.accuracy_percent == 100.0
        assert m.cells_matching == m.cells_parallel


class TestRegionCompleteMask:
    def test_segment_all_handles_empty_segments(self):
        from repro.core.tessellate import _segment_all

        values = np.array([True, False, True, True, True])
        offsets = np.array([0, 0, 2, 2, 2, 5, 5])
        assert _segment_all(values, offsets).tolist() == [
            True, False, True, True, True, True
        ]
        assert _segment_all(np.empty(0, bool), np.zeros(3, int)).tolist() == [
            True, True
        ]
        assert len(_segment_all(np.empty(0, bool), np.zeros(1, int))) == 0

    def test_matches_per_cell_definition(self):
        from repro.balance import CellUnionRegion
        from repro.core.tessellate import _region_complete_mask
        from repro.geometry.voronoi_delaunay import DelaunayVoronoi

        rng = np.random.default_rng(12)
        domain = Bounds.cube(8.0)
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[:2, :2, :] = mask[2, 0, :] = True
        region = CellUnionRegion(domain, (4, 4, 4), mask)
        pts = rng.uniform(0.0, 8.0, size=(400, 3))
        fv = DelaunayVoronoi(pts, domain, owned=np.arange(400) < 250)
        vin = region.within(fv.vertices, 0.5)
        want = [
            all(vin[fv.ridge_cycle(r)].all() for r in fv.cell_ridge_ids(s))
            for s in range(250)
        ]
        got = _region_complete_mask(fv, np.arange(250), region, 0.5)
        assert got.tolist() == want
        assert 0 < sum(want) < 250
        # any ascending subset of the sites (a slab's, a repair patch's)
        sites = np.arange(3, 250, 7)
        got = _region_complete_mask(fv, sites, region, 0.5)
        assert got.tolist() == [want[s] for s in sites]
