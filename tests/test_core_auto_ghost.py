"""Tests for automatic ghost-size determination (paper §V)."""

import numpy as np
import pytest

from repro.diy.bounds import Bounds
from repro.core import match_tessellations, tessellate
from repro.core.auto_ghost import certify_block, tessellate_auto


class TestCertification:
    def test_certified_cells_match_reference(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 12, size=(800, 3))
        domain = Bounds.cube(12.0)
        tess = tessellate(pts, domain, nblocks=4, ghost=3.0)
        from repro.diy.decomposition import Decomposition

        decomp = Decomposition.regular(domain, 4, periodic=True)
        for block in tess.blocks:
            mask = certify_block(block, decomp.block(block.gid).ghost_bounds(3.0))
            assert mask.any()  # interior cells certify at a healthy ghost

    def test_small_ghost_fails_certification(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 12, size=(400, 3))
        domain = Bounds.cube(12.0)
        tess = tessellate(pts, domain, nblocks=4, ghost=0.5)
        from repro.diy.decomposition import Decomposition

        decomp = Decomposition.regular(domain, 4, periodic=True)
        uncertified = 0
        for block in tess.blocks:
            mask = certify_block(block, decomp.block(block.gid).ghost_bounds(0.5))
            uncertified += int((~mask).sum())
        assert uncertified > 0

    def test_empty_block(self):
        from repro.core.data_model import VoronoiBlock

        b = VoronoiBlock.from_cells(0, Bounds.cube(1.0), [])
        assert len(certify_block(b, Bounds.cube(1.0))) == 0


class TestAutoTessellate:
    def test_converges_and_matches_reference(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 12, size=(900, 3))
        domain = Bounds.cube(12.0)
        auto, ghost, iters = tessellate_auto(
            pts, domain, nblocks=4, initial_ghost=0.5
        )
        assert iters > 1  # the deliberately tiny start was insufficient
        assert auto.num_cells == 900
        reference = tessellate(pts, domain, nblocks=1, ghost=5.0)
        m = match_tessellations(auto, reference)
        assert m.accuracy_percent == 100.0

    def test_sufficient_start_converges_immediately(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 10, size=(600, 3))
        auto, ghost, iters = tessellate_auto(
            pts, Bounds.cube(10.0), nblocks=2, initial_ghost=4.0
        )
        assert iters == 1
        assert ghost == 4.0
        assert auto.num_cells == 600

    def test_default_initial_ghost(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 8, size=(300, 3))
        auto, ghost, iters = tessellate_auto(pts, Bounds.cube(8.0), nblocks=2)
        assert auto.num_cells == 300
        assert ghost <= 4.0  # capped at half the box

    def test_clustered_data_needs_bigger_ghost(self):
        """Sparse void regions force larger ghosts than the mean spacing
        heuristic would pick — the scenario motivating auto sizing."""
        rng = np.random.default_rng(5)
        cluster = rng.normal(3.0, 0.3, size=(500, 3)) % 12.0
        sparse = rng.uniform(0, 12.0, size=(60, 3))
        pts = np.vstack([cluster, sparse])
        domain = Bounds.cube(12.0)
        auto, ghost, iters = tessellate_auto(
            pts, domain, nblocks=4, initial_ghost=1.0
        )
        assert auto.num_cells == len(pts)
        assert ghost > 1.0  # had to grow
        reference = tessellate(pts, domain, nblocks=1, ghost=5.9)
        m = match_tessellations(auto, reference)
        assert m.accuracy_percent == 100.0

    def test_invalid_inputs(self):
        pts = np.random.default_rng(6).uniform(0, 4, (50, 3))
        with pytest.raises(NotImplementedError):
            tessellate_auto(pts, Bounds.cube(4.0), periodic=False)
        from repro.diy.comm import run_parallel
        from repro.diy.decomposition import Decomposition
        from repro.core.auto_ghost import tessellate_auto_distributed

        decomp = Decomposition.regular(Bounds.cube(4.0), 1, periodic=True)

        def worker(comm):
            return tessellate_auto_distributed(
                comm, decomp, pts, np.arange(50), initial_ghost=0.0
            )

        with pytest.raises(Exception):
            run_parallel(1, worker)

    def test_volume_threshold_applies_after_certification(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 10, size=(500, 3))
        domain = Bounds.cube(10.0)
        from repro.diy.comm import run_parallel
        from repro.diy.decomposition import Decomposition
        from repro.core.auto_ghost import tessellate_auto_distributed

        full = tessellate(pts, domain, nblocks=1, ghost=4.0)
        vmin = float(np.quantile(full.volumes(), 0.5))
        decomp = Decomposition.regular(domain, 2, periodic=True)
        ids = np.arange(500, dtype=np.int64)

        def worker(comm):
            mine = decomp.locate(pts) == comm.rank
            return tessellate_auto_distributed(
                comm, decomp, pts[mine], ids[mine],
                initial_ghost=1.0, vmin=vmin,
            )

        results = run_parallel(2, worker)
        kept = sum(r.block.num_cells for r in results)
        expect = int((full.volumes() >= vmin).sum())
        assert kept == expect
        for r in results:
            assert r.certified
            assert np.all(r.block.volumes >= vmin)


class TestCertifyAgainstRegion:
    """A balanced block saw its union of coarse cells grown by the ghost,
    not the box around it (ROADMAP invariant: a certified cell is never
    wrong)."""

    @staticmethod
    def cube_cell_block(site, half):
        """One cubic cell of half-width ``half`` around ``site``."""
        from repro.core.data_model import VoronoiBlock

        site = np.asarray(site, dtype=float)
        corners = site + half * np.array(
            [(i, j, k) for i in (-1, 1) for j in (-1, 1) for k in (-1, 1)], float
        )
        faces = np.array(
            [(0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1),
             (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3)]
        )
        return VoronoiBlock.from_rows(
            0, Bounds.cube(8.0), corners, faces.ravel(), np.full(6, 4),
            np.arange(6), np.array([6]), site[None], np.array([7]),
            np.array([(2 * half) ** 3]), np.array([6 * (2 * half) ** 2]),
        )

    def test_ball_poking_into_unpopulated_corner_is_not_certified(self):
        from repro.balance import CellUnionRegion

        # An L of three coarse cells in the z < 4 layer of an 8-cube; the
        # fourth, [4,8]x[4,8]x[0,4], is the hole in its bounding box.
        domain = Bounds.cube(8.0)
        mask = np.zeros((2, 2, 2), dtype=bool)
        mask[0, 0, 0] = mask[1, 0, 0] = mask[0, 1, 0] = True
        region = CellUnionRegion(domain, (2, 2, 2), mask)
        ghost = 1.0
        seen_box = region.bounding_box().grown(ghost)
        # Farthest vertex at 1.2: the security ball (radius 2.4) around
        # (3.5, 3.5, 2) holds (5.1, 5.1, 2), which no ghost exchange of
        # thickness 1 delivers -- but it fits the grown bounding box.
        block = self.cube_cell_block((3.5, 3.5, 2.0), 1.2 / np.sqrt(3.0))
        assert not region.within(np.array([[5.1, 5.1, 2.0]]), ghost)[0]
        assert certify_block(block, seen_box).tolist() == [True]
        assert certify_block(block, seen_box, region=region, ghost=ghost).tolist() == [
            False
        ]
        # a small enough cell certifies against the region too
        small = self.cube_cell_block((3.5, 3.5, 2.0), 0.4 / np.sqrt(3.0))
        assert certify_block(small, seen_box, region=region, ghost=ghost).tolist() == [
            True
        ]

    def test_csr_certificate_matches_per_cell_definition(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 10, size=(500, 3))
        domain = Bounds.cube(10.0)
        from repro.diy.decomposition import Decomposition

        decomp = Decomposition.regular(domain, 2, periodic=True)
        for block in tessellate(pts, domain, nblocks=2, ghost=1.5).blocks:
            seen = decomp.block(block.gid).ghost_bounds(1.5)
            lo, hi = seen.as_arrays()
            want = []
            for i in range(block.num_cells):
                used = np.unique(np.concatenate(block.faces_of_cell(i)))
                r = np.linalg.norm(block.vertices[used] - block.sites[i], axis=1).max()
                margin = np.minimum(block.sites[i] - lo, hi - block.sites[i]).min()
                want.append(2.0 * r <= margin + 1e-12)
            got = certify_block(block, seen)
            assert got.tolist() == want
            assert 0 < got.sum() < block.num_cells

    def test_auto_ghost_on_balanced_decomposition_is_exact(self):
        from repro.balance import compute_cell_counts, rebalance_decomposition
        from repro.core.auto_ghost import tessellate_auto_distributed
        from repro.diy.comm import run_parallel

        box = 10.0
        domain = Bounds.cube(box)
        pts = np.random.default_rng(9).uniform(0, box, size=(500, 3))
        ids = np.arange(len(pts), dtype=np.int64)
        decomp = rebalance_decomposition(
            domain, compute_cell_counts(pts, domain, 8), 4, periodic=True
        )
        assert decomp.block_region(0) is not None

        def worker(comm):
            mine = decomp.locate(pts) == comm.rank
            return tessellate_auto_distributed(
                comm, decomp, pts[mine], ids[mine], initial_ghost=0.6
            )

        results = run_parallel(4, worker)
        assert all(r.certified for r in results)
        assert results[0].ghost > 0.6
        from repro.core.tessellate import Tessellation

        auto = Tessellation(domain=domain, blocks=[r.block for r in results])
        reference = tessellate(pts, domain, nblocks=1, ghost=4.9)
        assert auto.num_cells == len(pts)
        assert match_tessellations(auto, reference).accuracy_percent == 100.0
