"""Dynamic load balancing: SFC repartitioner, balanced decomposition, parity.

Covers the :mod:`repro.balance` machinery bottom-up — Morton keys, the
equal-load SFC cut (with recursive bisection as the independent oracle),
the summed-area-table cell-union regions, the irregular
:class:`~repro.balance.BalancedDecomposition` — and then pins the headline
contract: tessellation and void results with balancing ON are identical to
the static decomposition at 1/2/4 ranks on both execution backends, on a
clustered cloud with one clump straddling the periodic seam.
"""

import numpy as np
import pytest

from repro.balance import (
    BalancedDecomposition,
    CellUnionRegion,
    clustered_points,
    compute_cell_counts,
    load_imbalance,
    morton_key,
    rebalance_decomposition,
    sfc_partition,
)
from repro.core.accuracy import match_tessellations
from repro.core.tessellate import tessellate
from repro.diy.bounds import Bounds
from repro.diy.decomposition import Decomposition

from .balance_reference import recursive_bisection_partition

BOX = 16.0


def _clustered(n=1200, seed=3):
    return clustered_points(n, BOX, seed=seed), Bounds.cube(BOX)


class TestMortonKey:
    def test_orders_like_octants(self):
        # The first 8 cells of a 2^k grid in Morton order are one octant.
        coords = np.array(
            [[x, y, z] for x in range(2) for y in range(2) for z in range(2)]
        )
        keys = morton_key(coords)
        assert len(set(keys.tolist())) == 8
        assert keys.max() == 7  # 3 interleaved bits

    def test_locality(self):
        a = morton_key(np.array([[1, 1, 1]]))[0]
        b = morton_key(np.array([[1, 1, 2]]))[0]
        far = morton_key(np.array([[7, 7, 7]]))[0]
        assert abs(int(a) - int(b)) < abs(int(a) - int(far))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            morton_key(np.array([[-1, 0, 0]]))
        with pytest.raises(ValueError):
            morton_key(np.array([[1 << 21, 0, 0]]))


class TestSfcPartition:
    def test_covers_all_cells_with_contiguous_loads(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 50, size=(8, 8, 8))
        owners = sfc_partition(counts, 4)
        assert owners.shape == (counts.size,)
        assert set(np.unique(owners)) == {0, 1, 2, 3}

    def test_balances_clustered_load(self):
        pts, domain = _clustered(n=4000, seed=1)
        counts = compute_cell_counts(pts, domain, 16)
        owners = sfc_partition(counts, 4)
        loads = np.bincount(owners, weights=counts.ravel(), minlength=4)
        assert load_imbalance(loads)["max_over_mean"] < 1.25

    def test_more_blocks_than_cells_raises(self):
        with pytest.raises(ValueError):
            sfc_partition(np.ones((2, 2, 2), dtype=np.int64), 9)

    def test_rcb_oracle_agrees_on_quality(self):
        # Recursive bisection is the independent cross-check: both cuts
        # must land within the acceptance bar on the same histogram.
        pts, domain = _clustered(n=4000, seed=1)
        counts = compute_cell_counts(pts, domain, 16)
        for part in (sfc_partition, recursive_bisection_partition):
            owners = part(counts, 4)
            loads = np.bincount(owners, weights=counts.ravel(), minlength=4)
            assert load_imbalance(loads)["max_over_mean"] < 1.35, part.__name__


class TestLoadImbalance:
    def test_uniform(self):
        g = load_imbalance(np.array([10, 10, 10, 10]))
        assert g["max_over_mean"] == 1.0 and g["max_over_min"] == 1.0

    def test_skewed(self):
        g = load_imbalance(np.array([30, 10, 10, 10]))
        assert g["max_over_mean"] == pytest.approx(2.0)
        assert g["max_over_min"] == pytest.approx(3.0)

    def test_empty_rank_gives_inf_over_min(self):
        g = load_imbalance(np.array([4, 0]))
        assert np.isinf(g["max_over_min"])

    def test_all_zero(self):
        assert load_imbalance(np.zeros(3, dtype=int))["max_over_mean"] == 1.0


class TestCellUnionRegion:
    def test_within_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        domain = Bounds.cube(8.0)
        grid = (4, 4, 4)
        mask = rng.random(grid) < 0.4
        mask.flat[0] = True  # never empty
        region = CellUnionRegion(domain, grid, mask)
        pts = rng.uniform(-2.0, 10.0, size=(300, 3))
        h = 2.0
        cells = np.argwhere(mask)
        los = cells * h
        for radius in (0.0, 0.5, 1.7):
            got = region.within(pts, radius)
            for i, p in enumerate(pts):
                d = np.maximum(los - p, p - (los + h)).max(axis=1)
                assert bool(got[i]) == bool((d <= radius).any()), (p, radius)
        # one radius per point, as a column
        radii = rng.uniform(0.0, 2.0, size=len(pts))
        got = region.within(pts, radii[:, None])
        want = [bool(region.within(p[None], r)[0]) for p, r in zip(pts, radii)]
        assert got.tolist() == want

    def test_volume_and_bbox(self):
        mask = np.zeros((2, 2, 2), dtype=bool)
        mask[0, 0, 0] = mask[1, 1, 1] = True
        region = CellUnionRegion(Bounds.cube(4.0), (2, 2, 2), mask)
        assert region.volume() == pytest.approx(16.0)
        lo, hi = region.bounding_box().as_arrays()
        np.testing.assert_array_equal(lo, [0, 0, 0])
        np.testing.assert_array_equal(hi, [4, 4, 4])


class TestBalancedDecomposition:
    def _decomp(self, nblocks=4, n=2000, seed=3):
        pts, domain = _clustered(n=n, seed=seed)
        counts = compute_cell_counts(pts, domain, 8)
        return rebalance_decomposition(domain, counts, nblocks), pts

    def test_locate_covers_and_respects_owners(self):
        d, pts = self._decomp()
        gids = d.locate(pts)
        assert gids.min() >= 0 and gids.max() < d.nblocks
        # Every block region contains the points located to it.
        for g in range(d.nblocks):
            mine = pts[gids == g]
            assert d.block_region(g).within(mine, 0.0).all()

    def test_locate_wraps_periodic_points(self):
        d, _ = self._decomp()
        inside = d.locate(np.array([[0.5, 0.5, 0.5]]))[0]
        wrapped = d.locate(np.array([[BOX + 0.5, 0.5, 0.5]]))[0]
        assert inside == wrapped

    def test_gid_validation(self):
        d, _ = self._decomp()
        with pytest.raises(ValueError, match="gid 99"):
            d.block(99)
        with pytest.raises(ValueError):
            d.coords_of_gid(0)  # no regular grid to index
        with pytest.raises(ValueError):
            d.gid_of_coords((0, 0, 0))

    def test_links_symmetric(self):
        d, _ = self._decomp(nblocks=3)
        for b in d.blocks():
            for link in b.links:
                back = [
                    l
                    for l in d.block(link.gid).links
                    if l.gid == b.gid
                    and l.wrap == tuple(-w for w in link.wrap)
                ]
                assert back, f"no reverse link for {b.gid}->{link}"

    def test_neighbors_near_points_matches_bruteforce(self):
        from repro.diy.bounds import periodic_translation

        d, pts = self._decomp(nblocks=3, n=800)
        sample = pts[:120]
        radius = 1.5
        for gid in range(d.nblocks):
            got = {
                (link.gid, link.wrap): mask
                for link, mask in d.neighbors_near_points(gid, sample, radius)
            }
            for link in d.block(gid).links:
                shift = periodic_translation(
                    np.asarray(link.wrap, dtype=float), d.domain
                )
                expected = d.block_region(link.gid).within(
                    sample + shift, radius
                )
                mask = got.get((link.gid, link.wrap))
                if mask is None:
                    assert not expected.any()
                else:
                    np.testing.assert_array_equal(mask, expected)

    def test_rejects_uncovered_owners(self):
        domain = Bounds.cube(8.0)
        # Owners 0 and 2 but nothing owns gid 1: the owner set has a hole.
        owners = np.array([0, 0, 0, 0, 2, 2, 2, 2], dtype=np.int64)
        with pytest.raises(ValueError):
            BalancedDecomposition(domain, (2, 2, 2), owners, periodic=True)


BACKENDS = ("thread", "process")


class TestBalanceParity:
    """Satellite 4: analysis results identical with balancing on vs off."""

    @pytest.mark.parametrize("exec_backend", BACKENDS)
    @pytest.mark.parametrize("nblocks", (1, 2, 4))
    def test_tessellation_identical(self, nblocks, exec_backend):
        pts, domain = _clustered()
        static = tessellate(
            pts, domain, nblocks=nblocks, exec_backend=exec_backend
        )
        balanced = tessellate(
            pts,
            domain,
            nblocks=nblocks,
            exec_backend=exec_backend,
            balance_threshold=1.05,
        )
        if nblocks > 1:
            assert balanced.balance is not None
            assert balanced.balance["rebalanced"]
            assert balanced.balance["max_over_mean_after"] < 1.25
        assert balanced.num_cells == static.num_cells
        np.testing.assert_array_equal(
            np.sort(balanced.site_ids()), np.sort(static.site_ids())
        )
        match = match_tessellations(balanced, static)
        assert match.cells_matching == static.num_cells

    @pytest.mark.parametrize("exec_backend", BACKENDS)
    def test_voids_identical(self, exec_backend):
        from repro.analysis.voids import find_voids

        pts, domain = _clustered()
        catalogs = []
        for threshold in (None, 1.05):
            tess = tessellate(
                pts,
                domain,
                nblocks=4,
                exec_backend=exec_backend,
                balance_threshold=threshold,
            )
            catalogs.append(find_voids(tess))
        static_cat, balanced_cat = catalogs
        assert balanced_cat.num_voids == static_cat.num_voids
        static_parts = {frozenset(v.site_ids.tolist()) for v in static_cat.voids}
        balanced_parts = {
            frozenset(v.site_ids.tolist()) for v in balanced_cat.voids
        }
        assert balanced_parts == static_parts

    def test_distributed_voids_on_balanced_decomposition(self):
        from repro.analysis.voids import find_voids_distributed
        from repro.core.tessellate import tessellate_distributed
        from repro.diy.comm import run_parallel

        pts, domain = _clustered()
        pid = np.arange(len(pts), dtype=np.int64)
        hist = compute_cell_counts(pts, domain, 8)
        balanced = rebalance_decomposition(domain, hist, 2)
        static = Decomposition.regular(domain, 2, periodic=True)

        ghost = 4.0 * (domain.volume / len(pts)) ** (1.0 / 3.0)

        def worker(comm, decomp, pts, pid, ghost):
            mine = decomp.locate(pts) == comm.rank
            block, _, _ = tessellate_distributed(
                comm, decomp, pts[mine], pid[mine], ghost=ghost
            )
            return find_voids_distributed(comm, block)

        cat_s = run_parallel(2, worker, static, pts, pid, ghost)[0]
        cat_b = run_parallel(2, worker, balanced, pts, pid, ghost)[0]
        assert cat_b.num_voids == cat_s.num_voids
        assert {frozenset(v.site_ids.tolist()) for v in cat_b.voids} == {
            frozenset(v.site_ids.tolist()) for v in cat_s.voids
        }


class TestSimulationRebalance:
    def _spec(self):
        return {
            "tools": [
                {"tool": "tessellation", "params": {"ghost": 4.0}, "steps": [4]},
                {"tool": "void_finder", "steps": [4]},
            ]
        }

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_end_to_end_identical_and_rebalanced(self, backend):
        from repro.hacc import SimulationConfig
        from repro.insitu import run_simulation_with_tools

        cfg = SimulationConfig(np_side=10, nsteps=4, seed=5)
        static = run_simulation_with_tools(
            cfg, self._spec(), nranks=2, backend=backend
        )
        balanced = run_simulation_with_tools(
            cfg,
            self._spec(),
            nranks=2,
            backend=backend,
            balance_threshold=1.001,
        )
        assert static.rebalances == 0
        assert balanced.rebalances >= 1
        t_s, t_b = static["tessellation"][4], balanced["tessellation"][4]
        assert t_b.num_cells == t_s.num_cells
        np.testing.assert_array_equal(
            np.sort(t_b.site_ids()), np.sort(t_s.site_ids())
        )
        assert match_tessellations(t_b, t_s).cells_matching == t_s.num_cells
        v_s, v_b = static["void_finder"][4], balanced["void_finder"][4]
        assert v_b.num_voids == v_s.num_voids
        assert {frozenset(v.site_ids.tolist()) for v in v_b.voids} == {
            frozenset(v.site_ids.tolist()) for v in v_s.voids
        }

    def test_rebalance_reduces_imbalance_and_conserves_ids(self):
        from repro.diy.comm import run_parallel
        from repro.hacc import SimulationConfig
        from repro.hacc.simulation import HACCSimulation

        cfg = SimulationConfig(
            np_side=10, nsteps=3, seed=5, balance_threshold=1.001
        )

        def worker(comm):
            sim = HACCSimulation(cfg, comm=comm)
            sim.run()
            counts = comm.allgather(sim.num_local)
            ids = comm.gather(np.asarray(sim.local.ids))
            return (
                sim.rebalances,
                sim.last_imbalance,
                counts,
                None if ids is None else np.sort(np.concatenate(ids)),
            )

        results = run_parallel(2, worker)
        assert all(r[0] >= 1 for r in results)
        assert all(r[0] == results[0][0] for r in results)  # collective
        # Post-rebalance ownership tracks the balanced decomposition.
        assert results[0][1] is not None
        np.testing.assert_array_equal(
            results[0][3], np.arange(cfg.np_side**3, dtype=np.int64)
        )

    def test_config_validation(self):
        from repro.hacc import SimulationConfig

        with pytest.raises(ValueError):
            SimulationConfig(np_side=4, nsteps=1, balance_threshold=1.0)
        with pytest.raises(ValueError):
            SimulationConfig(np_side=4, nsteps=1, balance_grid=1)
        with pytest.raises(ValueError):
            SimulationConfig(np_side=4, nsteps=1, balance_every=0)

    def test_observe_gauges_published(self):
        from repro import observe
        from repro.diy.comm import run_parallel
        from repro.hacc import SimulationConfig
        from repro.hacc.simulation import HACCSimulation

        cfg = SimulationConfig(
            np_side=8, nsteps=2, seed=5, balance_threshold=1.001
        )

        def worker(comm):
            sim = HACCSimulation(cfg, comm=comm)
            sim.run()
            return sim.rebalances

        observe.enable()
        try:
            # Thread backend: the ranks share this process's registry.
            rebalances = run_parallel(2, worker)
            gauges = observe.registry().as_dict()["gauges"]
            assert any(k.startswith("balance.max_over_mean") for k in gauges)
            if all(r >= 1 for r in rebalances):
                assert any(k.startswith("balance.post.") for k in gauges)
                counters = observe.registry().as_dict()["counters"]
                assert any(
                    k.startswith("balance.rebalances") for k in counters
                )
        finally:
            observe.disable()


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
