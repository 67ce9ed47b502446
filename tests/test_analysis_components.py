"""Tests for thresholding and connected-component labeling."""

import numpy as np
import pytest

from repro.diy.bounds import Bounds
from repro.diy.comm import run_parallel
from repro.diy.decomposition import Decomposition
from repro.core import tessellate, tessellate_distributed
from repro.analysis.components import (
    ArrayUnionFind,
    connected_components,
    connected_components_distributed,
)
from repro.analysis.threshold import (
    density_threshold_mask,
    kept_site_ids,
    volume_threshold_mask,
)

from .components_reference import UnionFind, block_edges


class TestUnionFind:
    def test_singletons(self):
        uf = UnionFind()
        for x in "abc":
            uf.add(x)
        assert len(uf) == 3
        assert len(uf.groups()) == 3

    def test_union_and_find(self):
        uf = UnionFind()
        for x in range(5):
            uf.add(x)
        uf.union(0, 1)
        uf.union(3, 4)
        uf.union(1, 3)
        assert uf.find(0) == uf.find(4)
        assert uf.find(2) != uf.find(0)
        groups = uf.groups()
        assert sorted(map(len, groups.values())) == [1, 4]

    def test_idempotent_union(self):
        uf = UnionFind()
        uf.add(1)
        uf.add(2)
        uf.union(1, 2)
        uf.union(2, 1)
        assert len(uf.groups()) == 1

    def test_contains(self):
        uf = UnionFind()
        uf.add("x")
        assert "x" in uf and "y" not in uf

    def test_find_unregistered_names_the_id(self):
        """The error must name the offending id, not be a bare KeyError."""
        uf = UnionFind()
        uf.add(1)
        with pytest.raises(KeyError, match=r"id 977 is not registered"):
            uf.find(977)

    def test_union_with_unregistered_neighbor_raises(self):
        """The unregistered-neighbor path the reference labeling guards."""
        uf = UnionFind()
        uf.add(5)
        with pytest.raises(KeyError, match=r"977"):
            uf.union(5, 977)


class TestArrayUnionFind:
    def test_singletons(self):
        uf = ArrayUnionFind(4)
        assert len(uf) == 4
        assert [uf.find(i) for i in range(4)] == [0, 1, 2, 3]
        np.testing.assert_array_equal(uf.labels(), [0, 1, 2, 3])

    def test_union_and_find(self):
        uf = ArrayUnionFind(5)
        uf.union(0, 1)
        uf.union(3, 4)
        uf.union(1, 3)
        assert uf.find(0) == uf.find(4)
        assert uf.find(2) != uf.find(0)
        np.testing.assert_array_equal(uf.labels(), [0, 0, 1, 0, 0])

    def test_root_is_minimum_member(self):
        uf = ArrayUnionFind(6)
        uf.union(5, 3)
        uf.union(3, 1)
        assert uf.find(5) == 1

    def test_find_many_compresses(self):
        uf = ArrayUnionFind(8)
        uf.union_edges(np.arange(7), np.arange(1, 8))  # one chain
        roots = uf.find_many(np.arange(8))
        np.testing.assert_array_equal(roots, np.zeros(8, dtype=np.int64))
        np.testing.assert_array_equal(uf.parent, np.zeros(8, dtype=np.int64))

    def test_union_edges_empty(self):
        uf = ArrayUnionFind(3)
        uf.union_edges(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert uf.labels().tolist() == [0, 1, 2]

    def test_union_edges_length_mismatch(self):
        uf = ArrayUnionFind(3)
        with pytest.raises(ValueError):
            uf.union_edges(np.array([0]), np.array([1, 2]))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_dict_oracle_on_random_graphs(self, seed):
        """Bulk vectorized unions == the dict oracle, edge for edge."""
        rng = np.random.default_rng(seed)
        n, m = 120, 300
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        auf = ArrayUnionFind(n)
        auf.union_edges(src, dst)
        duf = UnionFind()
        for i in range(n):
            duf.add(i)
        for a, b in zip(src.tolist(), dst.tolist()):
            duf.union(a, b)
        groups = sorted(tuple(g) for g in duf.groups().values())
        labels = auf.labels()
        flat_groups = sorted(
            tuple(np.flatnonzero(labels == l).tolist())
            for l in range(int(labels.max()) + 1)
        )
        assert flat_groups == groups


class TestAdjacencyEdges:
    @pytest.mark.parametrize("quantile", [0.0, 0.5, 0.9])
    def test_matches_per_cell_oracle(self, quantile):
        domain = Bounds.cube(10.0)
        tess = tessellate(two_cluster_points(9), domain, nblocks=4, ghost=4.0)
        vmin = float(np.quantile(tess.volumes(), quantile))
        mask = tess.volumes() >= vmin
        kept_arr = np.unique(tess.site_ids()[mask])
        kept_set = set(kept_arr.tolist())
        for block in tess.blocks:
            _, oracle_edges = block_edges(block, kept_set)
            edges = block.adjacency_edges(kept_arr)
            assert sorted(map(tuple, edges.tolist())) == sorted(oracle_edges)

    def test_empty_kept(self):
        domain = Bounds.cube(10.0)
        tess = tessellate(two_cluster_points(10), domain, nblocks=1, ghost=4.0)
        edges = tess.blocks[0].adjacency_edges(np.empty(0, dtype=np.int64))
        assert edges.shape == (0, 2)


def two_cluster_points(seed=0):
    """Two well-separated tight clusters plus a background.

    The background is dense enough that no cell's extent approaches the
    ghost sizes used below — the sufficient-ghost regime where parallel
    results are exact (cf. paper Table I).
    """
    rng = np.random.default_rng(seed)
    a = rng.normal([2.5, 2.5, 2.5], 0.35, size=(60, 3))
    b = rng.normal([7.5, 7.5, 7.5], 0.35, size=(60, 3))
    bg = rng.uniform(0, 10, size=(250, 3))
    pts = np.clip(np.vstack([a, b, bg]), 0.001, 9.999)
    return pts


class TestThresholdMasks:
    def test_volume_mask(self):
        domain = Bounds.cube(10.0)
        tess = tessellate(two_cluster_points(), domain, nblocks=1, ghost=4.0)
        v = tess.volumes()
        vmin = float(np.median(v))
        mask = volume_threshold_mask(tess, vmin=vmin)
        assert mask.sum() == (v >= vmin).sum()
        assert np.all(v[mask] >= vmin)

    def test_density_mask_is_dual(self):
        domain = Bounds.cube(10.0)
        tess = tessellate(two_cluster_points(1), domain, nblocks=1, ghost=4.0)
        v = tess.volumes()
        vmin = float(np.median(v))
        np.testing.assert_array_equal(
            volume_threshold_mask(tess, vmin=vmin),
            density_threshold_mask(tess, dmax=1.0 / vmin),
        )

    def test_kept_site_ids(self):
        domain = Bounds.cube(10.0)
        tess = tessellate(two_cluster_points(2), domain, nblocks=1, ghost=4.0)
        mask = volume_threshold_mask(tess, vmin=0.0)
        assert len(kept_site_ids(tess, mask)) == tess.num_cells
        with pytest.raises(ValueError):
            kept_site_ids(tess, mask[:-1])


class TestConnectedComponents:
    def test_all_cells_one_component(self):
        """With no threshold, a periodic tessellation is fully connected."""
        domain = Bounds.cube(10.0)
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 10, size=(200, 3))
        tess = tessellate(pts, domain, nblocks=2, ghost=4.0)
        lab = connected_components(tess)
        assert lab.num_components == 1
        assert len(lab.site_ids) == 200

    def test_two_clusters_split_by_density_threshold(self):
        """Cells inside tight clusters are small; a vmax threshold keeps
        only cluster cells, which form (at least) two components."""
        domain = Bounds.cube(10.0)
        tess = tessellate(two_cluster_points(4), domain, nblocks=1, ghost=4.0)
        v = tess.volumes()
        vmax = float(np.quantile(v, 0.45))  # keep only the small cells
        lab = connected_components(tess, vmax=vmax)
        assert lab.num_components >= 2
        sizes = lab.sizes()
        assert sorted(sizes)[-2] >= 10  # two sizable cluster cores

    def test_members_and_label_of(self):
        domain = Bounds.cube(10.0)
        tess = tessellate(two_cluster_points(5), domain, nblocks=1, ghost=4.0)
        lab = connected_components(tess)
        all_members = np.concatenate(
            [lab.members(l) for l in range(lab.num_components)]
        )
        assert sorted(all_members) == sorted(lab.site_ids)
        lom = lab.label_of()
        for sid, l in zip(lab.site_ids, lab.labels):
            assert lom[int(sid)] == int(l)

    def test_empty_threshold(self):
        domain = Bounds.cube(10.0)
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 10, size=(100, 3))
        tess = tessellate(pts, domain, nblocks=1, ghost=4.0)
        lab = connected_components(tess, vmin=1e9)
        assert lab.num_components == 0
        assert len(lab.site_ids) == 0

    def test_blockcount_invariance(self):
        """Labeling must not depend on the block decomposition."""
        domain = Bounds.cube(10.0)
        pts = two_cluster_points(7)
        t1 = tessellate(pts, domain, nblocks=1, ghost=4.0)
        t8 = tessellate(pts, domain, nblocks=8, ghost=4.0)
        vmin = float(np.quantile(t1.volumes(), 0.6))
        l1 = connected_components(t1, vmin=vmin)
        l8 = connected_components(t8, vmin=vmin)
        assert l1.num_components == l8.num_components
        # Identical partitions of the same site-id set.
        def partition(lab):
            return sorted(
                tuple(sorted(lab.members(l))) for l in range(lab.num_components)
            )
        assert partition(l1) == partition(l8)


class TestDistributedComponents:
    def test_matches_serial(self):
        domain = Bounds.cube(10.0)
        pts = two_cluster_points(8)
        ids = np.arange(len(pts), dtype=np.int64)
        decomp = Decomposition.regular(domain, 4, periodic=True)
        serial = tessellate(pts, domain, nblocks=1, ghost=4.0)
        vmin = float(np.quantile(serial.volumes(), 0.5))
        ref = connected_components(serial, vmin=vmin)

        def worker(comm):
            mine = decomp.locate(pts) == comm.rank
            block, _, _ = tessellate_distributed(
                comm, decomp, pts[mine], ids[mine], ghost=4.0
            )
            return connected_components_distributed(comm, block, vmin=vmin)

        labelings = run_parallel(4, worker)
        # All ranks hold the identical global labeling.
        for lab in labelings:
            np.testing.assert_array_equal(lab.site_ids, labelings[0].site_ids)
            np.testing.assert_array_equal(lab.labels, labelings[0].labels)
        lab = labelings[0]
        assert lab.num_components == ref.num_components
        def partition(l):
            return sorted(tuple(sorted(l.members(k))) for k in range(l.num_components))
        assert partition(lab) == partition(ref)
