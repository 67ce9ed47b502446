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
    connected_components_at_root,
)

from .components_reference import UnionFind


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

    def test_grouping_lists_each_components_members(self):
        domain = Bounds.cube(10.0)
        tess = tessellate(two_cluster_points(5), domain, nblocks=2, ghost=4.0)
        lab = connected_components(tess, vmin=float(np.median(tess.volumes())))
        order, bounds = lab.grouping()
        assert len(bounds) == lab.num_components + 1
        for l in range(lab.num_components):
            np.testing.assert_array_equal(
                lab.site_ids[order[bounds[l] : bounds[l + 1]]], lab.members(l)
            )

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


def _labeling_at_root(comm, decomp, pts, ids, vmin):
    """Module-level (so it leases the rank pool): tessellate this rank's
    share of ``pts`` and label the components at rank 0."""
    mine = decomp.locate(pts) == comm.rank
    block, _, _ = tessellate_distributed(
        comm, decomp, pts[mine], ids[mine], ghost=4.0
    )
    return connected_components_at_root(comm, block, vmin=vmin)


class TestDistributedComponents:
    def test_matches_serial(self):
        domain = Bounds.cube(10.0)
        pts = two_cluster_points(8)
        ids = np.arange(len(pts), dtype=np.int64)
        decomp = Decomposition.regular(domain, 4, periodic=True)
        serial = tessellate(pts, domain, nblocks=1, ghost=4.0)
        vmin = float(np.quantile(serial.volumes(), 0.5))
        ref = connected_components(serial, vmin=vmin)
        labelings = run_parallel(4, _labeling_at_root, decomp, pts, ids, vmin)
        # Rank 0 holds the global labeling, the others nothing.
        assert all(lab is None for lab in labelings[1:])
        lab = labelings[0]
        assert lab.num_components == ref.num_components
        def partition(l):
            return sorted(tuple(sorted(l.members(k))) for k in range(l.num_components))
        assert partition(lab) == partition(ref)
