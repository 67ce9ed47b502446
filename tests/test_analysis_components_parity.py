"""Parity suite: dict oracle == flat kernels == distributed labeling.

The flat-array component kernels (`ArrayUnionFind` and the packed-row
merge that `connected_components`, `connected_components_at_root`, the
void finders and the tracking tool all run) must produce partitions
identical to the per-cell dict reference
(``tests/components_reference.py``) — up to label renaming — at 1/2/4
ranks, including a void spanning the periodic
seam, plus a property test over random thresholds.  Also asserts the
merge ships numpy int64 edge arrays (no pickled tuple lists) with a
CommStats/bytes check.
"""

import numpy as np
import pytest

from repro.analysis.components import (
    connected_components,
    connected_components_at_root,
)
from repro.analysis.voids import find_voids, find_voids_distributed
from repro.core import tessellate, tessellate_distributed
from repro.diy.bounds import Bounds
from repro.diy.comm import run_parallel
from repro.diy.decomposition import Decomposition

from .components_reference import connected_components_dict

BOX = 10.0


def partition(lab):
    """Canonical form of a labeling: sorted tuple-of-member-tuples."""
    return sorted(
        tuple(sorted(int(s) for s in lab.members(l)))
        for l in range(lab.num_components)
    )


def seam_void_points(seed=11):
    """Dense background with a sparse strip spanning the periodic x seam.

    The strip's big cells form ONE void that wraps through x=0, so any
    block decomposition splits it across ranks — the merge must join it
    back through the periodic boundary edges.
    """
    rng = np.random.default_rng(seed)
    dense = rng.uniform([1.5, 0, 0], [8.5, BOX, BOX], size=(420, 3))
    strip_lo = rng.uniform([0, 0, 0], [1.5, BOX, BOX], size=(5, 3))
    strip_hi = rng.uniform([8.5, 0, 0], [BOX, BOX, BOX], size=(5, 3))
    pts = np.vstack([dense, strip_lo, strip_hi])
    return np.clip(pts, 1e-3, BOX - 1e-3)


@pytest.fixture(scope="module")
def seam_case():
    pts = seam_void_points()
    serial = tessellate(pts, Bounds.cube(BOX), nblocks=1, ghost=4.0)
    vmin = float(np.quantile(serial.volumes(), 0.9))
    return pts, serial, vmin


class TestSerialFlatParity:
    def test_matches_dict_oracle_on_seam_void(self, seam_case):
        pts, serial, vmin = seam_case
        flat = connected_components(serial, vmin=vmin)
        oracle = connected_components_dict(serial, vmin=vmin)
        assert partition(flat) == partition(oracle)

    def test_seam_void_is_one_component(self, seam_case):
        """The sparse strip wraps through x=0: its cells must merge."""
        pts, serial, vmin = seam_case
        flat = connected_components(serial, vmin=vmin)
        strip_ids = set(range(420, 430))  # the 10 strip particles
        strip_labels = {
            int(l)
            for s, l in zip(flat.site_ids, flat.labels)
            if int(s) in strip_ids
        }
        assert len(strip_labels) == 1

    @pytest.mark.parametrize("nblocks", [2, 4, 8])
    def test_multiblock_matches_single_block(self, seam_case, nblocks):
        pts, serial, vmin = seam_case
        multi = tessellate(pts, Bounds.cube(BOX), nblocks=nblocks, ghost=4.0)
        assert partition(connected_components(multi, vmin=vmin)) == partition(
            connected_components(serial, vmin=vmin)
        )

    @pytest.mark.parametrize("quantile", [0.1, 0.35, 0.6, 0.85])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_property_random_thresholds(self, seed, quantile):
        """Flat kernels == oracle for random clouds at random thresholds."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, BOX, size=(250, 3))
        tess = tessellate(pts, Bounds.cube(BOX), nblocks=4, ghost=4.0)
        vmin = float(np.quantile(tess.volumes(), quantile))
        flat = connected_components(tess, vmin=vmin)
        oracle = connected_components_dict(tess, vmin=vmin)
        assert partition(flat) == partition(oracle)
        np.testing.assert_array_equal(flat.site_ids, oracle.site_ids)


def _distributed_worker(comm, pts, ids, decomp, vmin, check_payloads):
    """One rank: tessellate own block, label distributed, verify traffic."""
    mine = decomp.locate(pts) == comm.rank
    block, _, _ = tessellate_distributed(
        comm, decomp, pts[mine], ids[mine], ghost=4.0
    )

    payloads = []
    if check_payloads:
        orig_gather = comm.gather

        def recording_gather(obj, root=0):
            payloads.append(obj)
            return orig_gather(obj, root=root)

        comm.gather = recording_gather

    before = comm.stats.snapshot()
    labeling = connected_components_at_root(comm, block, vmin=vmin)
    delta = comm.stats.since(before)

    if check_payloads:
        comm.gather = orig_gather
        # The merge must ship one packed numpy int64 row array, never
        # Python tuple lists (the old per-object path): a link row per
        # kept cell, whose sources are exactly the rank's kept cells.
        assert len(payloads) == 1, "expected exactly one gather (rows)"
        (rows,) = payloads
        assert isinstance(rows, np.ndarray) and rows.dtype == np.int64
        assert rows.ndim == 2 and rows.shape[1] == 2
        kept = np.sort(block.site_ids[block.volumes >= vmin])
        np.testing.assert_array_equal(np.unique(rows[:, 0]), kept)
        # CommStats: the merge is one collective round (nothing comes
        # back), and every rank's sent bytes cover at least its own
        # packed rows (tree gather forwards subtree bundles, so
        # intermediate ranks send more, never less).
        assert delta.collective_calls.get("gather") == 1
        assert "bcast" not in delta.collective_calls
        if comm.size > 1 and comm.rank != 0:
            assert delta.bytes_sent >= rows.nbytes
    return labeling


@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_distributed_matches_oracle(seam_case, nranks):
    pts, serial, vmin = seam_case
    ids = np.arange(len(pts), dtype=np.int64)
    decomp = Decomposition.regular(Bounds.cube(BOX), nranks, periodic=True)
    ref = partition(connected_components_dict(serial, vmin=vmin))

    labelings = run_parallel(
        nranks, _distributed_worker, pts, ids, decomp, vmin, True
    )
    assert all(lab is None for lab in labelings[1:])  # the root's alone
    assert partition(labelings[0]) == ref


def _voids_worker(comm, pts, ids, decomp, vmin_fraction):
    mine = decomp.locate(pts) == comm.rank
    block, _, _ = tessellate_distributed(
        comm, decomp, pts[mine], ids[mine], ghost=4.0
    )
    return find_voids_distributed(
        comm, block, vmin_fraction=vmin_fraction, min_cells=2
    )


def test_find_voids_distributed_matches_serial(seam_case):
    pts, serial, _ = seam_case
    ids = np.arange(len(pts), dtype=np.int64)
    decomp = Decomposition.regular(Bounds.cube(BOX), 4, periodic=True)
    ref = find_voids(serial, min_cells=2)

    catalogs = run_parallel(
        4, _voids_worker, pts, ids, decomp, 0.1
    )
    for catalog in catalogs:
        assert catalog.vmin == pytest.approx(ref.vmin)
        assert catalog.num_voids == ref.num_voids
        got = sorted(tuple(v.site_ids) for v in catalog.voids)
        want = sorted(tuple(v.site_ids) for v in ref.voids)
        assert got == want
        assert catalog.total_volume() == pytest.approx(ref.total_volume())
