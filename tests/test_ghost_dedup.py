"""Regression tests for integer-exact ghost deduplication.

The old dedup key concatenated the rounded positions with
``ghost_ids.astype(float)`` — float64 is lossy above 2**53, so distinct
int64 ids silently collide in exactly the production id spaces the
ROADMAP targets.  The fix dedups on an integer-exact (quantized position,
id) key; these tests pin both the 2**63-adjacent behavior and the
bit-identical small-id semantics across process ranks.
"""

import numpy as np
import pytest

from repro.core.ghost import _dedup_ghosts, exchange_ghost_particles
from repro.diy.bounds import Bounds
from repro.diy.comm import run_parallel
from repro.diy.decomposition import Decomposition

BIG = 2**63 - 128  # int64 ids that all collapse to the same float64


def _old_float_dedup(pos, ids):
    """The pre-fix float-key dedup, kept as the small-id oracle."""
    key = np.round(pos, 9)
    _, unique_idx = np.unique(
        np.concatenate([key, ids[:, None].astype(float)], axis=1),
        axis=0,
        return_index=True,
    )
    unique_idx.sort()
    return pos[unique_idx], ids[unique_idx]


class TestDedupKernel:
    def test_huge_ids_do_not_collide(self):
        """Distinct ids near 2**63 share a float64 image; all must survive."""
        ids = np.array([BIG, BIG + 1, BIG + 2], dtype=np.int64)
        assert len({float(i) for i in ids.tolist()}) == 1  # the trap
        pos = np.zeros((3, 3))
        _, kept = _dedup_ghosts(pos, ids)
        assert sorted(kept.tolist()) == sorted(ids.tolist())

    def test_true_duplicates_still_collapse(self):
        ids = np.array([BIG, BIG + 1, BIG], dtype=np.int64)
        pos = np.array([[1.0, 2.0, 3.0]] * 3)
        kept_pos, kept = _dedup_ghosts(pos, ids)
        assert sorted(kept.tolist()) == [BIG, BIG + 1]
        assert kept_pos.shape == (2, 3)

    def test_same_id_different_position_kept(self):
        """Periodic images share an id but differ in translated position."""
        ids = np.array([7, 7], dtype=np.int64)
        pos = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        _, kept = _dedup_ghosts(pos, ids)
        assert len(kept) == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_small_ids_match_old_float_path(self, seed):
        """For ids < 2**53 the fix is bit-identical to the old behavior."""
        rng = np.random.default_rng(seed)
        n = 80
        pos = rng.uniform(0, 10, size=(n, 3))
        ids = rng.integers(0, 2**52, size=n, dtype=np.int64)
        # inject duplicate rows (same id + position, as multi-link
        # delivery produces)
        dup = rng.integers(0, n, size=20)
        pos = np.vstack([pos, pos[dup]])
        ids = np.concatenate([ids, ids[dup]])
        new_pos, new_ids = _dedup_ghosts(pos, ids)
        old_pos, old_ids = _old_float_dedup(pos, ids)
        np.testing.assert_array_equal(new_ids, old_ids)
        np.testing.assert_array_equal(new_pos, old_pos)

    def test_empty(self):
        pos, ids = _dedup_ghosts(np.empty((0, 3)), np.empty(0, dtype=np.int64))
        assert len(pos) == 0 and len(ids) == 0


def _exchange_worker(comm, pts, ids, decomp, ghost):
    mine = decomp.locate(pts) == comm.rank
    gpos, gids = exchange_ghost_particles(
        decomp, comm, comm.rank, pts[mine], ids[mine], ghost
    )
    return gpos.copy(), gids.copy()


def test_exchange_with_huge_ids_matches_small_ids():
    """End-to-end: the exchange yields the same ghost sets whether ids are
    small or offset into the float-lossy range above 2**53."""
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 10, size=(300, 3))
    small = np.arange(len(pts), dtype=np.int64)
    huge = small + (BIG - len(pts))
    decomp = Decomposition.regular(Bounds.cube(10.0), 4, periodic=True)

    got_small = run_parallel(
        4, _exchange_worker, pts, small, decomp, 2.5
    )
    got_huge = run_parallel(
        4, _exchange_worker, pts, huge, decomp, 2.5
    )
    for (spos, sids), (hpos, hids) in zip(got_small, got_huge):
        assert len(sids) > 0  # the exchange actually produced ghosts
        np.testing.assert_array_equal(hids - (BIG - len(pts)), sids)
        np.testing.assert_array_equal(hpos, spos)
