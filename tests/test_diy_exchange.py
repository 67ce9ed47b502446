"""Tests for the neighborhood exchange (repro.diy.exchange)."""

import numpy as np
import pytest

from repro.diy.bounds import Bounds
from repro.diy.comm import ParallelError, run_parallel
from repro.diy.decomposition import Decomposition
from repro.diy.exchange import Assignment, NeighborExchanger


class TestAssignment:
    def test_round_robin(self):
        a = Assignment(nblocks=8, nranks=3)
        assert [a.rank_of(g) for g in range(8)] == [0, 1, 2, 0, 1, 2, 0, 1]
        assert a.gids_of(0) == [0, 3, 6]
        assert a.gids_of(2) == [2, 5]

    def test_one_block_per_rank(self):
        a = Assignment(4, 4)
        assert all(a.rank_of(g) == g for g in range(4))

    def test_more_ranks_than_blocks_rejected(self):
        with pytest.raises(ValueError):
            Assignment(2, 4)

    def test_out_of_range(self):
        a = Assignment(4, 2)
        with pytest.raises(ValueError):
            a.rank_of(4)
        with pytest.raises(ValueError):
            a.gids_of(2)


def _translate_payload(payload, translation):
    """Transform callback: payload is a positions array."""
    return payload + translation


# Module-level workers: picklable by reference, so they lease the rank pool.
def _face_exchange(comm, decomp):
    ex = NeighborExchanger(decomp, comm)
    gid = comm.rank
    link = next(l for l in decomp.block(gid).links if l.gid == 1 - gid)
    ex.enqueue(gid, link, f"from-{gid}")
    inbox = ex.exchange()
    return inbox[gid]


def _rank0_sends(comm, decomp):
    ex = NeighborExchanger(decomp, comm)
    if comm.rank == 0:
        link = decomp.block(0).links[0]
        ex.enqueue(0, link, "x")
    return ex.exchange()


def _enqueue_foreign(comm, decomp):
    ex = NeighborExchanger(decomp, comm)
    ex.enqueue(1 - comm.rank, decomp.block(1 - comm.rank).links[0], "x")


def _two_rounds(comm, decomp):
    ex = NeighborExchanger(decomp, comm)
    link = next(l for l in decomp.block(comm.rank).links)
    ex.enqueue(comm.rank, link, "round1")
    first = ex.exchange()
    second = ex.exchange()  # nothing enqueued
    return (first, second)


def _seam_exchange(comm, decomp):
    ex = NeighborExchanger(decomp, comm, transform=_translate_payload)
    gid = comm.rank
    pos = np.array([[7.9, 1.0, 1.0]]) if gid == 1 else np.array([[0.1, 1.0, 1.0]])
    for link in decomp.block(gid).links:
        wraps = link.wrap[0] != 0 and link.wrap[1:] == (0, 0)
        if link.gid == 1 - gid and wraps:
            ex.enqueue(gid, link, pos.copy())
        if link.gid == 1 - gid and link.wrap == (0, 0, 0):
            ex.enqueue(gid, link, pos.copy())
    inbox = ex.exchange()
    return inbox[gid]


def _ghost_exchange(comm, decomp, ghost, seed, npts):
    """Each rank's random core points, and the ghosts it received."""
    gid = comm.rank
    lo, hi = decomp.block(gid).core.as_arrays()
    pts = np.random.default_rng(seed + gid).uniform(lo, hi, size=(npts, 3))
    ex = NeighborExchanger(decomp, comm, transform=_translate_payload)
    for link, mask in decomp.neighbors_near_points(gid, pts, ghost):
        if mask.any():
            ex.enqueue(gid, link, pts[mask].copy())
    inbox = ex.exchange()
    received = np.concatenate([p for _, p in inbox[gid]] or [np.empty((0, 3))])
    return pts, received


class TestExchangeBasics:
    def test_face_exchange_two_blocks(self):
        decomp = Decomposition(Bounds.cube(8.0), (2, 1, 1), periodic=False)
        out = run_parallel(2, _face_exchange, decomp)
        assert out[0] == [(1, "from-1")]
        assert out[1] == [(0, "from-0")]

    def test_exchange_requires_all_ranks(self):
        # A rank with nothing to send still participates and gets an inbox.
        decomp = Decomposition(Bounds.cube(8.0), (2, 1, 1), periodic=False)
        out = run_parallel(2, _rank0_sends, decomp)
        assert out[1][1] == [(0, "x")]
        assert out[0][0] == []

    def test_enqueue_foreign_block_rejected(self):
        decomp = Decomposition(Bounds.cube(8.0), (2, 1, 1), periodic=False)
        with pytest.raises(ParallelError):
            run_parallel(2, _enqueue_foreign, decomp)

    def test_multiple_blocks_per_rank_serial(self):
        # Serial mode: 1 rank owns 4 blocks and exchanges with itself.
        decomp = Decomposition(Bounds.cube(8.0), (2, 2, 1), periodic=False)

        def f(comm):
            ex = NeighborExchanger(decomp, comm)
            for gid in ex.local_gids:
                for link in decomp.block(gid).links:
                    ex.enqueue(gid, link, (gid, link.gid))
            return ex.exchange()

        inbox = run_parallel(1, f)[0]
        assert set(inbox) == {0, 1, 2, 3}
        # Every block hears from its 3 neighbors exactly once.
        for gid, items in inbox.items():
            srcs = sorted(src for src, _ in items)
            assert srcs == sorted(set(range(4)) - {gid})
            for src, (s, d) in items:
                assert s == src and d == gid

    def test_queue_cleared_between_rounds(self):
        decomp = Decomposition(Bounds.cube(8.0), (2, 1, 1), periodic=False)
        first, second = run_parallel(2, _two_rounds, decomp)[0]
        assert first[0] and not second[0]


class TestPeriodicTransform:
    def test_transform_applied_on_periodic_link_only(self):
        domain = Bounds.cube(8.0)
        decomp = Decomposition(domain, (2, 1, 1), periodic=True)
        out = run_parallel(2, _seam_exchange, decomp)
        # Block 0 receives block 1's particle twice: untransformed through
        # the direct face link, and shifted by -L through the periodic seam.
        got0 = sorted(float(p[0, 0]) for _, p in out[0])
        assert got0 == pytest.approx([-0.1, 7.9])
        got1 = sorted(float(p[0, 0]) for _, p in out[1])
        assert got1 == pytest.approx([0.1, 8.1])

    def test_no_transform_passes_payload_unchanged(self):
        domain = Bounds.cube(8.0)
        decomp = Decomposition(domain, (1, 1, 1), periodic=True)

        def f(comm):
            ex = NeighborExchanger(decomp, comm)  # no transform
            link = decomp.block(0).links[0]
            ex.enqueue(0, link, np.array([[1.0, 2.0, 3.0]]))
            return ex.exchange()

        inbox = run_parallel(1, f)[0]
        np.testing.assert_allclose(inbox[0][0][1], [[1.0, 2.0, 3.0]])


class TestGhostPattern:
    """End-to-end: the near-point targeted ghost pattern of paper Fig. 6."""

    def test_particles_land_in_neighbor_ghost_regions(self):
        domain = Bounds.cube(16.0)
        decomp = Decomposition(domain, (2, 2, 1), periodic=True)
        ghost = 2.0
        out = run_parallel(4, _ghost_exchange, decomp, ghost, 100, 200)
        for gid, (_, received) in enumerate(out):
            ghost_box = decomp.block(gid).ghost_bounds(ghost)
            assert all(ghost_box.contains_closed(received))

    def test_ghost_exchange_is_bidirectional_and_complete(self):
        """Every particle within ghost distance of a neighbor must arrive there."""
        domain = Bounds.cube(8.0)
        decomp = Decomposition(domain, (2, 1, 1), periodic=True)
        ghost = 1.0
        out = run_parallel(2, _ghost_exchange, decomp, ghost, 7, 300)
        for gid in range(2):
            _, received = out[gid]
            core = decomp.block(gid).core
            ghost_box = core.grown(ghost)
            # All received particles are inside the ghost box but not the core
            # interior... they may be inside core? No: they come from the other
            # block's core, disjoint from ours (up to periodic images).
            assert len(received) > 0
            assert np.all(ghost_box.contains_closed(received))
            assert not np.any(core.contains(received))
