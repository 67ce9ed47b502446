"""Tests for the scalable communication layer: tree collectives against
their closed-form values, the sparse exchange path, and the CommStats
observability counters."""

import functools
import itertools
import time

import numpy as np
import pytest

from repro.diy.bounds import Bounds
from repro.diy.comm import ParallelError, run_parallel
from repro.diy.decomposition import Decomposition
from repro.diy.exchange import NeighborExchanger


# Non-commutative ops exercise the rank-order guarantee: string
# concatenation distinguishes every combine order.
def _concat(a, b):
    return a + b


def _fold(op, values):
    """The linear, message-free reference: fold contributions in rank order."""
    return functools.reduce(op, values)


def _bcast_every_root(comm):
    for root in range(comm.size):
        value = {"root": root, "data": list(range(root))}
        got = comm.bcast(value if comm.rank == root else None, root=root)
        assert got == value
    return True


def _gather_every_root(comm):
    for root in range(comm.size):
        got = comm.gather(f"r{comm.rank}", root=root)
        if comm.rank == root:
            assert got == [f"r{i}" for i in range(comm.size)]
        else:
            assert got is None
    return True


def _reduce_concat(comm):
    return comm._reduce(f"[{comm.rank}]", _concat, comm._next_coll_tag())


def _allreduce_concat(comm):
    return comm.allreduce(f"[{comm.rank}]", op=_concat)


def _allreduce_vector(comm):
    return comm.allreduce(np.full(4, float(comm.rank + 1)))


def _exscan_concat(comm):
    return comm.exscan(f"[{comm.rank}]", op=_concat)


def _exscan_bytes(comm):
    return comm.exscan(100 * (comm.rank + 1))


def _bcast_msgs_sent(comm):
    s0 = comm.stats.snapshot()
    comm.bcast("x" if comm.rank == 0 else None, root=0)
    return comm.stats.since(s0).msgs_sent


class TestTreeVsLinearOracles:
    """Tree collectives must equal the linear fold of every rank's
    contribution, computed without message passing, for every size 1-9
    and every root."""

    SIZES = list(range(1, 10))

    @pytest.mark.parametrize("n", SIZES)
    def test_bcast(self, n):
        assert all(run_parallel(n, _bcast_every_root))

    @pytest.mark.parametrize("n", SIZES)
    def test_gather(self, n):
        assert all(run_parallel(n, _gather_every_root))

    @pytest.mark.parametrize("n", SIZES)
    def test_reduce_non_commutative(self, n):
        """The binomial reduce to rank 0 (``allreduce``'s first half on
        non-power-of-two sizes), tested at every size."""
        out = run_parallel(n, _reduce_concat)
        assert out[0] == _fold(_concat, [f"[{i}]" for i in range(n)])
        assert all(r is None for r in out[1:])

    @pytest.mark.parametrize("n", SIZES)
    def test_allreduce_non_commutative(self, n):
        expected = _fold(_concat, [f"[{i}]" for i in range(n)])
        assert run_parallel(n, _allreduce_concat) == [expected] * n

    @pytest.mark.parametrize("n", SIZES)
    def test_allreduce_numpy_sum(self, n):
        total = n * (n + 1) / 2
        for row in run_parallel(n, _allreduce_vector):
            np.testing.assert_allclose(row, total)

    @pytest.mark.parametrize("n", SIZES)
    def test_exscan_non_commutative(self, n):
        out = run_parallel(n, _exscan_concat)
        assert out[0] is None
        for r in range(1, n):
            assert out[r] == _fold(_concat, [f"[{i}]" for i in range(r)])

    @pytest.mark.parametrize("n", SIZES)
    def test_exscan_offsets(self, n):
        """The parallel-writer use case: byte counts to file offsets."""
        out = run_parallel(n, _exscan_bytes)
        assert out[0] is None
        for r in range(1, n):
            assert out[r] == sum(100 * (i + 1) for i in range(r))

    def test_tree_message_counts_logarithmic(self):
        """The busiest rank sends O(log P), not O(P); the tree has P-1 edges."""
        n = 8
        sent = run_parallel(n, _bcast_msgs_sent)
        assert max(sent) == 3  # log2(8)
        assert sum(sent) == n - 1


def _link_payload(gid, link):
    return (gid, link.gid, tuple(link.direction))


def _exchange_every_link(comm, decomp):
    ex = NeighborExchanger(decomp, comm)
    gid = comm.rank
    for link in decomp.block(gid).links:
        ex.enqueue(gid, link, _link_payload(gid, link))
    return ex.exchange()[gid]


def _exchange_block_0_only(comm, decomp):
    ex = NeighborExchanger(decomp, comm)
    gid = comm.rank
    if gid == 0:  # only block 0 talks, to its single +x neighbor
        link = next(l for l in decomp.block(0).links if l.gid == 1)
        ex.enqueue(0, link, "hello")
    s0 = comm.stats.snapshot()
    inbox = ex.exchange()
    delta = comm.stats.since(s0)
    return inbox[gid], delta.as_dict()


def _exchange_nothing(comm, decomp):
    return NeighborExchanger(decomp, comm).exchange()


def _ghosts_received(comm, decomp, pts, ids, owners, ghost):
    from repro.core.ghost import exchange_ghost_particles

    mine = owners == comm.rank
    gpos, gids = exchange_ghost_particles(
        decomp, comm, comm.rank, pts[mine], ids[mine], ghost=ghost
    )
    return sorted(zip(gids.tolist(), map(tuple, np.round(gpos, 9))))


class TestSparseExchange:
    def test_sparse_matches_dense_periodic_2x2x2(self):
        """Every link's payload arrives, in (source rank, enqueue) order —
        the closed-form all-pairs delivery a dense alltoall would make."""
        decomp = Decomposition(Bounds.cube(8.0), (2, 2, 2), periodic=True)
        expected = [
            [
                (src, _link_payload(src, link))
                for src in range(8)
                for link in decomp.block(src).links
                if link.gid == gid
            ]
            for gid in range(8)
        ]
        assert run_parallel(8, _exchange_every_link, decomp) == expected
        assert all(len(batch) > 0 for batch in expected)

    def test_sparse_skips_silent_ranks(self):
        """Only ranks with queued payloads send payload messages."""
        decomp = Decomposition(Bounds.cube(8.0), (4, 1, 1), periodic=False)
        out = run_parallel(4, _exchange_block_0_only, decomp)
        assert out[1][0] == [(0, "hello")]
        assert all(out[r][0] == [] for r in (0, 2, 3))
        # Header allreduce only: sparse payload messages on the silent ranks
        # are exactly zero, so their traffic is the O(log P) header round.
        payload_msgs = [out[r][1]["msgs_sent"] for r in range(4)]
        dense_msgs = 3  # what alltoall would cost every rank
        assert payload_msgs[0] <= dense_msgs + 2  # header + 1 payload
        for r in (2, 3):
            assert payload_msgs[r] <= dense_msgs  # no payload sends at all

    def test_sparse_empty_everywhere(self):
        decomp = Decomposition(Bounds.cube(8.0), (2, 1, 1), periodic=False)
        out = run_parallel(2, _exchange_nothing, decomp)
        assert out == [{0: []}, {1: []}]

    def test_ghost_exchange_matches_brute_force(self):
        """Each block receives exactly the periodic images of other blocks'
        particles within ``ghost`` (Chebyshev) of its box."""
        box, ghost = 4.0, 1.0
        decomp = Decomposition(Bounds.cube(box), (2, 2, 2), periodic=True)
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, box, size=(160, 3))
        ids = np.arange(160, dtype=np.int64)
        owners = decomp.locate(pts)

        def expected(gid):
            lo, hi = decomp.block(gid).core.as_arrays()
            out = set()
            for wrap in itertools.product((-1, 0, 1), repeat=3):
                img = pts + box * np.asarray(wrap, dtype=float)
                dist = np.maximum(np.maximum(lo - img, img - hi), 0.0).max(axis=1)
                for i in np.flatnonzero((dist <= ghost) & (owners != gid)):
                    out.add((int(ids[i]), tuple(np.round(img[i], 9))))
            return sorted(out)

        got = run_parallel(8, _ghosts_received, decomp, pts, ids, owners, ghost)
        for gid in range(8):
            assert got[gid] == expected(gid)
            assert len(got[gid]) > 0


def _p2p_stats(comm, payload):
    if comm.rank == 0:
        comm._send(payload, 1, 1)
    else:
        comm._recv(0, 1)
    return comm.stats.as_dict()


def _collective_calls(comm):
    comm.bcast(1, root=0)
    comm.bcast(2, root=0)
    comm.allreduce(3)
    comm.barrier()
    return dict(comm.stats.collective_calls)


def _late_root_wait(comm):
    if comm.rank == 0:
        time.sleep(0.08)
    comm.bcast("late", root=0)
    return comm.stats.recv_wait_s


def _allreduce_calls_between_snapshots(comm):
    comm.allreduce(1)
    before = comm.stats.snapshot()
    comm.allreduce(2)
    delta = comm.stats.since(before)
    return delta.collective_calls.get("allreduce")


def _rank_1_bcasts_alone(comm):
    if comm.rank == 1:
        comm.bcast(None, root=0)  # rank 0 never joins


class TestCommStats:
    def test_p2p_counters(self):
        payload = np.arange(10, dtype=np.float64)  # 80 bytes
        s0, s1 = run_parallel(2, _p2p_stats, payload)
        assert s0["msgs_sent"] == 1 and s0["bytes_sent"] == 80
        assert s0["msgs_recv"] == 0
        assert s1["msgs_recv"] == 1 and s1["bytes_recv"] == 80
        assert s1["msgs_sent"] == 0

    def test_collective_call_counts(self):
        for calls in run_parallel(3, _collective_calls):
            assert calls["bcast"] == 2
            assert calls["allreduce"] == 1
            assert calls["barrier"] == 1

    def test_recv_wait_time_recorded(self):
        waited = run_parallel(2, _late_root_wait)[1]
        assert waited >= 0.05

    def test_snapshot_since_isolates_regions(self):
        assert run_parallel(2, _allreduce_calls_between_snapshots) == [1, 1]

    def test_tessellation_timings_carry_comm_counters(self):
        from repro.core import tessellate

        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 8.0, size=(300, 3))
        tess = tessellate(pts, Bounds.cube(8.0), nblocks=2, ghost=3.0)
        t = tess.timings
        assert t.msgs_sent > 0 and t.msgs_recv > 0
        assert t.bytes_sent > 0
        assert t.comm_wait >= 0.0
        # The paper-table row keys are unchanged.
        assert sorted(t.as_row()) == [
            "compute_s", "exchange_s", "output_s", "tess_total_s", "wall_total_s",
        ]


class TestConfigurableTimeout:
    def test_recv_timeout_argument(self):
        """A rank that skips a collective leaves its peers waiting; the
        timeout turns that deadlock into a prompt error."""
        t0 = time.perf_counter()
        with pytest.raises(ParallelError) as exc:
            run_parallel(2, _rank_1_bcasts_alone, recv_timeout=0.2)
        assert isinstance(exc.value.original, TimeoutError)
        assert time.perf_counter() - t0 < 30.0
