"""Tests for the SPMD communicator (repro.diy.comm).

The communicator has no user point-to-point channel; the private
``_send``/``_recv`` pair every collective is built on is tested directly.
Rank workers are module-level functions, so a multi-rank region pickles
and leases the persistent rank pool.
"""

import numpy as np
import pytest

from repro.diy.comm import ANY_SOURCE, ParallelError, run_parallel


def _rank_times_ten(comm):
    return comm.rank * 10


def _sum_args(comm, a, b=0):
    return a + b + comm.rank


def _none(comm):
    return None


def _raise_on_rank_2(comm):
    if comm.rank == 2:
        raise ValueError("boom")
    comm.barrier()  # others wait; must be released by the abort


def _rank_0_dies_before_bcast(comm):
    if comm.rank == 0:
        raise RuntimeError("early death")
    comm.bcast(None, root=0)  # waits on rank 0, which never sends


def _rank_and_size(comm):
    # mpi4py's attribute spellings (mpi4py.MPI.Comm.rank / .size).
    return (comm.rank, comm.size)


class TestRunParallel:
    def test_serial_runs_inline(self):
        def f(comm):
            assert comm.rank == 0 and comm.size == 1
            return "ok"

        assert run_parallel(1, f) == ["ok"]

    def test_results_in_rank_order(self):
        assert run_parallel(4, _rank_times_ten) == [0, 10, 20, 30]

    def test_extra_args_forwarded(self):
        assert run_parallel(2, _sum_args, 5, b=2) == [7, 8]

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            run_parallel(0, _none)

    def test_exception_propagates_with_rank(self):
        with pytest.raises(ParallelError) as exc:
            run_parallel(4, _raise_on_rank_2)
        assert exc.value.rank == 2
        assert isinstance(exc.value.original, ValueError)

    def test_exception_unblocks_pending_recv(self):
        with pytest.raises(ParallelError) as exc:
            run_parallel(2, _rank_0_dies_before_bcast)
        assert exc.value.rank == 0

    def test_mpi4py_spellings(self):
        assert run_parallel(3, _rank_and_size) == [(0, 3), (1, 3), (2, 3)]


def _pairwise(comm):
    peer = comm.size - 1 - comm.rank
    comm._send(("hello", comm.rank), peer, 7)
    msg, src = comm._recv(peer, 7)
    assert msg == "hello" and src == peer
    return True


def _twenty_in_order(comm):
    if comm.rank == 0:
        for i in range(20):
            comm._send(i, 1, 3)
        return None
    return [comm._recv(0, 3) for _ in range(20)]


def _out_of_order_tags(comm):
    if comm.rank == 0:
        comm._send("a", 1, 1)
        comm._send("b", 1, 2)
        return None
    # Receive out of send order by tag.
    b = comm._recv(0, 2)
    a = comm._recv(0, 1)
    return (a, b)


def _any_source(comm):
    if comm.rank == 0:
        return {comm._recv_from(ANY_SOURCE, 5) for _ in range(comm.size - 1)}
    comm._send(comm.rank * 10, 0, 5)
    return None


def _any_source_own_tag(comm):
    if comm.rank == 1:
        comm._send("other", 0, 4)
        comm._send("mine", 0, 5)
        return None
    got = comm._recv_from(ANY_SOURCE, 5)
    return got, comm._recv(1, 4)


def _send_to_rank_5(comm):
    comm._send(1, 5, 0)


def _numpy_payload(comm):
    if comm.rank == 0:
        comm._send(np.arange(10.0), 1, 0)
        return None
    arr = comm._recv(0, 0)
    return float(arr.sum())


class TestPointToPoint:
    """The private message path under every collective."""

    def test_send_recv_pairwise(self):
        assert all(run_parallel(4, _pairwise))

    def test_message_order_preserved(self):
        assert run_parallel(2, _twenty_in_order)[1] == list(range(20))

    def test_tag_matching(self):
        assert run_parallel(2, _out_of_order_tags)[1] == ("a", "b")

    def test_any_source(self):
        assert run_parallel(4, _any_source)[0] == {(10, 1), (20, 2), (30, 3)}

    def test_any_source_matches_only_its_tag(self):
        assert run_parallel(2, _any_source_own_tag)[0] == (("mine", 1), "other")

    def test_send_to_invalid_rank(self):
        with pytest.raises(ParallelError):
            run_parallel(2, _send_to_rank_5)

    def test_numpy_payloads(self):
        assert run_parallel(2, _numpy_payload)[1] == 45.0


def _bcast_dict(comm):
    data = {"k": 42} if comm.rank == 0 else None
    return comm.bcast(data, root=0)


def _bcast_from_2(comm):
    return comm.bcast(comm.rank if comm.rank == 2 else None, root=2)


def _gather_squares(comm):
    return comm.gather(comm.rank**2, root=0)


def _allreduce_sum(comm):
    return comm.allreduce(comm.rank + 1)


def _allreduce_max(comm):
    return comm.allreduce(comm.rank + 1, op=max)


def _exscan(comm):
    return comm.exscan(comm.rank + 1)


def _alltoall(comm):
    return comm.alltoall([(comm.rank, dst) for dst in range(comm.size)])


def _alltoall_three(comm):
    return comm.alltoall([1, 2, 3])


def _barrier_rounds(comm):
    acc = 0
    for _ in range(10):
        acc = comm.allreduce(acc + 1, op=max)
        comm.barrier()
    return acc


def _ring_around_allreduce(comm):
    comm._send(comm.rank, (comm.rank + 1) % comm.size, 0)
    total = comm.allreduce(comm.rank)
    left = comm._recv((comm.rank - 1) % comm.size, 0)
    return (total, left)


class TestCollectives:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_bcast(self, n):
        assert run_parallel(n, _bcast_dict) == [{"k": 42}] * n

    def test_bcast_nonzero_root(self):
        assert run_parallel(4, _bcast_from_2) == [2, 2, 2, 2]

    def test_gather(self):
        out = run_parallel(4, _gather_squares)
        assert out[0] == [0, 1, 4, 9]
        assert out[1] is None

    def test_reduce_default_sum(self):
        # 4 ranks recursive-double; 5 reduce down a binomial tree first.
        for n in (4, 5):
            assert run_parallel(n, _allreduce_sum) == [n * (n + 1) // 2] * n

    def test_allreduce_custom_op(self):
        assert run_parallel(5, _allreduce_max) == [5] * 5

    def test_exscan(self):
        # sizes 1,2,3,4 -> offsets None,1,3,6
        assert run_parallel(4, _exscan) == [None, 1, 3, 6]

    def test_alltoall(self):
        out = run_parallel(3, _alltoall)
        for r, row in enumerate(out):
            assert row == [(src, r) for src in range(3)]

    def test_alltoall_wrong_length(self):
        with pytest.raises(ParallelError):
            run_parallel(2, _alltoall_three)  # size is 2

    def test_barrier_many_rounds(self):
        # Repeated collectives on a reusable barrier must not wedge.
        assert run_parallel(4, _barrier_rounds) == [10] * 4

    def test_collectives_interleaved_with_p2p(self):
        out = run_parallel(4, _ring_around_allreduce)
        assert [t for t, _ in out] == [6, 6, 6, 6]
        assert [l for _, l in out] == [3, 0, 1, 2]
