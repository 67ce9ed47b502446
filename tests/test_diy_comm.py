"""Tests for the thread-SPMD communicator (repro.diy.comm).

The communicator has no user point-to-point channel; the private
``_send``/``_recv`` pair every collective is built on is tested directly.
"""

import numpy as np
import pytest

from repro.diy.comm import ANY_SOURCE, ParallelError, run_parallel


class TestRunParallel:
    def test_serial_runs_inline(self):
        def f(comm):
            assert comm.rank == 0 and comm.size == 1
            return "ok"

        assert run_parallel(1, f) == ["ok"]

    def test_results_in_rank_order(self):
        results = run_parallel(4, lambda comm: comm.rank * 10)
        assert results == [0, 10, 20, 30]

    def test_extra_args_forwarded(self):
        def f(comm, a, b=0):
            return a + b + comm.rank

        assert run_parallel(2, f, 5, b=2) == [7, 8]

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            run_parallel(0, lambda comm: None)

    def test_exception_propagates_with_rank(self):
        def f(comm):
            if comm.rank == 2:
                raise ValueError("boom")
            comm.barrier()  # others wait; must be released by the abort

        with pytest.raises(ParallelError) as exc:
            run_parallel(4, f)
        assert exc.value.rank == 2
        assert isinstance(exc.value.original, ValueError)

    def test_exception_unblocks_pending_recv(self):
        def f(comm):
            if comm.rank == 0:
                raise RuntimeError("early death")
            comm.bcast(None, root=0)  # waits on rank 0, which never sends

        with pytest.raises(ParallelError) as exc:
            run_parallel(2, f)
        assert exc.value.rank == 0

    def test_mpi4py_spellings(self):
        # mpi4py's attribute spellings (mpi4py.MPI.Comm.rank / .size).
        def f(comm):
            return (comm.rank, comm.size)

        assert run_parallel(3, f) == [(0, 3), (1, 3), (2, 3)]


class TestPointToPoint:
    """The private message path under every collective."""

    def test_send_recv_pairwise(self):
        def f(comm):
            peer = comm.size - 1 - comm.rank
            comm._send(("hello", comm.rank), peer, 7)
            msg, src = comm._recv(peer, 7)
            assert msg == "hello" and src == peer
            return True

        assert all(run_parallel(4, f))

    def test_message_order_preserved(self):
        def f(comm):
            if comm.rank == 0:
                for i in range(20):
                    comm._send(i, 1, 3)
                return None
            return [comm._recv(0, 3) for _ in range(20)]

        assert run_parallel(2, f)[1] == list(range(20))

    def test_tag_matching(self):
        def f(comm):
            if comm.rank == 0:
                comm._send("a", 1, 1)
                comm._send("b", 1, 2)
                return None
            # Receive out of send order by tag.
            b = comm._recv(0, 2)
            a = comm._recv(0, 1)
            return (a, b)

        assert run_parallel(2, f)[1] == ("a", "b")

    def test_any_source(self):
        def f(comm):
            if comm.rank == 0:
                got = {comm._recv_from(ANY_SOURCE, 5) for _ in range(comm.size - 1)}
                return got
            comm._send(comm.rank * 10, 0, 5)
            return None

        assert run_parallel(4, f)[0] == {(10, 1), (20, 2), (30, 3)}

    def test_any_source_matches_only_its_tag(self):
        def f(comm):
            if comm.rank == 1:
                comm._send("other", 0, 4)
                comm._send("mine", 0, 5)
                return None
            got = comm._recv_from(ANY_SOURCE, 5)
            return got, comm._recv(1, 4)

        assert run_parallel(2, f)[0] == (("mine", 1), "other")

    def test_send_to_invalid_rank(self):
        def f(comm):
            comm._send(1, 5, 0)

        with pytest.raises(ParallelError):
            run_parallel(2, f)

    def test_numpy_payloads(self):
        def f(comm):
            if comm.rank == 0:
                comm._send(np.arange(10.0), 1, 0)
                return None
            arr = comm._recv(0, 0)
            return float(arr.sum())

        assert run_parallel(2, f)[1] == 45.0


class TestCollectives:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_bcast(self, n):
        def f(comm):
            data = {"k": 42} if comm.rank == 0 else None
            return comm.bcast(data, root=0)

        assert run_parallel(n, f) == [{"k": 42}] * n

    def test_bcast_nonzero_root(self):
        def f(comm):
            return comm.bcast(comm.rank if comm.rank == 2 else None, root=2)

        assert run_parallel(4, f) == [2, 2, 2, 2]

    def test_gather(self):
        def f(comm):
            return comm.gather(comm.rank**2, root=0)

        out = run_parallel(4, f)
        assert out[0] == [0, 1, 4, 9]
        assert out[1] is None

    def test_reduce_default_sum(self):
        def f(comm):
            return comm.allreduce(comm.rank + 1)

        # 4 ranks recursive-double; 5 reduce down a binomial tree first.
        for n in (4, 5):
            assert run_parallel(n, f) == [n * (n + 1) // 2] * n

    def test_allreduce_custom_op(self):
        def f(comm):
            return comm.allreduce(comm.rank + 1, op=max)

        assert run_parallel(5, f) == [5] * 5

    def test_exscan(self):
        def f(comm):
            return comm.exscan(comm.rank + 1)

        # sizes 1,2,3,4 -> offsets None,1,3,6
        assert run_parallel(4, f) == [None, 1, 3, 6]

    def test_alltoall(self):
        def f(comm):
            objs = [(comm.rank, dst) for dst in range(comm.size)]
            return comm.alltoall(objs)

        out = run_parallel(3, f)
        for r, row in enumerate(out):
            assert row == [(src, r) for src in range(3)]

    def test_alltoall_wrong_length(self):
        def f(comm):
            return comm.alltoall([1, 2, 3])  # size is 2

        with pytest.raises(ParallelError):
            run_parallel(2, f)

    def test_barrier_many_rounds(self):
        def f(comm):
            acc = 0
            for i in range(10):
                acc = comm.allreduce(acc + 1, op=max)
                comm.barrier()
            return acc

        # Repeated collectives on a reusable barrier must not wedge.
        assert run_parallel(4, f) == [10] * 4

    def test_collectives_interleaved_with_p2p(self):
        def f(comm):
            comm._send(comm.rank, (comm.rank + 1) % comm.size, 0)
            total = comm.allreduce(comm.rank)
            left = comm._recv((comm.rank - 1) % comm.size, 0)
            return (total, left)

        out = run_parallel(4, f)
        assert [t for t, _ in out] == [6, 6, 6, 6]
        assert [l for _, l in out] == [3, 0, 1, 2]
