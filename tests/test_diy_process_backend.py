"""Tests for the process SPMD backend and its zero-copy transport.

Covers the transport layer in isolation (protocol-5 encode/decode, the
pooled shared-memory allocator, lease-based recycling) and the forked
ranks end to end: collectives matching their serially computed answers,
shared-memory movement of large arrays, failure propagation, and deadlock
timeouts.
"""

import pickle

import numpy as np
import pytest

from repro.diy import transport
from repro.diy.comm import ParallelError, run_parallel


# ----------------------------------------------------------------------
# transport layer (no processes involved)
# ----------------------------------------------------------------------
class TestEncodeDecode:
    def _roundtrip(self, obj, pool):
        meta, descriptors, shm_bytes = transport.encode_payload(obj, pool)
        attached = {}

        def attach(name):
            if name not in attached:
                attached[name] = transport.attach_segment(name)
            return attached[name]

        out, lease = transport.decode_payload(meta, descriptors, attach)
        return out, lease, shm_bytes, attached

    def test_small_array_stays_inline(self):
        pool = transport.ShmPool()
        arr = np.arange(16, dtype=np.float64)
        out, lease, shm_bytes, attached = self._roundtrip(arr, pool)
        assert lease is None and shm_bytes == 0 and not attached
        np.testing.assert_array_equal(out, arr)
        assert pool.created == 0
        pool.shutdown()

    def test_large_array_rides_shared_memory(self):
        pool = transport.ShmPool()
        arr = np.arange(100_000, dtype=np.float64)
        out, lease, shm_bytes, attached = self._roundtrip(arr, pool)
        assert shm_bytes == arr.nbytes
        assert lease is not None and len(lease.names) == 1
        assert pool.created == 1
        np.testing.assert_array_equal(out, arr)
        del out
        assert lease.idle()
        lease.release_views()
        for shm in attached.values():
            transport.close_segment_quietly(shm)
        pool.shutdown()

    def test_lease_not_idle_while_array_alive(self):
        pool = transport.ShmPool()
        arr = np.ones(50_000)
        out, lease, _, attached = self._roundtrip(arr, pool)
        assert not lease.idle()
        del out
        assert lease.idle()
        lease.release_views()
        for shm in attached.values():
            transport.close_segment_quietly(shm)
        pool.shutdown()

    def test_nested_container_with_mixed_buffers(self):
        pool = transport.ShmPool()
        payload = {
            "big": np.arange(60_000, dtype=np.int64),
            "small": np.float32([1.5, 2.5]),
            "meta": ("text", 7, None),
        }
        out, lease, shm_bytes, attached = self._roundtrip(payload, pool)
        assert shm_bytes == payload["big"].nbytes
        np.testing.assert_array_equal(out["big"], payload["big"])
        np.testing.assert_array_equal(out["small"], payload["small"])
        assert out["meta"] == ("text", 7, None)
        del out
        lease.release_views()
        for shm in attached.values():
            transport.close_segment_quietly(shm)
        pool.shutdown()

    def test_fortran_order_array_roundtrips(self):
        pool = transport.ShmPool()
        arr = np.asfortranarray(np.arange(30_000, dtype=np.float64).reshape(150, 200))
        out, lease, _, attached = self._roundtrip(arr, pool)
        np.testing.assert_array_equal(out, arr)
        del out
        if lease is not None:
            lease.release_views()
        for shm in attached.values():
            transport.close_segment_quietly(shm)
        pool.shutdown()

    def test_threshold_override(self, monkeypatch):
        monkeypatch.setattr(transport, "SHM_THRESHOLD", 256)
        pool = transport.ShmPool()
        arr = np.arange(64, dtype=np.float64)  # 512 bytes
        _, _, shm_bytes, _ = self._roundtrip(arr, pool)
        assert shm_bytes == arr.nbytes
        pool.shutdown()


class TestPipeFraming:
    """send_message/recv_message: one frame per message, checked against
    the pipe's C-int frame cap."""

    def _pipe(self):
        from multiprocessing import Pipe

        return Pipe(duplex=True)

    def test_small_message_is_single_frame(self):
        a, b = self._pipe()
        transport.send_message(a, pickle.dumps(list(range(100)), protocol=5))
        assert transport.recv_message(b) == list(range(100))
        assert not b.poll()  # nothing but the one frame was sent

    def test_oversized_frame_raises_commerror_naming_size(self, monkeypatch):
        """No chunking: a frame above the cap raises an actionable error
        naming its size instead of failing deep inside the pipe code."""
        monkeypatch.setattr(transport, "_PIPE_MAX", 4096)
        a, b = self._pipe()
        wire = pickle.dumps(bytes(10_000), protocol=5)
        with pytest.raises(transport.CommError) as exc:
            transport.send_message(a, wire)
        assert str(len(wire)) in str(exc.value)
        assert not b.poll()  # nothing partial hit the pipe


class TestShmPool:
    def test_size_classes_are_powers_of_two(self):
        assert transport.ShmPool._size_class(1) == transport._MIN_SEGMENT
        assert transport.ShmPool._size_class(transport._MIN_SEGMENT) == (
            transport._MIN_SEGMENT
        )
        assert transport.ShmPool._size_class(transport._MIN_SEGMENT + 1) == (
            transport._MIN_SEGMENT * 2
        )

    def test_recycle_reuses_segment(self):
        pool = transport.ShmPool()
        seg = pool.acquire(1000)
        name = seg.name
        pool.recycle(name)
        seg2 = pool.acquire(1000)
        assert seg2.name == name
        assert pool.created == 1 and pool.recycled == 1
        pool.shutdown()

    def test_shutdown_idempotent(self):
        pool = transport.ShmPool()
        pool.acquire(100)
        pool.shutdown()
        pool.shutdown()


# ----------------------------------------------------------------------
# forked backend, end to end
# ----------------------------------------------------------------------
def _collective_workout(comm):
    """One of everything; returns a comparable per-rank summary."""
    rank, size = comm.rank, comm.size
    big = np.arange(20_000, dtype=np.float64) + rank  # > SHM_THRESHOLD
    out = {
        "bcast": comm.bcast({"root": 0, "arr": big} if rank == 0 else None),
        "gathered": comm.gather(rank * 2, root=0),
        "allreduced": comm.allreduce(float(big.sum())),
        "exscan": comm.exscan(rank + 1),
        "alltoall": comm.alltoall([(rank, d) for d in range(size)]),
        "sparse": sorted(
            comm.sparse_alltoall({(rank + 1) % size: np.full(5000, rank)})
        ),
    }
    comm.barrier()
    out["bcast_sum"] = float(out["bcast"]["arr"].sum())
    del out["bcast"]
    out["stats"] = comm.stats.as_dict()
    return out


def _serial_workout(n):
    """What :func:`_collective_workout` must return on each of ``n`` ranks,
    computed without message passing (the array sums are exact integers,
    so no summation order can change them)."""
    base = float(np.arange(20_000, dtype=np.float64).sum())
    return [
        {
            "gathered": [2 * r for r in range(n)] if rank == 0 else None,
            "allreduced": sum(base + 20_000 * r for r in range(n)),
            "exscan": sum(range(1, rank + 1)) if rank else None,
            "alltoall": [(src, rank) for src in range(n)],
            "sparse": [(rank - 1) % n],
            "bcast_sum": base,
        }
        for rank in range(n)
    ]


_WORKOUT_CALLS = {
    "bcast": 1, "gather": 1, "allreduce": 2, "exscan": 1, "alltoall": 1,
    "sparse_alltoall": 1, "barrier": 1,
}  # sparse_alltoall's header round is the second allreduce


def _concat_ranks(comm):
    return comm.allreduce(f"<{comm.rank}>", op=_concat)


def _concat(a, b):
    return a + b


def _bcast_large(comm):
    arr = comm.bcast(np.zeros(100_000) if comm.rank == 0 else None)
    assert arr.shape == (100_000,)
    comm.barrier()
    return comm.stats.shm_msgs_sent, comm.stats.shm_bytes_sent


def _allreduce_large(comm):
    comm.allreduce(np.zeros(100_000))
    return comm.stats.shm_msgs_sent


def _ping_pong(comm, rounds):
    import time

    peer = 1 - comm.rank
    for i in range(rounds):
        if comm.rank == 0:
            comm._send(np.full(50_000, i, dtype=np.float64), peer, i)
            reply = comm._recv(peer, i)
            assert reply[0] == -i
        else:
            got = comm._recv(peer, i)
            assert got[0] == i
            del got  # drop the shm view so the lease goes idle
            comm._send(np.full(50_000, -i, dtype=np.float64), peer, i)
        time.sleep(0.06)  # let the receiver thread reap idle leases
    comm.barrier()
    return comm._world.pool.created


class TestProcessCollectives:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_matches_serial_answer(self, n):
        results = run_parallel(n, _collective_workout)
        stats = [r.pop("stats") for r in results]
        assert results == _serial_workout(n)
        for s in stats:
            assert s["collective_calls"] == _WORKOUT_CALLS
        # Every message sent was received, byte for byte.
        assert sum(s["msgs_sent"] for s in stats) == sum(
            s["msgs_recv"] for s in stats
        )
        assert sum(s["bytes_sent"] for s in stats) == sum(
            s["bytes_recv"] for s in stats
        )

    def test_noncommutative_op_rank_order(self):
        (r0, *rest) = run_parallel(4, _concat_ranks)
        assert r0 == "<0><1><2><3>"
        assert all(r == r0 for r in rest)

    def test_large_payloads_use_shared_memory(self):
        results = run_parallel(2, _bcast_large)
        assert results[0][0] >= 1
        assert results[0][1] >= 800_000

    def test_inline_rank_never_uses_shared_memory(self):
        assert run_parallel(1, _allreduce_large) == [0]

    def test_segment_recycling_bounds_pool_growth(self):
        rounds = 10
        created = run_parallel(2, _ping_pong, rounds)
        # Without recycling each rank would create `rounds` segments.
        assert all(c < rounds for c in created)


class TestProcessFailures:
    def test_exception_propagates_with_rank(self):
        def worker(comm):
            if comm.rank == 2:
                raise ValueError("boom in child")
            comm.barrier()

        with pytest.raises(ParallelError) as exc:
            run_parallel(4, worker)
        assert exc.value.rank == 2
        assert "boom in child" in str(exc.value)

    def test_exception_unblocks_pending_recv(self):
        def worker(comm):
            if comm.rank == 0:
                raise RuntimeError("early death")
            comm.bcast(None, root=0)  # waits on rank 0, which never sends

        with pytest.raises(ParallelError) as exc:
            run_parallel(2, worker)
        assert exc.value.rank == 0

    def test_deadlock_times_out(self):
        def worker(comm):
            if comm.rank == 0:
                comm.bcast(None, root=1)  # rank 1 never joins

        with pytest.raises(ParallelError):
            run_parallel(2, worker, recv_timeout=1.5)

    def test_unpicklable_result_reported_not_hung(self):
        def worker(comm):
            return lambda: None  # cannot cross the result pipe

        with pytest.raises(ParallelError):
            run_parallel(2, worker)


class TestBackendSelection:
    """``backend=`` survives only as a shim: ``"process"`` at any rank
    count, ``"thread"`` at 1 rank (inline either way); the rest of what it
    rejects is in ``tests/test_one_backend.py``."""

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="ranks are processes"):
            run_parallel(2, _pid_and_size, backend="mpi")

    def test_process_single_rank_runs_inline(self):
        import os

        for backend in ("process", "thread"):
            results = run_parallel(1, _pid_and_size, backend=backend)
            assert results == [(os.getpid(), 1)]

    def test_process_ranks_are_distinct_processes(self):
        import os

        pids = [pid for pid, _ in run_parallel(3, _pid_and_size, backend="process")]
        assert len(set(pids)) == 3
        assert os.getpid() not in pids


def _pid_and_size(comm):
    import os

    return os.getpid(), comm.size
