"""Persistent rank-pool tests: reuse, invalidation, and child hygiene.

The process backend's :class:`~repro.diy.process_backend.RankPool` keeps
forked rank workers (and their shm segments and pipe mesh) alive across
``run_parallel`` regions.  These tests pin the lease contract: the same
worker processes serve consecutive runs with bit-identical results, any
failure invalidates the pool and sweeps its shared memory, unpicklable
tasks run on a one-shot pool of fresh forks, and no exit path — including
a failed spawn — leaves live child processes behind.
"""

import os
import pickle
import time
from multiprocessing import Pipe

import numpy as np
import pytest

from repro import faults
from repro.diy.comm import ParallelError, run_parallel
from repro.diy.process_backend import pool_counters, shutdown_pool


@pytest.fixture(autouse=True)
def _fresh_pool_state():
    """Each test starts and ends without live pool workers."""
    shutdown_pool()
    yield
    shutdown_pool()


def _repro_segments() -> set:
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return set()
    return {n for n in names if n.startswith("repro-")}


# Module-level workers: picklable by reference, so the pool path engages.
def _pid_worker(comm):
    return os.getpid()


def _collective_worker(comm, seed):
    """Collectives + a large neighbour exchange: the traffic mix of a
    tessellation step."""
    rng = np.random.default_rng(seed + comm.rank)
    big = rng.standard_normal(20_000)  # > SHM_THRESHOLD, rides shm
    peer = (comm.rank + 1) % comm.size
    inbox = comm.sparse_alltoall({peer: big})
    echoed = inbox[(comm.rank - 1) % comm.size]
    total = comm.allreduce(float(big.sum()))
    gathered = comm.gather(comm.rank * 2, root=0)
    comm.barrier()
    return float(echoed.sum()), total, gathered, os.getpid()


def _rank_worker(comm):
    return comm.rank


def _raise_on_rank1(comm, mark=None):
    if comm.rank == 1:
        raise ValueError("injected failure")
    if mark is not None:
        open(mark, "w").close()
    comm.barrier()


class TestPoolReuse:
    @pytest.mark.parametrize("nranks", (2, 4))
    def test_same_pids_serve_consecutive_runs(self, nranks):
        first = run_parallel(nranks, _pid_worker, backend="process")
        second = run_parallel(nranks, _pid_worker, backend="process")
        assert first == second
        assert len(set(first)) == nranks
        assert os.getpid() not in first

    def test_reuse_counters_progress(self):
        before = dict(pool_counters)
        run_parallel(2, _pid_worker, backend="process")
        run_parallel(2, _pid_worker, backend="process")
        assert pool_counters["forks"] == before["forks"] + 2
        assert pool_counters["runs_leased"] == before["runs_leased"] + 2
        assert pool_counters["runs_reused"] == before["runs_reused"] + 1

    @pytest.mark.parametrize("nranks", (1, 2, 4))
    def test_pooled_results_identical_to_fresh_fork(self, nranks):
        pooled = run_parallel(nranks, _collective_worker, 9, backend="process")
        pooled2 = run_parallel(nranks, _collective_worker, 9, backend="process")
        shutdown_pool()
        leased = pool_counters["runs_leased"]
        live = []  # closing over a live list defeats pickle: one-shot pool

        def fresh_worker(comm, seed):
            live.append(comm.rank)
            return _collective_worker(comm, seed)

        fresh = run_parallel(nranks, fresh_worker, 9, backend="process")
        assert pool_counters["runs_leased"] == leased
        # Bit-identical payloads; only the worker PIDs may differ.
        assert [r[:3] for r in pooled] == [r[:3] for r in fresh]
        assert [r[:3] for r in pooled] == [r[:3] for r in pooled2]

    def test_many_consecutive_leases_with_collectives(self):
        """Regression: task-local mailbox state must be cleared *before* a
        rank reports its result — clearing after let a fast peer's first
        message of the next lease be dropped, deadlocking the pool on the
        second or third reuse."""
        pids = None
        for i in range(6):
            results = run_parallel(
                4, _collective_worker, i, backend="process", recv_timeout=60
            )
            totals = {r[1] for r in results}
            assert len(totals) == 1  # allreduce agreed on every rank
            assert results[0][2] == [0, 2, 4, 6]
            run_pids = sorted(r[3] for r in results)
            assert pids is None or run_pids == pids
            pids = run_pids

    def test_shm_segments_persist_across_leases_and_die_with_pool(self):
        baseline = _repro_segments()
        run_parallel(2, _collective_worker, 1, backend="process")
        after_first = _repro_segments() - baseline
        assert after_first  # the big sends allocated pooled segments
        run_parallel(2, _collective_worker, 2, backend="process")
        after_second = _repro_segments() - baseline
        # Pool reuse keeps the first lease's segments alive for recycling.
        assert after_first <= after_second
        shutdown_pool()
        assert _repro_segments() == baseline


class TestPoolInvalidation:
    def test_failure_invalidates_then_next_run_reforks(self):
        before = pool_counters["invalidations"]
        healthy = run_parallel(2, _pid_worker, backend="process")
        with pytest.raises(ParallelError) as exc:
            run_parallel(2, _raise_on_rank1, backend="process")
        assert exc.value.rank == 1
        assert pool_counters["invalidations"] == before + 1
        replacement = run_parallel(2, _pid_worker, backend="process")
        assert set(healthy).isdisjoint(replacement)

    def test_rank_lingering_after_its_report_takes_the_next_task(
        self, monkeypatch, tmp_path
    ):
        """Rank 0 lingers after reporting a healthy task, so rank 1 takes
        the next task and fails it first: rank 0 must still take that
        task, not read the failure's abort flag as its own and quit."""
        from repro.diy import process_backend

        original = process_backend._send_status

        def lingering(conn, status):
            original(conn, status)
            if status == ("ok", 0):
                time.sleep(0.5)

        # The pool forks after this, so its workers inherit the seam.
        monkeypatch.setattr(process_backend, "_send_status", lingering)
        assert run_parallel(2, _rank_worker) == [0, 1]
        took = tmp_path / "rank0-took-the-task"
        with pytest.raises(ParallelError) as exc:
            run_parallel(2, _raise_on_rank1, str(took))
        assert took.exists()
        assert exc.value.rank == 1
        assert isinstance(exc.value.original, ValueError)

    @pytest.mark.parametrize("code, blamed", [(0, 1), (87, 0)])
    def test_clean_exit_is_a_casualty_not_the_cause(self, code, blamed):
        """Rank 0 left without a result, rank 1 raised.  Exit code 0 means
        rank 0 ran its worker loop to its end, so the region is rank 1's;
        a crash (nonzero exit) still counts as a cause."""
        from repro.diy.process_backend import _await_results, _raise_first

        class Exited:
            exitcode = code

            def join(self, timeout=None):
                pass

        dead, dead_end = Pipe(duplex=False)
        dead_end.close()
        raised, raised_end = Pipe(duplex=False)
        raised_end.send_bytes(pickle.dumps(("err", ValueError("injected"))))
        _, errors = _await_results(
            [Exited(), Exited()], {dead: 0, raised: 1}, lambda: None, 1.0
        )
        with pytest.raises(ParallelError) as exc:
            _raise_first(errors)
        assert exc.value.rank == blamed

    def test_invalidation_sweeps_pool_segments(self):
        baseline = _repro_segments()
        run_parallel(2, _collective_worker, 3, backend="process")
        assert _repro_segments() - baseline
        with pytest.raises(ParallelError):
            run_parallel(2, _raise_on_rank1, backend="process")
        assert _repro_segments() == baseline

    def test_unpicklable_task_falls_back_to_fresh_fork(self):
        box = []  # closing over a live list defeats pickle

        def worker(comm):
            box.append(comm.rank)
            return os.getpid()

        before = dict(pool_counters)
        baseline = _repro_segments()
        first = run_parallel(2, worker, backend="process")
        second = run_parallel(2, worker, backend="process")
        # Each region forks a one-shot pool; nothing is leased or kept.
        assert pool_counters["forks"] == before["forks"] + 4
        assert pool_counters["runs_leased"] == before["runs_leased"]
        assert set(first).isdisjoint(second)
        assert _repro_segments() == baseline


class TestSpawnFailure:
    """A failed fork must not strand the ranks already started."""

    def _arm_failing_spawn(self, monkeypatch, fail_at: int):
        from repro.diy import process_backend

        spawned = []
        original = process_backend._spawn_rank

        def failing(ctx, target, args, rank):
            if len(spawned) == fail_at:
                raise OSError("fork: resource temporarily unavailable")
            proc = original(ctx, target, args, rank)
            spawned.append(proc)
            return proc

        monkeypatch.setattr(process_backend, "_spawn_rank", failing)
        return spawned

    def test_fresh_fork_spawn_failure_leaves_no_children(self, monkeypatch):
        live = []  # closing over a live list defeats pickle: one-shot pool

        def worker(comm):
            live.append(comm.rank)

        spawned = self._arm_failing_spawn(monkeypatch, fail_at=2)
        with pytest.raises(OSError, match="fork"):
            run_parallel(4, worker, backend="process")
        assert len(spawned) == 2
        for proc in spawned:
            proc.join(timeout=10.0)
            assert not proc.is_alive()
            assert proc.exitcode is not None

    def test_pool_spawn_failure_leaves_no_children(self, monkeypatch):
        spawned = self._arm_failing_spawn(monkeypatch, fail_at=2)
        with pytest.raises(OSError, match="fork"):
            run_parallel(4, _pid_worker, backend="process")
        assert len(spawned) == 2
        for proc in spawned:
            proc.join(timeout=10.0)
            assert not proc.is_alive()
        # The half-built pool must not be handed to the next caller: with
        # the seam restored the next run forks a full healthy pool.
        monkeypatch.undo()
        pids = run_parallel(4, _pid_worker, backend="process")
        assert len(set(pids)) == 4


class TestTaskWire:
    def test_fault_spec_ships_with_pooled_task(self):
        """Pool workers forked before the injector was armed must still see
        it: the active FaultSpec rides the task wire."""
        run_parallel(2, _pid_worker, backend="process")  # warm the pool
        spec = faults.FaultSpec(kill_rank=1, kill_step=99, kill_mode="exit")
        faults.install(spec)
        try:
            seen = run_parallel(2, _fault_probe, backend="process")
        finally:
            faults.clear()
        assert seen == [spec, spec]
        # ...and is disarmed again for the next lease.
        assert run_parallel(2, _fault_probe, backend="process") == [None, None]


def _fault_probe(comm):
    injector = faults.active()
    return injector.spec if injector is not None else None
