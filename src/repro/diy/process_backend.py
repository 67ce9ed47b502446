"""Process SPMD runtime: one OS process per rank, pipes + shared memory.

This is how :func:`repro.diy.comm.run_parallel` runs a region of two or
more ranks.  Each rank is a forked OS process, so rank code runs with true
hardware parallelism — the GIL bounds only a single rank, not the region —
and, as under MPI, a rank can never alias another rank's arrays.  The
:class:`~repro.diy.comm.Communicator` contract (and therefore every tree
collective, the neighbor exchange, the parallel writer, and CommStats) is
carried on this transport:

* every rank pair shares a duplex pipe; a per-rank receiver thread drains
  all pipes into the rank's :class:`~repro.diy.comm._Mailbox` matching
  structure;
* payloads are serialized with pickle protocol 5 — NumPy buffers move
  out-of-band, and large ones ride pooled ``multiprocessing.shared_memory``
  segments so ghost exchange and I/O gathers never serialize element-wise
  (see :mod:`repro.diy.transport`);
* segment names released by receivers piggyback on subsequent messages
  back to the owning rank, whose pool recycles them.

Every region runs on a :class:`RankPool`.  The first ``run_parallel`` at a
given rank count forks a pool whose workers — and their pooled shm
segments, attached-mapping caches, and pipe mesh — stay alive across
parallel regions.  Subsequent runs *lease* the pool: the worker function
and arguments are pickled down per-rank task pipes, results come back over
per-rank result pipes, and a flush round quiesces the data pipes between
tasks so no message from one region can leak into the next.  Fault
injection composes: the armed :class:`~repro.faults.FaultInjector` ships
with each task (pool workers forked long ago cannot inherit it).  Any
failed run — a raising rank, a dead process, a deadlock — *invalidates* the
pool (workers are torn down, their ``/dev/shm`` segments swept by name
prefix) and the next run forks a fresh one.  :func:`shutdown_pool` (also
registered ``atexit``) releases the workers explicitly.

Pool workers fork once per rank count and unpickle each task by import
path, so module state patched in the parent after the fork is not seen by
the ranks: pass such state in as arguments.

A task whose function or arguments don't pickle (a closure over live
objects) gets a *one-shot* pool instead: its workers inherit the task
through fork, run it once, and exit.  Results must pickle either way.

Failure semantics: the first raising rank aborts the region (a shared
event plus a broken barrier wake the peers) and the parent re-raises a
:class:`~repro.diy.comm.ParallelError` naming that rank.  A rank that dies
without a result (crash, ``os._exit``, OOM-kill) surfaces as
:class:`RankDiedError` within a short detection bound, and the shared
memory it leased is reclaimed by a prefix sweep so repeated
fault-injection runs cannot exhaust ``/dev/shm``.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import threading
import time
import traceback
from collections import defaultdict
from multiprocessing import connection, get_context
from typing import Any, Callable

from .. import faults, observe
from ..observe import trace as _otrace
from ..observe.metrics import registry as _registry
from . import transport
from .comm import (
    _DEFAULT_TIMEOUT,
    _AbortedError,
    _Mailbox,
    Communicator,
    ParallelError,
)

__all__ = [
    "run_parallel_processes",
    "RankDiedError",
    "RankPool",
    "shutdown_pool",
]

_POLL_S = 0.05  # receiver-thread poll interval (also the abort latency)
_DETECT_POLL_S = 0.2  # parent's dead-child detection poll interval

#: Control tag used to quiesce the pipe mesh between pooled tasks.  A
#: negative tag can never collide with collective traffic (tags >= _COLL_TAG).
_FLUSH_TAG = -2

_pool_seq = itertools.count()  # distinct shm prefixes across pool generations

#: Always-on pool lifecycle counters (cheap introspection for tests and the
#: scaling bench).  Mirrored into the observe metrics registry as
#: ``pool.<name>`` counters only while observation is enabled, matching how
#: CommStats and friends are absorbed.
pool_counters: dict[str, int] = {
    "forks": 0,  # worker processes ever forked into pools
    "runs_leased": 0,  # run_parallel calls served by a persistent pool
    "runs_reused": 0,  # of those, served by already-warm workers
    "invalidations": 0,  # pools torn down by a failed run
}


def _pool_count(name: str, n: int = 1) -> None:
    pool_counters[name] += n
    if observe.enabled():
        _registry().counter(f"pool.{name}").inc(n)


class RankDiedError(RuntimeError):
    """A rank process exited (crash, kill, os._exit) without delivering a
    result.  Raised to the caller wrapped in a
    :class:`~repro.diy.comm.ParallelError` naming the rank, within
    ~``_DETECT_POLL_S`` of the death rather than after the recv timeout."""


class _ProcessWorld:
    """Child-side world: the Communicator transport for one rank process."""

    def __init__(
        self,
        rank: int,
        size: int,
        conns: dict[int, connection.Connection],
        barrier,
        abort_mp,
        shm_prefix: str,
    ) -> None:
        self.rank = rank
        self.size = size
        self.timeout = _DEFAULT_TIMEOUT
        self.abort = threading.Event()  # local mirror of the shared flag
        self._abort_mp = abort_mp
        self._barrier_mp = barrier
        self._conns = conns
        self._send_locks = {peer: threading.Lock() for peer in conns}
        self._mb = _Mailbox()
        self.pool = transport.ShmPool(prefix=shm_prefix)
        self._attached: dict[str, Any] = {}  # peer segment name -> mapping
        self._leases: list[tuple[int, transport.SegmentLease]] = []
        self._pending_release: dict[int, list[str]] = defaultdict(list)
        self._release_lock = threading.Lock()
        self._stop = threading.Event()
        self._recv_thread = threading.Thread(
            target=self._recv_loop, name=f"rank-{rank}-recv", daemon=True
        )

    def start(self) -> None:
        self._recv_thread.start()

    # -- Communicator transport interface ------------------------------
    def deliver(self, dest: int, source: int, tag: int, payload: Any) -> int:
        """Ship ``payload`` to peer ``dest``; returns the bytes moved via
        shared memory."""
        t0 = time.perf_counter() if _otrace._enabled else 0.0
        meta, descriptors, shm_bytes = transport.encode_payload(payload, self.pool)
        if _otrace._enabled and shm_bytes:
            _otrace.record(
                "shm-send",
                self.rank,
                t0,
                time.perf_counter(),
                cat="shm",
                attrs={"dest": dest, "bytes": shm_bytes},
            )
        with self._release_lock:
            releases = self._pending_release.pop(dest, [])
        wire = pickle.dumps((releases, source, tag, meta, descriptors), protocol=5)
        try:
            with self._send_locks[dest]:
                transport.send_message(self._conns[dest], wire)
        except (BrokenPipeError, OSError):
            # A broken data pipe means the peer process is gone — this rank
            # is a secondary casualty either way.  The authoritative
            # diagnosis (which rank died, and why) comes from the parent's
            # exit-code poll, so never surface the raw pipe error as if it
            # were this rank's own failure.
            raise _AbortedError(
                "parallel region aborted while sending (peer pipe closed)"
            ) from None
        return shm_bytes

    def inbox(self, rank: int) -> _Mailbox:
        assert rank == self.rank, "a rank process only reads its own mailbox"
        return self._mb

    def barrier_wait(self) -> None:
        if self.abort.is_set() or self._abort_mp.is_set():
            raise _AbortedError("parallel region aborted at barrier")
        try:
            self._barrier_mp.wait(timeout=self.timeout)
        except threading.BrokenBarrierError:
            raise _AbortedError("barrier broken (a peer rank failed)") from None

    # -- receiver machinery --------------------------------------------
    def _attach(self, name: str):
        shm = self._attached.get(name)
        if shm is None:
            shm = transport.attach_segment(name)
            self._attached[name] = shm
        return shm

    def _recv_loop(self) -> None:
        by_conn = {conn: peer for peer, conn in self._conns.items()}
        while not self._stop.is_set():
            if self._abort_mp.is_set() and not self.abort.is_set():
                self.abort.set()
                self._mb.wake()
            try:
                ready = connection.wait(list(by_conn), timeout=_POLL_S)
            except OSError:
                break
            for conn in ready:
                try:
                    releases, source, tag, meta, descriptors = (
                        transport.recv_message(conn)
                    )
                except (EOFError, OSError):
                    del by_conn[conn]
                    continue
                for name in releases:
                    self.pool.recycle(name)
                payload, lease = transport.decode_payload(
                    meta, descriptors, self._attach
                )
                if lease is not None:
                    self._leases.append((source, lease))
                self._mb.put(source, tag, payload)
            self._reap_leases()

    def _reap_leases(self) -> None:
        """Queue idle segments for release back to their owning ranks."""
        if not self._leases:
            return
        still: list[tuple[int, transport.SegmentLease]] = []
        freed: dict[int, list[str]] = defaultdict(list)
        for owner, lease in self._leases:
            if lease.idle():
                lease.release_views()
                freed[owner].extend(lease.names)
            else:
                still.append((owner, lease))
        self._leases = still
        if freed:
            with self._release_lock:
                for owner, names in freed.items():
                    self._pending_release[owner].extend(names)

    # -- task lifecycle --------------------------------------------------
    def flush_task(self) -> None:
        """Quiesce the pipe mesh at the end of a task.

        Every rank sends a flush marker to every peer and waits for the
        peers' markers.  Pipes are FIFO per (source, dest), so receiving a
        peer's marker proves everything that peer sent this task has
        already been drained into the local mailbox — the mesh carries no
        in-flight traffic that could leak into the next task.  Callers run
        this only after the finish barrier (all ranks done sending).
        Pending shm release names piggyback on the markers, exactly as on
        ordinary messages.
        """
        for peer in sorted(self._conns):
            self.deliver(peer, self.rank, _FLUSH_TAG, None)
        for peer in sorted(self._conns):
            self._mb.get(peer, _FLUSH_TAG, self.abort, self.timeout)

    def end_task(self) -> None:
        """Drop task-local message state so the next lease starts clean.

        Unconsumed payloads die here; their shm leases go idle and the
        receiver thread queues the segment names for release on the next
        task's traffic (or they fall to the pool shutdown sweep)."""
        self._mb.clear()

    def shutdown(self) -> None:
        self._stop.set()
        self._recv_thread.join(timeout=5.0)
        for _, lease in self._leases:
            lease.release_views()
        self._leases = []
        for shm in self._attached.values():
            transport.close_segment_quietly(shm)
        self._attached = {}
        self.pool.shutdown()
        _close_all(self._conns.values())


def _close_all(conns) -> None:
    for conn in conns:
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass


def _portable_exception(exc: BaseException) -> BaseException:
    """The exception itself if it pickles cleanly, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        detail = "".join(traceback.format_exception(exc)).strip()
        return RuntimeError(f"[{type(exc).__name__}] {exc}\n{detail}")


def _send_status(result_conn: connection.Connection, status: tuple) -> None:
    """Ship a ("ok"/"err", payload) status, downgrading unpicklable results
    to a reported error rather than hanging the parent."""
    try:
        transport.send_message(result_conn, pickle.dumps(status, protocol=5))
    except Exception as exc:  # result not picklable: report, don't hang
        fallback = ("err", _portable_exception(exc))
        try:
            transport.send_message(
                result_conn, pickle.dumps(fallback, protocol=5)
            )
        except Exception:
            pass


def _run_task(
    world: _ProcessWorld,
    rank: int,
    func: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    barrier,
    finish_barrier,
    abort_mp,
    timeout: float,
) -> tuple[str, Any]:
    """Execute one parallel-region task on an established world."""
    world.timeout = timeout
    try:
        result = func(Communicator(rank, world), *args, **kwargs)
        status: tuple[str, Any] = ("ok", result)
    except BaseException as exc:  # noqa: BLE001 - must propagate everything
        abort_mp.set()
        for b in (barrier, finish_barrier):
            try:
                b.abort()  # wake peers blocked at a barrier
            except Exception:
                pass
        status = ("err", _portable_exception(exc))
    if status[0] == "ok":
        # Rendezvous before teardown/reuse: a peer may still be sending to
        # this rank (a buffered send must never fail).  This is a
        # *separate* barrier object from the user-visible one — mixing the
        # two would let a finished rank's arrival complete a peer's
        # in-progress user barrier cycle.  A broken barrier means some rank
        # already failed — proceed; the primary error wins at the parent.
        try:
            finish_barrier.wait(timeout=timeout)
        except threading.BrokenBarrierError:
            pass
    return status


def _pool_main(
    rank: int,
    size: int,
    conns: dict[int, connection.Connection],
    extra_conns: list[connection.Connection],
    barrier,
    finish_barrier,
    abort_mp,
    task_conn: connection.Connection | None,
    result_conn: connection.Connection,
    shm_prefix: str,
    task: tuple | None,
) -> None:
    """Pool worker: run tasks until stopped.

    A persistent pool's worker reads each task off its task pipe; a
    one-shot pool's worker (no task pipe) runs the ``task`` it inherited
    through fork and exits.  Each task runs against the same long-lived
    world (same pipes, same shm pool, same attached-segment cache), then
    quiesces the mesh so the next task starts from a clean slate.  Any
    failure leaves the shared barriers broken and the abort flag set — the
    parent invalidates the whole pool, so no recovery is attempted here.
    """
    # Fork gave us every pipe end; keep only ours so peers see EOF promptly.
    _close_all(extra_conns)
    world = _ProcessWorld(rank, size, conns, barrier, abort_mp, shm_prefix)
    world.start()
    while True:
        if task_conn is not None:
            try:
                task = transport.recv_message(task_conn)
            except Exception:  # EOF/OSError: parent gone or shutting down
                break
        if task[0] != "run":
            break  # explicit ("stop",) from shutdown_pool
        _, func, args, kwargs, injector, timeout = task
        # The armed injector ships with the task: a persistent worker forked
        # before the caller armed it, so fork inheritance cannot apply.
        faults.adopt(injector)
        try:
            status = _run_task(
                world, rank, func, args, kwargs, barrier, finish_barrier,
                abort_mp, timeout,
            )
        finally:
            faults.clear()
        clean = False
        if status[0] == "ok" and not abort_mp.is_set():
            try:
                world.flush_task()
                clean = True
            except BaseException:
                pass
        if not clean:
            # The mesh may still carry in-flight traffic — unsafe to reuse.
            abort_mp.set()
        # Clear task-local state BEFORE reporting: once this rank's status
        # reaches the parent, a peer may receive the *next* task and start
        # sending — a clear() after that point would eat the new task's
        # first messages.  Post-flush, clearing here is race-free: the
        # mailbox holds only this task's leftovers.
        world.end_task()
        _send_status(result_conn, status)
        # Drop the last local references to result payloads before teardown
        # so shm-backed arrays die and their mappings close cleanly.
        del status
        if abort_mp.is_set() or task_conn is None:
            break  # invalidated (the parent reaps this worker) or one-shot
    world.shutdown()
    _close_all((task_conn, result_conn))


# ----------------------------------------------------------------------
# parent-side machinery
# ----------------------------------------------------------------------
def _spawn_rank(ctx, target: Callable[..., Any], args: tuple, rank: int):
    """Fork one rank process (seam for spawn-failure injection in tests)."""
    proc = ctx.Process(target=target, args=args, name=f"rank-{rank}", daemon=True)
    proc.start()
    return proc


def _rank_conns(
    pair_pipes: dict, rank: int
) -> dict[int, connection.Connection]:
    """The duplex pipe ends rank ``rank`` uses to reach each peer."""
    conns: dict[int, connection.Connection] = {}
    for (i, j), (ci, cj) in pair_pipes.items():
        if i == rank:
            conns[j] = ci
        elif j == rank:
            conns[i] = cj
    return conns


def _await_results(
    procs: list,
    pending: dict[connection.Connection, int],
    abort_all: Callable[[], None],
    timeout: float,
) -> tuple[list[Any], list[ParallelError]]:
    """Collect one ("ok"/"err", payload) status per rank.

    A child that exited without delivering a result (killed by the OS, or
    ``os._exit`` from fault injection) is detected within
    ~``_DETECT_POLL_S`` as a :class:`RankDiedError`, not after the full
    recv timeout; a region that produces nothing past the timeout grace
    window is declared deadlocked.
    """
    results: list[Any] = [None] * len(procs)
    errors: list[ParallelError] = []
    deadline = time.monotonic() + timeout + 30.0

    def declare_failed(rank: int, exc: BaseException) -> None:
        """Record a failure and wake every surviving rank promptly.

        Aborting wakes blocked receives (each rank's receiver thread polls
        the shared flag every ``_POLL_S``) and ranks blocked in a barrier
        wait.  Without it, peers of a dead rank would stall until the full
        recv timeout."""
        abort_all()
        errors.append(ParallelError(rank, exc))

    def died(rank: int) -> RankDiedError:
        return RankDiedError(
            f"rank {rank} process died without a result "
            f"(exit code {procs[rank].exitcode})"
        )

    while pending:
        ready = connection.wait(list(pending), timeout=_DETECT_POLL_S)
        for conn in ready:
            rank = pending.pop(conn)
            try:
                kind, payload = transport.recv_message(conn)
            except (EOFError, OSError):
                procs[rank].join(timeout=1.0)  # reap so exitcode is readable
                declare_failed(rank, died(rank))
                continue
            if kind == "ok":
                results[rank] = payload
            else:
                declare_failed(rank, payload)
        # Heartbeat: exitcode set + nothing left in the result pipe == dead
        # child (a finished child's result bytes are already in the pipe
        # buffer, and a live pool worker has no exitcode).
        for conn, rank in list(pending.items()):
            if procs[rank].exitcode is not None and not conn.poll():
                del pending[conn]
                declare_failed(rank, died(rank))
        if not ready and pending and time.monotonic() > deadline:
            abort_all()
            for conn, rank in pending.items():
                errors.append(
                    ParallelError(
                        rank,
                        TimeoutError(
                            f"rank {rank} produced no result within "
                            f"{timeout}s — likely deadlock"
                        ),
                    )
                )
            break
    return results, errors


class RankPool:
    """A set of forked rank workers serving parallel-region tasks.

    Forking ``nranks`` processes, building the O(n²) pipe mesh, and warming
    each rank's shm pool costs far more than a small tessellation step — a
    persistent pool pays it once and amortizes it over every subsequent
    ``run_parallel`` at the same rank count.  :meth:`run` leases the
    workers for one pickled task.  Passing ``task`` instead builds a
    *one-shot* pool whose workers inherit that task through fork (it need
    not pickle), run it once and exit; :meth:`collect` gathers its results.

    Any failure (raising rank, dead process, deadlock, unreachable pipe)
    permanently invalidates the pool — its workers are terminated and every
    shm segment carrying the pool's name prefix is swept from ``/dev/shm``
    — and the caller's next run forks a replacement.  :meth:`shutdown`
    releases a healthy pool gracefully.
    """

    def __init__(self, nranks: int, task: tuple | None = None) -> None:
        ctx = get_context("fork")
        self.nranks = nranks
        self.generation = next(_pool_seq)
        self.shm_prefix = f"repro-{os.getpid()}-p{self.generation}"
        self.alive = True
        self.runs = 0
        self.abort_mp = ctx.Event()
        self.barrier = ctx.Barrier(nranks)
        self.finish_barrier = ctx.Barrier(nranks)
        pair_pipes = {
            (i, j): ctx.Pipe(duplex=True)
            for i in range(nranks)
            for j in range(i + 1, nranks)
        }
        # One-shot workers inherit their task; only a persistent pool
        # needs task pipes.
        task_pipes = (
            [ctx.Pipe(duplex=False) for _ in range(nranks)] if task is None else []
        )
        result_pipes = [ctx.Pipe(duplex=False) for _ in range(nranks)]
        data_conns = [c for pair in pair_pipes.values() for c in pair]
        every_conn = data_conns + [c for p in task_pipes + result_pipes for c in p]
        self.task_conns = [w for _, w in task_pipes]
        self.result_conns = [r for r, _ in result_pipes]
        self.procs: list = []
        try:
            for rank in range(nranks):
                conns = _rank_conns(pair_pipes, rank)
                task_conn = task_pipes[rank][0] if task_pipes else None
                mine = {id(c) for c in conns.values()}
                mine |= {id(task_conn), id(result_pipes[rank][1])}
                # Everything a child does not own gets closed post-fork.
                extra = [c for c in every_conn if id(c) not in mine]
                self.procs.append(
                    _spawn_rank(
                        ctx,
                        _pool_main,
                        (
                            rank,
                            nranks,
                            conns,
                            extra,
                            self.barrier,
                            self.finish_barrier,
                            self.abort_mp,
                            task_conn,
                            result_pipes[rank][1],
                            f"{self.shm_prefix}.r{rank}",
                            task,
                        ),
                        rank,
                    )
                )
        except BaseException:
            # A failed spawn must not strand the ranks already started.
            self._abort_all()
            self._kill()
            _close_all(every_conn)
            raise
        # The parent keeps only the task write-ends and result read-ends.
        _close_all(data_conns + [r for r, _ in task_pipes])
        _close_all(w for _, w in result_pipes)
        _pool_count("forks", nranks)

    def _abort_all(self) -> None:
        self.abort_mp.set()
        for b in (self.barrier, self.finish_barrier):
            try:
                b.abort()
            except Exception:
                pass

    def run(self, task_wire: bytes, timeout: float) -> list[Any]:
        """Lease the workers for one pickled task; results in rank order."""
        if not self.alive:
            raise RuntimeError("pool has been invalidated or shut down")
        self.runs += 1
        sent = 0
        try:
            for conn in self.task_conns:
                transport.send_message(conn, task_wire)
                sent += 1
        except Exception as exc:
            # Ranks [0, sent) already started the task; the mesh state is
            # unknowable — tear the pool down rather than reuse it.
            self.invalidate()
            raise ParallelError(
                sent, RankDiedError(f"rank {sent} pool worker unreachable: {exc}")
            ) from exc
        return self.collect(timeout)

    def collect(self, timeout: float) -> list[Any]:
        """Wait for the running task's results, in rank order."""
        pending = {conn: rank for rank, conn in enumerate(self.result_conns)}
        results, errors = _await_results(
            self.procs, pending, self._abort_all, timeout
        )
        if errors or self.abort_mp.is_set():
            self.invalidate()
        if errors:
            _raise_first(errors)
        return results

    def invalidate(self) -> None:
        """Crash-triggered teardown: kill workers, sweep their segments."""
        if not self.alive:
            return
        self.alive = False
        self._abort_all()
        self._kill()
        _pool_count("invalidations")

    def shutdown(self) -> None:
        """Graceful release: workers unlink their own segments and exit."""
        if not self.alive:
            return
        self.alive = False
        stop = pickle.dumps(("stop",), protocol=5)
        for conn in self.task_conns:
            try:
                transport.send_message(conn, stop)
            except Exception:
                pass
        for proc in self.procs:
            proc.join(timeout=5.0)
        self._kill()

    def _kill(self) -> None:
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        _close_all(self.task_conns + self.result_conns)
        # Reclaim segments of workers that never ran their own shutdown
        # (terminated, or hard-killed by fault injection).
        transport.unlink_segments(self.shm_prefix)


def _raise_first(errors: list[ParallelError]) -> None:
    # Prefer the originating failure over secondary teardown errors.
    errors.sort(key=lambda e: (isinstance(e.original, _AbortedError), e.rank))
    raise errors[0]


_pools: dict[int, RankPool] = {}
_pools_lock = threading.Lock()
_atexit_armed = False


def _get_pool(nranks: int) -> RankPool:
    global _atexit_armed
    with _pools_lock:
        pool = _pools.get(nranks)
        if pool is None or not pool.alive:
            pool = RankPool(nranks)
            _pools[nranks] = pool
            if not _atexit_armed:
                atexit.register(shutdown_pool)
                _atexit_armed = True
        return pool


def shutdown_pool() -> None:
    """Shut down every persistent rank pool (graceful, idempotent).

    Registered ``atexit`` when the first pool is created, so interpreter
    exit never strands pool workers; call it explicitly to release the
    worker processes and their shared memory earlier (e.g. at the end of a
    CLI run).
    """
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown()


def run_parallel_processes(
    nranks: int,
    func: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    recv_timeout: float | None = None,
) -> list[Any]:
    """Run ``func(comm, ...)`` on ``nranks`` forked processes (rank order).

    See :func:`repro.diy.comm.run_parallel`, which runs every region of two
    or more ranks here.  Requires POSIX ``fork``.  The task is pickled and
    leased to the persistent :class:`RankPool` for this rank count; a task
    that doesn't pickle runs on a one-shot pool whose workers inherit it.
    Results must pickle either way.
    """
    if not hasattr(os, "fork"):
        raise RuntimeError("multi-rank regions require POSIX fork")
    timeout = _DEFAULT_TIMEOUT if recv_timeout is None else float(recv_timeout)
    task = ("run", func, args, kwargs, faults.active(), timeout)
    try:
        task_wire = pickle.dumps(task, protocol=5)
    except Exception:
        pool = RankPool(nranks, task)
        try:
            return pool.collect(timeout)
        finally:
            pool.shutdown()
    pool = _get_pool(nranks)
    _pool_count("runs_leased")
    if pool.runs:
        _pool_count("runs_reused")
    return pool.run(task_wire, timeout)
