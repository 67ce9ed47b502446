"""SPMD runtime with an mpi4py-style communicator; ranks are processes.

The paper's stack runs one MPI process per rank across Blue Gene/P nodes.
:func:`run_parallel` gives the same programming model: it runs one forked
**OS process** per rank (distributed memory — arrays travel over pipes and
shared memory with pickle protocol-5 zero-copy transport, see
:mod:`repro.diy.process_backend`), and a 1-rank region inline on the
calling thread.  Each rank executes the same function with its own
:class:`Communicator`.

The communicator offers exactly the collectives the pipeline calls, with
mpi4py's lowercase (object, pickle-level) names — ``barrier``/``bcast``/
``gather``/``allreduce``/``exscan``/``alltoall`` plus
``sparse_alltoall`` for the neighbour exchange — so porting the library
onto real MPI is a mechanical substitution of the communicator object.
There is no user point-to-point channel: the collectives' private
send/receive is the only message path.

The :class:`Communicator` itself is transport-agnostic: collectives,
matching, tags, and stats are written once against a small world interface
(``deliver``/``inbox``/``barrier_wait``), which the process backend's
per-rank world and the inline 1-rank world both implement.

Design notes
------------
* Each rank has one mailbox, guarded by a condition variable.  Messages are
  matched by ``(source, tag)``; messages between a given (source, dest,
  tag) triple are delivered in send order (MPI's non-overtaking guarantee).
  Every collective call reserves its own block of tags, so concurrent
  rounds never match each other's traffic.
* Collectives are flat trees — binomial trees for the rooted operations
  (``bcast``/``gather``), recursive doubling for ``allreduce``/``exscan``
  — so every rank sends/receives O(log P) messages.  Reduction ops must
  be associative; commutativity is *not* required (operands always
  combine in rank order, as MPI specifies).
* Collectives must be called by all ranks in the same order, exactly as in
  MPI.
* Every communicator carries a :class:`CommStats` — per-rank counters for
  messages/bytes sent and received, per-collective call counts, and time
  blocked in receives/barriers — for communication observability.
* Payloads are pickled with protocol 5 (buffers out-of-band) and large
  buffers move through pooled shared-memory segments, so a rank never
  aliases another rank's arrays.  Senders must not mutate a buffer after
  sending it; all call sites in this package send freshly built arrays or
  copies.
* Exceptions raised in any rank cancel the whole parallel region and are
  re-raised in the caller, with the originating rank attached.
"""

from __future__ import annotations

import operator
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .. import observe
from ..observe import trace as _otrace

__all__ = [
    "Communicator",
    "CommStats",
    "ParallelError",
    "run_parallel",
]

#: Source wildcard for a matched receive (``sparse_alltoall`` takes its
#: payloads in arrival order).
ANY_SOURCE = -1

_DEFAULT_TIMEOUT = 300.0  # seconds; a deadlocked test should fail, not hang


def _payload_nbytes(obj: Any, _depth: int = 0) -> int:
    """Best-effort payload size estimate for the byte counters.

    Arrays report their buffer size; containers recurse a few levels; objects
    with a ``__dict__`` (e.g. ParticleSet, VoronoiBlock) are costed by their
    attributes.  This is an accounting estimate, not a serialization."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj)
    if obj is None or isinstance(obj, (bool, int, float, complex, np.generic)):
        return 8
    if _depth >= 4:
        return 0
    if isinstance(obj, (list, tuple, set, frozenset, deque)):
        return sum(_payload_nbytes(v, _depth + 1) for v in obj)
    if isinstance(obj, dict):
        return sum(
            _payload_nbytes(k, _depth + 1) + _payload_nbytes(v, _depth + 1)
            for k, v in obj.items()
        )
    attrs = getattr(obj, "__dict__", None)
    if attrs:
        return sum(_payload_nbytes(v, _depth + 1) for v in attrs.values())
    return 0


@dataclass
class CommStats:
    """Per-rank communication counters (the observability layer).

    Counters accumulate over the communicator's lifetime; use
    :meth:`snapshot` + :meth:`since` to meter a region::

        before = comm.stats.snapshot()
        ...  # communicate
        delta = comm.stats.since(before)

    ``recv_wait_s``/``barrier_wait_s`` measure wall-clock time blocked inside
    matched receives and barriers — the per-rank communication critical
    path.
    """

    msgs_sent: int = 0
    msgs_recv: int = 0
    bytes_sent: int = 0
    bytes_recv: int = 0
    recv_wait_s: float = 0.0
    barrier_wait_s: float = 0.0
    #: messages whose payload (partly) traveled via shared memory
    #: (between forked ranks only; always 0 on the inline 1-rank region)
    shm_msgs_sent: int = 0
    #: payload bytes moved through shared-memory segments
    shm_bytes_sent: int = 0
    #: collective name -> number of invocations (e.g. {"bcast": 3})
    collective_calls: dict[str, int] = field(default_factory=dict)

    @property
    def blocked_s(self) -> float:
        """Total wall-clock time blocked in receives and barriers."""
        return self.recv_wait_s + self.barrier_wait_s

    def snapshot(self) -> "CommStats":
        """An independent copy of the current counters."""
        return CommStats(
            msgs_sent=self.msgs_sent,
            msgs_recv=self.msgs_recv,
            bytes_sent=self.bytes_sent,
            bytes_recv=self.bytes_recv,
            recv_wait_s=self.recv_wait_s,
            barrier_wait_s=self.barrier_wait_s,
            shm_msgs_sent=self.shm_msgs_sent,
            shm_bytes_sent=self.shm_bytes_sent,
            collective_calls=dict(self.collective_calls),
        )

    def since(self, baseline: "CommStats") -> "CommStats":
        """Counter deltas relative to an earlier :meth:`snapshot`."""
        calls = {
            name: count - baseline.collective_calls.get(name, 0)
            for name, count in self.collective_calls.items()
            if count != baseline.collective_calls.get(name, 0)
        }
        return CommStats(
            msgs_sent=self.msgs_sent - baseline.msgs_sent,
            msgs_recv=self.msgs_recv - baseline.msgs_recv,
            bytes_sent=self.bytes_sent - baseline.bytes_sent,
            bytes_recv=self.bytes_recv - baseline.bytes_recv,
            recv_wait_s=self.recv_wait_s - baseline.recv_wait_s,
            barrier_wait_s=self.barrier_wait_s - baseline.barrier_wait_s,
            shm_msgs_sent=self.shm_msgs_sent - baseline.shm_msgs_sent,
            shm_bytes_sent=self.shm_bytes_sent - baseline.shm_bytes_sent,
            collective_calls=calls,
        )

    def as_dict(self) -> dict[str, Any]:
        """Flat dict form for reports and benchmark tables."""
        return {
            "msgs_sent": self.msgs_sent,
            "msgs_recv": self.msgs_recv,
            "bytes_sent": self.bytes_sent,
            "bytes_recv": self.bytes_recv,
            "recv_wait_s": self.recv_wait_s,
            "barrier_wait_s": self.barrier_wait_s,
            "shm_msgs_sent": self.shm_msgs_sent,
            "shm_bytes_sent": self.shm_bytes_sent,
            "collective_calls": dict(self.collective_calls),
        }


class ParallelError(RuntimeError):
    """An exception raised inside a parallel region, tagged with its rank."""

    def __init__(self, rank: int, original: BaseException):
        super().__init__(f"rank {rank} raised {type(original).__name__}: {original}")
        self.rank = rank
        self.original = original


class _AbortedError(RuntimeError):
    """Secondary failure: a rank was torn down because a peer rank failed.

    Never surfaced to callers when the primary failure is available.
    """


@dataclass
class _Mailbox:
    """Per-rank incoming message store with (source, tag) matching."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    ready: threading.Condition = field(default=None)  # type: ignore[assignment]
    # queues[(source, tag)] -> deque of payloads, preserving send order
    queues: dict[tuple[int, int], deque] = field(default_factory=dict)
    arrivals: deque = field(default_factory=deque)  # (source, tag) arrival order

    def __post_init__(self) -> None:
        self.ready = threading.Condition(self.lock)

    def put(self, source: int, tag: int, payload: Any) -> None:
        with self.lock:
            self.queues.setdefault((source, tag), deque()).append(payload)
            self.arrivals.append((source, tag))
            self.ready.notify_all()

    def get(
        self, source: int, tag: int, abort: threading.Event, timeout: float
    ) -> tuple[Any, int]:
        """Blocking matched receive; returns (payload, source)."""
        with self.lock:
            while True:
                key = self._match(source, tag)
                if key is not None:
                    payload = self.queues[key].popleft()
                    if not self.queues[key]:
                        del self.queues[key]
                    self.arrivals.remove(key)
                    return payload, key[0]
                if abort.is_set():
                    raise _AbortedError(
                        "parallel region aborted while waiting for message"
                    )
                if not self.ready.wait(timeout=timeout):
                    raise TimeoutError(
                        f"recv(source={source}, tag={tag}) timed out after "
                        f"{timeout}s — likely deadlock"
                    )

    def wake(self) -> None:
        """Wake every receive blocked here (so it can notice an abort)."""
        with self.lock:
            self.ready.notify_all()

    def clear(self) -> None:
        """Drop every queued message (between pooled tasks: a finished
        region's unconsumed payloads must not leak into the next one)."""
        with self.lock:
            self.queues.clear()
            self.arrivals.clear()

    def _match(self, source: int, tag: int) -> tuple[int, int] | None:
        if source != ANY_SOURCE:
            key = (source, tag)
            return key if key in self.queues else None
        # Wildcard source: first arrival carrying this tag.
        for key in self.arrivals:
            if key[1] == tag:
                return key
        return None


class _InlineWorld:
    """The world of an inline 1-rank region (:meth:`Communicator.one_rank`).

    Any "world" a :class:`Communicator` runs on provides this transport
    interface: ``size``/``timeout``/``abort`` attributes plus
    ``deliver(dest, source, tag, payload)`` (returns bytes moved via shared
    memory), ``inbox(rank)`` (the rank's :class:`_Mailbox`), and
    ``barrier_wait()``.  The process backend
    (:mod:`repro.diy.process_backend`) implements it over pipes and shared
    memory; here the one rank's messages go to its own mailbox and a
    barrier has nobody to wait for.
    """

    size = 1

    def __init__(self, timeout: float | None = None):
        self.timeout = _DEFAULT_TIMEOUT if timeout is None else float(timeout)
        self.abort = threading.Event()
        self._mailbox = _Mailbox()

    def deliver(self, dest: int, source: int, tag: int, payload: Any) -> int:
        self._mailbox.put(source, tag, payload)
        return 0

    def inbox(self, rank: int) -> _Mailbox:
        return self._mailbox

    def barrier_wait(self) -> None:
        pass


class Communicator:
    """mpi4py-flavored communicator for one rank of a parallel region.

    All collective operations must be invoked by every rank of the region in
    the same order.  Collectives are flat trees (O(log P) messages per
    rank) built on the private :meth:`_send`/:meth:`_recv` pair, each call
    labeled with its own block of tags.  Per-rank traffic counters live in
    :attr:`stats`.
    """

    _COLL_TAG = 1 << 20  # base tag for collective traffic
    _COLL_STRIDE = 64  # tag slots per collective call (one per tree round)

    def __init__(self, rank: int, world: Any):
        self._rank = rank
        self._world = world
        self._coll_seq = 0  # per-rank collective sequence number
        self.stats = CommStats()

    @classmethod
    def one_rank(cls, recv_timeout: float | None = None) -> "Communicator":
        """The communicator of a 1-rank region: what every SPMD entry point
        runs on when handed ``comm=None`` (a serial run is the 1-rank run)."""
        return cls(0, _InlineWorld(recv_timeout))

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """This rank's index in ``[0, size)``."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the region."""
        return self._world.size

    # ------------------------------------------------------------------
    # the message path under every collective
    # ------------------------------------------------------------------
    def _send(self, obj: Any, dest: int, tag: int) -> None:
        """Buffered send to ``dest``; never blocks."""
        self._check_rank(dest)
        if isinstance(obj, np.ndarray) and not obj.flags["C_CONTIGUOUS"]:
            # Pack before shipping: collective payloads are combined and
            # re-sent up the tree, so one contiguous buffer here means the
            # transport sees a single zero-copy block instead of a strided
            # pickle walk (and shm descriptors stay one-per-array).
            obj = np.ascontiguousarray(obj)
        self.stats.msgs_sent += 1
        self.stats.bytes_sent += _payload_nbytes(obj)
        shm = self._world.deliver(dest, self._rank, tag, obj)
        if shm:
            self.stats.shm_msgs_sent += 1
            self.stats.shm_bytes_sent += shm

    def _recv_from(self, source: int, tag: int) -> tuple[Any, int]:
        """Blocking matched receive; returns ``(payload, source)``.
        ``source`` may be :data:`ANY_SOURCE`."""
        t0 = time.perf_counter()
        try:
            payload, src = self._world.inbox(self._rank).get(
                source, tag, self._world.abort, self._world.timeout
            )
        finally:
            t1 = time.perf_counter()
            self.stats.recv_wait_s += t1 - t0
            if _otrace._enabled:
                _otrace.record("comm-wait", self._rank, t0, t1, cat="comm")
        self.stats.msgs_recv += 1
        self.stats.bytes_recv += _payload_nbytes(payload)
        return payload, src

    def _recv(self, source: int, tag: int) -> Any:
        return self._recv_from(source, tag)[0]

    # ------------------------------------------------------------------
    # collectives (flat tree algorithms)
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """Synchronize all ranks."""
        self._count("barrier")
        t0 = time.perf_counter()
        try:
            self._world.barrier_wait()
        finally:
            t1 = time.perf_counter()
            self.stats.barrier_wait_s += t1 - t0
            if _otrace._enabled:
                _otrace.record("barrier", self._rank, t0, t1, cat="comm")

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root`` down a binomial tree."""
        self._check_rank(root)
        self._count("bcast")
        return self._bcast(obj, root, self._next_coll_tag())

    def _bcast(self, obj: Any, root: int, tag: int) -> Any:
        size, rank = self.size, self._rank
        if size == 1:
            return obj
        vrank = (rank - root) % size
        if vrank != 0:
            hb = 1 << (vrank.bit_length() - 1)  # highest set bit: parent link
            parent = (vrank - hb + root) % size
            obj = self._recv(parent, tag)
        k = 1 << vrank.bit_length()  # children are vrank + 2^j for 2^j > vrank
        while vrank + k < size:
            self._send(obj, (vrank + k + root) % size, tag)
            k <<= 1
        return obj

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank at ``root`` (rank order); None elsewhere.

        Binomial tree: each rank forwards its merged subtree once, so no
        rank receives more than O(log P) bundles."""
        self._check_rank(root)
        self._count("gather")
        tag = self._next_coll_tag()
        size, rank = self.size, self._rank
        if size == 1:
            return [obj]
        vrank = (rank - root) % size
        subtree: dict[int, Any] = {vrank: obj}
        k = 1
        while k < size:
            if vrank & k:
                self._send(subtree, (vrank - k + root) % size, tag)
                return None
            child = vrank + k
            if child < size:
                subtree.update(self._recv((child + root) % size, tag))
            k <<= 1
        return [subtree[(r - root) % size] for r in range(size)]

    def _reduce(
        self, obj: Any, op: Callable[[Any, Any], Any], tag: int
    ) -> Any | None:
        """Binomial reduce to rank 0 in rank order; ``None`` elsewhere."""
        rank, size = self._rank, self.size
        acc = obj
        stride = 1
        while stride < size:
            if rank % (2 * stride) == stride:
                self._send(acc, rank - stride, tag)
                return None
            partner = rank + stride
            if rank % (2 * stride) == 0 and partner < size:
                # Lower rank on the left: preserves rank order.
                acc = op(acc, self._recv(partner, tag))
            stride <<= 1
        return acc

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] = None) -> Any:
        """Reduce with ``op`` (default +); every rank gets the result.

        Recursive doubling for power-of-two sizes, binomial reduce +
        broadcast otherwise.  Both combine in rank order, so
        non-commutative ops stay exact."""
        self._count("allreduce")
        op = op or operator.add
        tag = self._next_coll_tag()
        rank, size = self._rank, self.size
        if size == 1:
            return obj
        if size & (size - 1):
            return self._bcast(self._reduce(obj, op, tag), 0, tag + 32)
        acc = obj
        k = 1
        rnd = 0
        while k < size:
            partner = rank ^ k
            self._send(acc, partner, tag + rnd)
            other = self._recv(partner, tag + rnd)
            acc = op(acc, other) if partner > rank else op(other, acc)
            k <<= 1
            rnd += 1
        return acc

    def exscan(self, value: Any, op: Callable[[Any, Any], Any] = None) -> Any:
        """Exclusive prefix reduction; rank 0 receives ``None``.

        Recursive-doubling distributed scan: rank r learns progressively
        earlier contiguous segments and prepends them, so non-commutative
        ops are safe.  Used by the parallel writer to turn per-rank byte
        counts into file offsets, exactly as DIY does with ``MPI_Exscan``.
        """
        self._count("exscan")
        op = op or operator.add
        tag = self._next_coll_tag()
        rank, size = self._rank, self.size
        result = None  # exclusive prefix over ranks [x, rank)
        acc = value  # reduction of a contiguous range ending at this rank
        stride = 1
        rnd = 0
        while stride < size:
            if rank + stride < size:
                self._send(acc, rank + stride, tag + rnd)
            if rank - stride >= 0:
                other = self._recv(rank - stride, tag + rnd)
                result = other if result is None else op(other, result)
                acc = op(other, acc)
            stride <<= 1
            rnd += 1
        return result

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Exchange ``objs[d]`` to each rank ``d``; returns items received
        from every rank, in rank order.  Dense: O(P) messages per rank by
        construction — use :meth:`sparse_alltoall` when most entries are
        empty."""
        if len(objs) != self.size:
            raise ValueError(f"alltoall needs {self.size} items, got {len(objs)}")
        self._count("alltoall")
        tag = self._next_coll_tag()
        for dst in range(self.size):
            if dst != self._rank:
                self._send(objs[dst], dst, tag)
        out: list[Any] = [None] * self.size
        out[self._rank] = objs[self._rank]
        for src in range(self.size):
            if src != self._rank:
                out[src] = self._recv(src, tag)
        return out

    def sparse_alltoall(self, outbox: Mapping[int, Any]) -> dict[int, Any]:
        """Point-to-point exchange of per-destination payloads (collective).

        Every rank passes a mapping from destination rank to payload,
        containing only the destinations it actually addresses.  Returns the
        mapping from source rank to received payload.  A small header round
        (an elementwise-summed count vector, itself a tree allreduce) tells
        each rank how many payloads to expect, so total message cost is
        O(neighbors + log P) instead of the dense alltoall's O(P).
        """
        self._count("sparse_alltoall")
        counts = np.zeros(self.size, dtype=np.int64)
        for dest in outbox:
            self._check_rank(dest)
            if dest != self._rank:
                counts[dest] = 1
        incoming = self.allreduce(counts)
        tag = self._next_coll_tag()
        for dest in sorted(outbox):
            if dest != self._rank:
                self._send(outbox[dest], dest, tag)
        received: dict[int, Any] = {}
        for _ in range(int(incoming[self._rank])):
            payload, src = self._recv_from(ANY_SOURCE, tag)
            received[src] = payload
        if self._rank in outbox:
            received[self._rank] = outbox[self._rank]
        return received

    # ------------------------------------------------------------------
    def _count(self, name: str) -> None:
        calls = self.stats.collective_calls
        calls[name] = calls.get(name, 0) + 1

    def _next_coll_tag(self) -> int:
        # Collectives execute in the same order on all ranks, so a per-rank
        # sequence number yields matching tags without coordination.  Each
        # call reserves _COLL_STRIDE tag slots for its tree rounds.
        self._coll_seq += 1
        return self._COLL_TAG + self._coll_seq * self._COLL_STRIDE

    def _check_rank(self, r: int) -> None:
        if not 0 <= r < self.size:
            raise ValueError(f"rank {r} out of range [0, {self.size})")


def run_parallel(
    nranks: int,
    func: Callable[..., Any],
    *args: Any,
    recv_timeout: float | None = None,
    backend: str = "process",
    **kwargs: Any,
) -> list[Any]:
    """Run ``func(comm, *args, **kwargs)`` on ``nranks`` ranks; return results.

    ``func`` receives a :class:`Communicator` as its first argument.  Returns
    the per-rank return values in rank order.  If any rank raises, the region
    is aborted and a :class:`ParallelError` wrapping the first failure is
    raised.

    Each rank is one forked OS process.  Payloads move over pipes with
    pickle protocol-5 out-of-band buffers, large arrays through pooled
    shared-memory segments (see :mod:`repro.diy.process_backend`).  A
    picklable ``func`` and arguments lease the persistent rank pool for
    this rank count; anything else (a closure) runs on a one-shot pool.
    Requires ``os.fork`` (Linux/macOS).  Results must be picklable.

    ``nranks == 1`` runs inline on the calling thread, on
    :meth:`Communicator.one_rank` — the serial mode, and the same
    communicator every SPMD entry point makes of ``comm=None``.

    ``recv_timeout`` bounds how long a matched receive or barrier may block
    before the region is declared deadlocked (default 300 s).

    ``backend`` is a compatibility shim, not a choice: ``"process"`` at any
    rank count, or ``"thread"`` at 1 rank (which runs inline either way);
    anything else raises ``ValueError``.
    """
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    if backend != "process" and not (backend == "thread" and nranks == 1):
        raise ValueError(
            f"backend={backend!r} is not supported at {nranks} rank(s): "
            "ranks are processes"
        )

    if nranks == 1:
        comm = Communicator.one_rank(recv_timeout)
        result = func(comm, *args, **kwargs)
        if observe.enabled():
            observe.rank_finished(comm)
        return [result]

    from .process_backend import run_parallel_processes

    if observe.enabled():
        # Forked ranks record observations into their own copies of the
        # observe state; the wrapper ships each rank's span buffer and
        # metrics back with its result for the parent to merge into the
        # globally-ordered trace.
        wrapped = run_parallel_processes(
            nranks, observe.process_worker(func), args, kwargs,
            recv_timeout=recv_timeout,
        )
        return observe.absorb_process_results(wrapped)
    return run_parallel_processes(
        nranks, func, args, kwargs, recv_timeout=recv_timeout
    )
