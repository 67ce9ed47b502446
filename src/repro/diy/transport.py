"""Zero-copy NumPy payload transport for the process SPMD backend.

Serialization strategy (used by :mod:`repro.diy.process_backend`):

* Payloads are pickled with **protocol 5**, so every contiguous NumPy
  buffer is surrendered out-of-band as a :class:`pickle.PickleBuffer`
  instead of being copied into the pickle stream.
* Small buffers travel inline with the metadata over the pipe.  Buffers at
  or above :data:`SHM_THRESHOLD` bytes are placed in a
  ``multiprocessing.shared_memory`` segment: the sender copies the raw
  bytes in once, ships only ``(segment name, offset, size)``, and the
  receiver reconstructs the arrays as **views into the mapped segment** —
  no per-element serialization and no receive-side copy.
* Segments come from a per-process :class:`ShmPool` (power-of-two size
  classes).  Ownership stays with the sender: the receiver tracks each
  mapped region in a :class:`SegmentLease` and, once no live array
  references the mapping (refcount-observed idleness), the segment name is
  released back to the owner, whose pool recycles it for later sends.  This
  keeps steady-state communication (ghost exchange every step, mesh
  allreduce every step) allocating shared memory O(1) times rather than
  O(steps).

The wire format is ``(meta, descriptors)`` where ``meta`` is the pickle
stream and each descriptor is ``("raw", bytes)`` for an inline buffer or
``("shm", name, offset, nbytes)`` for a shared-memory one.

Pipe framing
------------
``multiprocessing.connection.Connection.send_bytes`` stores each frame's
length in a C ``int``, so a single frame is capped just below 2 GiB.  One
message is one frame: large arrays ride shared memory, so the pickled wire
blob stays small, and a frame above the cap raises a :class:`CommError`
naming its size instead of an opaque ``struct.error``/``OSError`` from deep
inside the pipe code.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "SHM_THRESHOLD",
    "CommError",
    "ShmPool",
    "SegmentLease",
    "encode_payload",
    "decode_payload",
    "attach_segment",
    "send_message",
    "recv_message",
    "unlink_segments",
]

#: Buffers at or above this many bytes ride in shared memory instead of the
#: pipe.  Kept below the typical 64 KiB pipe buffer so inline messages
#: rarely block the sender.
SHM_THRESHOLD = 1 << 15

#: Hard per-frame cap of Connection.send_bytes (length is a C int; leave
#: headroom for the protocol's own header).
_PIPE_MAX = (1 << 31) - 64

_MIN_SEGMENT = 1 << 15  # smallest size class (32 KiB)
_ALIGN = 64  # buffer alignment within a segment


class CommError(RuntimeError):
    """Transport-level failure with an actionable message (e.g. a payload
    too large for a single pipe frame)."""


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Unregister an *attached* segment from the resource tracker.

    On Python < 3.13 merely attaching registers the segment, so the
    attaching process would unlink it (and warn) at exit even though the
    creating process owns cleanup.  Undo that registration; the owner's
    pool performs the real unlink.
    """
    try:  # pragma: no cover - tracker internals, best effort
        from multiprocessing import resource_tracker

        name = shm._name  # type: ignore[attr-defined]
        resource_tracker.unregister(name, "shared_memory")
    except Exception:
        pass


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment by name without claiming ownership of it."""
    shm = shared_memory.SharedMemory(name=name, create=False)
    _untrack(shm)
    return shm


def unlink_segments(prefix: str) -> int:
    """Best-effort unlink of every /dev/shm segment named ``prefix*``.

    The recovery path for ranks that died without running their pool's
    :meth:`ShmPool.shutdown` (``os._exit`` fault injection, ``SIGTERM`` from
    the parent): their segments would otherwise accumulate in ``/dev/shm``
    until the filesystem fills.  Pools created with a name ``prefix`` get
    deterministic segment names, so the parent can sweep a dead region by
    prefix alone.  Returns the number of segments removed; harmless (0) on
    platforms without a /dev/shm directory.
    """
    shm_dir = "/dev/shm"
    removed = 0
    try:
        names = os.listdir(shm_dir)
    except OSError:
        return 0
    for name in names:
        if name.startswith(prefix):
            try:
                os.unlink(os.path.join(shm_dir, name))
                removed += 1
            except OSError:
                pass
    return removed


def send_message(conn, wire: bytes) -> None:
    """Send one message over ``conn`` as a single frame.

    Raises :class:`CommError` naming the size when ``wire`` exceeds the
    pipe's frame cap.
    """
    if len(wire) > _PIPE_MAX:
        raise CommError(
            f"message of {len(wire)} bytes exceeds the {_PIPE_MAX}-byte pipe "
            f"frame limit; move the payload into shared memory"
        )
    conn.send_bytes(wire)


def recv_message(conn) -> object:
    """Receive one message sent by :func:`send_message`.

    Propagates ``EOFError``/``OSError`` from the underlying pipe unchanged
    so callers keep their dead-peer handling.
    """
    return pickle.loads(conn.recv_bytes())


class ShmPool:
    """Per-process pooled allocator of shared-memory segments.

    Segments are created in power-of-two size classes and handed out with
    :meth:`acquire`; once the receiving process reports a segment idle (via
    the backend's release protocol) :meth:`recycle` returns it to the free
    list for reuse.  :meth:`shutdown` unlinks every segment this pool ever
    created — the pool is the single owner of its segments' lifetimes.

    A ``prefix`` makes segment names deterministic (``<prefix>.<seq>``), so
    a supervising process that knows the prefix can reclaim the segments of
    a rank that died without running :meth:`shutdown` (see
    :func:`unlink_segments`).
    """

    def __init__(self, prefix: str | None = None) -> None:
        # acquire() runs on the app (sending) thread while recycle() runs on
        # the backend's receiver thread, so the free lists are lock-guarded.
        self._lock = threading.Lock()
        self._free: dict[int, list[shared_memory.SharedMemory]] = {}
        self._inflight: dict[str, shared_memory.SharedMemory] = {}
        self._prefix = prefix
        self._seq = 0
        self.created = 0  # segments ever created (observability/tests)
        self.recycled = 0  # acquires served from the free list

    @staticmethod
    def _size_class(nbytes: int) -> int:
        size = _MIN_SEGMENT
        while size < nbytes:
            size <<= 1
        return size

    def acquire(self, nbytes: int) -> shared_memory.SharedMemory:
        """A segment of at least ``nbytes``, reused from the pool if possible."""
        size = self._size_class(nbytes)
        with self._lock:
            bucket = self._free.get(size)
            shm = bucket.pop() if bucket else None
        if shm is not None:
            self.recycled += 1
        else:
            shm = self._create(size)
            self.created += 1
        with self._lock:
            self._inflight[shm.name] = shm
        return shm

    def _create(self, size: int) -> shared_memory.SharedMemory:
        if self._prefix is None:
            return shared_memory.SharedMemory(create=True, size=size)
        # Deterministic names; skip over leftovers from an earlier
        # incarnation rather than failing (the sweep may not have run yet).
        while True:
            name = f"{self._prefix}.{self._seq}"
            self._seq += 1
            try:
                return shared_memory.SharedMemory(name=name, create=True, size=size)
            except FileExistsError:
                continue

    def recycle(self, name: str) -> None:
        """Return an in-flight segment (reported idle by its receiver)."""
        with self._lock:
            shm = self._inflight.pop(name, None)
            if shm is not None:
                self._free.setdefault(shm.size, []).append(shm)

    def shutdown(self) -> None:
        """Close and unlink every segment this pool created (idempotent)."""
        with self._lock:
            segments = list(self._inflight.values())
            self._inflight.clear()
            for bucket in self._free.values():
                segments.extend(bucket)
            self._free.clear()
        for shm in segments:
            close_segment_quietly(shm)
            try:
                shm.unlink()
            except FileNotFoundError:
                pass


def close_segment_quietly(shm: shared_memory.SharedMemory) -> None:
    """Close a mapping, tolerating (and permanently silencing) live exports.

    If an array still aliases the mapping, ``close()`` raises BufferError —
    and would raise *again* from ``SharedMemory.__del__`` at interpreter
    exit, spewing "Exception ignored" noise.  The memory is reclaimed by the
    OS at process exit regardless, so on failure the instance's ``close`` is
    stubbed out to keep the destructor quiet.
    """
    try:
        shm.close()
    except BufferError:
        shm.close = lambda: None  # type: ignore[method-assign]


class SegmentLease:
    """Receiver-side record of one message's shared-memory mappings.

    Holds the uint8 wrapper arrays handed to ``pickle.loads`` as
    out-of-band buffers.  Buffer views that NumPy derives during
    reconstruction keep a reference to their *exporter* — the wrapper —
    so the lease is *idle* exactly when every wrapper's refcount has
    fallen back to the lease's own bookkeeping references, at which point
    the segment names can be sent back to the owning rank for recycling.
    (A plain memoryview would not work here: CPython chains derived views
    to the underlying mmap exporter, skipping the intermediate object.)
    """

    __slots__ = ("names", "views")

    def __init__(self, names: list[str], views: list[np.ndarray]):
        self.names = names
        self.views = views

    def idle(self) -> bool:
        """True when no consumer (array) references any wrapper anymore."""
        # Refcount 3 = self.views entry + loop variable + getrefcount arg.
        return all(sys.getrefcount(v) <= 3 for v in self.views)

    def release_views(self) -> None:
        """Drop the lease's wrapper references."""
        self.views = []


def encode_payload(
    obj: object, pool: ShmPool
) -> tuple[bytes, list[tuple], int]:
    """Serialize ``obj`` into ``(meta, descriptors, shm_bytes)``.

    ``meta`` is the protocol-5 pickle stream with buffers elided;
    ``descriptors`` carries one entry per out-of-band buffer; ``shm_bytes``
    is how many payload bytes were diverted into shared memory (0 when the
    payload was inline-only).  Buffers of at least :data:`SHM_THRESHOLD`
    bytes go to shared memory.
    """
    buffers: list[pickle.PickleBuffer] = []
    meta = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)

    raws: list[memoryview | bytes] = []
    for pb in buffers:
        try:
            raws.append(pb.raw())  # flat view of the underlying memory
        except BufferError:
            # Non C-contiguous underlying buffer (e.g. an F-ordered array):
            # 'A' order preserves the memory layout the reconstructor expects.
            raws.append(memoryview(pb).tobytes(order="A"))

    descriptors: list[tuple] = [()] * len(raws)
    large = [i for i, r in enumerate(raws) if r.nbytes >= SHM_THRESHOLD]
    shm_bytes = 0
    if large:
        # Pack all large buffers of this message into one pooled segment.
        offsets: list[int] = []
        cursor = 0
        for i in large:
            offsets.append(cursor)
            cursor += -(-raws[i].nbytes // _ALIGN) * _ALIGN
        seg = pool.acquire(cursor)
        for i, off in zip(large, offsets):
            n = raws[i].nbytes
            seg.buf[off : off + n] = raws[i]
            descriptors[i] = ("shm", seg.name, off, n)
            shm_bytes += n
    for i, r in enumerate(raws):
        if not descriptors[i]:
            descriptors[i] = ("raw", r.tobytes() if isinstance(r, memoryview) else r)
    return meta, descriptors, shm_bytes


def decode_payload(
    meta: bytes,
    descriptors: list[tuple],
    attach,
) -> tuple[object, SegmentLease | None]:
    """Inverse of :func:`encode_payload`.

    ``attach`` maps a segment name to a mapped ``SharedMemory`` (the caller
    caches mappings per peer segment).  Arrays referencing shared-memory
    buffers are **views into the segment** (via a uint8 wrapper array whose
    lifetime the lease can observe); the returned lease tracks them so the
    segment can be recycled once they die.  Returns ``(payload, lease)``
    with ``lease=None`` for inline-only messages.
    """
    buffers: list[bytes | np.ndarray] = []
    names: list[str] = []
    views: list[np.ndarray] = []
    for d in descriptors:
        if d[0] == "raw":
            buffers.append(d[1])
        else:
            _, name, off, n = d
            shm = attach(name)
            wrap = np.frombuffer(shm.buf, dtype=np.uint8, offset=off, count=n)
            if name not in names:
                names.append(name)
            views.append(wrap)
            buffers.append(wrap)
    obj = pickle.loads(meta, buffers=buffers)
    del buffers
    lease = SegmentLease(names, views) if views else None
    return obj, lease
