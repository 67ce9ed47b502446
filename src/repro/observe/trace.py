"""Low-overhead per-rank span tracing (the recording half of repro.observe).

A *span* is one timed region on one rank — a simulation step, a
tessellation phase, a blocked receive — carrying a wall-clock interval
(``time.perf_counter``, comparable across threads *and* forked processes
on Linux, where it is the system-wide monotonic clock), the thread-CPU
time consumed inside it (``time.thread_time``), a category, and free-form
attributes.  Spans land in a per-rank ring buffer; exporters
(:mod:`repro.observe.export`) turn the buffers into Chrome trace-event
JSON or flat summaries.

Design rules:

* **Disabled tracing costs near zero.**  :func:`span` checks one module
  flag and returns a shared no-op context manager; :func:`record` is a
  flag check and return.  No buffer is allocated until the first event is
  recorded while enabled.
* **Recording is allocation-light.**  Events are plain tuples appended to
  a bounded ``deque``; when a rank's buffer is full the oldest events are
  overwritten and a drop counter advances (observability must never OOM
  the run it observes).
* **Ranks never share a buffer entry.**  Each forked rank records into
  its own copy of this module's state, which the runtime ships back to
  the parent at region end (see
  :func:`repro.observe.bridge.process_worker`); the parent files events
  by the ``rank`` they carry.

Event tuple layout (kept as a tuple for append speed)::

    (name, rank, t_start, t_end, cpu_s, category, attrs_or_None)
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Iterable

__all__ = [
    "enable",
    "disable",
    "enabled",
    "reset",
    "span",
    "record",
    "raw_events",
    "num_events",
    "dropped_events",
    "ingest",
    "DEFAULT_CAPACITY",
]

DEFAULT_CAPACITY = 65536

# Event tuple field indices (shared with the exporters).
NAME, RANK, T0, T1, CPU, CAT, ATTRS = range(7)

_enabled = False
_capacity = DEFAULT_CAPACITY
_buffers: dict[int, "_RingBuffer"] = {}
_lock = threading.Lock()


class _RingBuffer:
    """Bounded per-rank event store; overwrites oldest when full."""

    __slots__ = ("events", "dropped")

    def __init__(self, capacity: int) -> None:
        self.events: deque = deque(maxlen=capacity)
        self.dropped = 0

    def append(self, event: tuple) -> None:
        if len(self.events) == self.events.maxlen:
            self.dropped += 1
        self.events.append(event)


class _NoopSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP = _NoopSpan()


class _Span:
    """Live span: records itself into the rank's buffer on exit."""

    __slots__ = ("name", "rank", "cat", "attrs", "_w0", "_c0")

    def __init__(self, name: str, rank: int, cat: str, attrs: dict | None):
        self.name = name
        self.rank = rank
        self.cat = cat
        self.attrs = attrs
        self._w0 = 0.0
        self._c0 = 0.0

    def __enter__(self) -> "_Span":
        self._w0 = time.perf_counter()
        self._c0 = time.thread_time()
        return self

    def __exit__(self, *exc: object) -> bool:
        cpu = time.thread_time() - self._c0
        record(
            self.name,
            self.rank,
            self._w0,
            time.perf_counter(),
            cpu=cpu,
            cat=self.cat,
            attrs=self.attrs,
        )
        return False


def enable(capacity: int | None = None) -> None:
    """Turn tracing on; events start recording into per-rank buffers.

    ``capacity`` bounds each rank's ring buffer (events beyond it evict the
    oldest); it applies to buffers created after this call.
    """
    global _enabled, _capacity
    if capacity is not None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        _capacity = int(capacity)
    _enabled = True


def disable() -> None:
    """Turn tracing off.  Recorded events stay until :func:`reset`."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _enabled


def capacity() -> int:
    """The per-rank ring-buffer capacity applied to new buffers."""
    return _capacity


def reset() -> None:
    """Drop all recorded events and their buffers (capacity is kept)."""
    with _lock:
        _buffers.clear()


def span(name: str, rank: int = 0, cat: str = "app", **attrs: Any):
    """Context manager timing ``name`` on ``rank``.

    Returns a shared no-op when tracing is disabled, so instrumented code
    pays one flag check.  ``attrs`` become the span's Chrome-trace ``args``.
    """
    if not _enabled:
        return _NOOP
    return _Span(name, rank, cat, attrs or None)


def record(
    name: str,
    rank: int,
    t0: float,
    t1: float,
    cpu: float = 0.0,
    cat: str = "app",
    attrs: dict | None = None,
) -> None:
    """Append an already-measured span (``perf_counter`` endpoints)."""
    if not _enabled:
        return
    buf = _buffers.get(rank)
    if buf is None:
        with _lock:
            buf = _buffers.setdefault(rank, _RingBuffer(_capacity))
    buf.append((name, rank, t0, t1, cpu, cat, attrs))


def raw_events() -> list[tuple]:
    """All recorded events across ranks (rank order, then record order)."""
    with _lock:
        return [ev for rank in sorted(_buffers) for ev in _buffers[rank].events]


def num_events() -> int:
    """Total events currently buffered."""
    with _lock:
        return sum(len(buf.events) for buf in _buffers.values())


def dropped_events() -> int:
    """Events evicted from full ring buffers since the last :func:`reset`."""
    with _lock:
        return sum(buf.dropped for buf in _buffers.values())


def ingest(events: Iterable[tuple]) -> None:
    """Merge events recorded elsewhere (another process) into the buffers.

    Used by the process backend to fold each forked rank's buffer into the
    parent at region end; events keep their original rank.
    """
    for ev in events:
        buf = _buffers.get(ev[RANK])
        if buf is None:
            with _lock:
                buf = _buffers.setdefault(ev[RANK], _RingBuffer(_capacity))
        buf.append(ev)
