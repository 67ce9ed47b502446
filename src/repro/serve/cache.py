"""LRU block cache with a byte budget and miss coalescing.

Decoded :class:`~repro.core.data_model.VoronoiBlock`\\ s are the unit of
caching — decode cost (CRC check plus array materialization) is paid once
per ``(etag, gid)`` and every query against that block reuses the arrays.

Design points, each load-bearing under concurrency:

* **one lock, one LRU** — lookups and insertions are a dict operation
  under one lock; the byte budget bounds the whole cache.
* **miss coalescing** — the cache tracks in-flight loads by key; the
  first requester becomes the *leader* and performs the read outside the
  lock, followers wait on the leader's
  :class:`~concurrent.futures.Future`.  N concurrent requests for one cold
  block cost exactly one underlying read (``serve.cache.loads`` counts
  reads, ``serve.cache.coalesced`` counts followers — the coalescing test
  asserts both).
* **admission** — an entry larger than the whole budget is returned to
  the caller but never admitted (``serve.cache.oversized``); caching it
  would evict everything for one self-evicting tenant.
* **etag invalidation** — keys embed the snapshot etag, so a republished
  snapshot can never get stale hits; :meth:`BlockCache.evict_stale`
  reclaims the dead bytes eagerly when the catalog manifest changes.

All methods are thread-safe; the asyncio server calls them from worker
threads, and the unit tests drive them with raw threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Any, Callable, Hashable

from ..observe import registry

__all__ = ["BlockCache", "CacheStats"]

Key = Hashable
#: a loader returns (value, nbytes) — nbytes is what the entry costs
Loader = Callable[[], tuple[Any, int]]


class CacheStats:
    """Point-in-time cache counters (mirrored into ``repro.observe``)."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.loads = 0
        self.evictions = 0
        self.oversized = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "loads": self.loads,
            "evictions": self.evictions,
            "oversized": self.oversized,
        }


class BlockCache:
    """Thread-safe LRU cache keyed by ``(etag, gid)`` tuples."""

    def __init__(self, max_bytes: int):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        # key -> (value, nbytes), in LRU order (last = most recent)
        self._entries: OrderedDict[Key, tuple[Any, int]] = OrderedDict()
        self._loading: dict[Key, Future] = {}
        self.nbytes = 0
        self.stats = CacheStats()
        reg = registry()
        self._m_hits = reg.counter("serve.cache.hits")
        self._m_misses = reg.counter("serve.cache.misses")
        self._m_coalesced = reg.counter("serve.cache.coalesced")
        self._m_loads = reg.counter("serve.cache.loads")
        self._m_evictions = reg.counter("serve.cache.evictions")
        self._m_oversized = reg.counter("serve.cache.oversized")
        self._m_bytes = reg.gauge("serve.cache.bytes")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Key) -> bool:
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------
    def get(self, key: Key, loader: Loader) -> Any:
        """The cached value for ``key``, loading it via ``loader`` on a
        miss.  Concurrent misses for one key perform one load."""
        leader = False
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                self._m_hits.inc()
                return entry[0]
            fut = self._loading.get(key)
            if fut is not None:
                self.stats.coalesced += 1
                self._m_coalesced.inc()
            else:
                fut = Future()
                self._loading[key] = fut
                self.stats.misses += 1
                self._m_misses.inc()
                leader = True
        if not leader:
            return fut.result()

        try:
            self.stats.loads += 1
            self._m_loads.inc()
            value, nbytes = loader()
        except BaseException as exc:
            with self._lock:
                self._loading.pop(key, None)
            fut.set_exception(exc)
            raise
        with self._lock:
            self._loading.pop(key, None)
            if nbytes <= self.max_bytes:
                self._entries[key] = (value, nbytes)
                self.nbytes += nbytes
                self._evict_locked()
            else:
                self.stats.oversized += 1
                self._m_oversized.inc()
            self._m_bytes.set(self.nbytes)
        fut.set_result(value)
        return value

    def _evict_locked(self) -> None:
        while self.nbytes > self.max_bytes and len(self._entries) > 1:
            _, (_, nbytes) = self._entries.popitem(last=False)
            self.nbytes -= nbytes
            self.stats.evictions += 1
            self._m_evictions.inc()

    # ------------------------------------------------------------------
    def evict_stale(self, valid_etags: set[str]) -> int:
        """Drop entries whose key's etag is no longer live; returns the
        number evicted.  Called when the catalog manifest changes."""
        with self._lock:
            stale = [
                k
                for k in self._entries
                if isinstance(k, tuple) and k and k[0] not in valid_etags
            ]
            for key in stale:
                self.nbytes -= self._entries.pop(key)[1]
                self.stats.evictions += 1
                self._m_evictions.inc()
            if stale:
                self._m_bytes.set(self.nbytes)
        return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0
        self._m_bytes.set(0)
