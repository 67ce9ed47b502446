"""repro.serve — tessellation-as-a-service.

The paper's endgame is tessellation as a reusable analysis *product*: its
ParaView reader plugin serves the blocked tess format to one interactive
user.  This package is the many-users version — a read-optimized catalog
store over the same footer-indexed block files, an asyncio HTTP server
answering void / component / halo / density-profile / Minkowski queries
by region, step, and threshold, and the serving mechanics production
demands between them:

* :mod:`~repro.serve.store` — multi-snapshot catalog manifest with
  ETag-style content versioning over mmap'd, CRC-validated block files;
* :mod:`~repro.serve.cache` — one-lock LRU block cache with a byte budget
  and per-key miss coalescing;
* :mod:`~repro.serve.server` / :mod:`~repro.serve.protocol` — the
  asyncio server and its minimal HTTP/1.1 wire layer: each query is
  checked on the event loop, admitted under a bound on queries in
  flight (503 + Retry-After beyond it), and its kernel runs straight on
  a worker pool;
* :mod:`~repro.serve.client` — the async load generator CI drives.

Quickstart::

    repro-serve build /tmp/catalog --points 4000 --steps 2
    repro-serve serve /tmp/catalog --port 8070 &
    repro-serve load 127.0.0.1:8070 --requests 200 --concurrency 32

Per-request spans and ``serve.*`` metrics flow through
:mod:`repro.observe` (p50/p99 latency via
:class:`~repro.observe.QuantileReservoir`).
"""

from __future__ import annotations

from .cache import BlockCache, CacheStats
from .client import LoadReport, default_query_mix, run_load, wait_ready
from .server import ServeConfig, TessServer
from .store import CatalogError, CatalogStore, Snapshot, SnapshotInfo

__all__ = [
    "BlockCache",
    "CacheStats",
    "CatalogError",
    "CatalogStore",
    "LoadReport",
    "ServeConfig",
    "Snapshot",
    "SnapshotInfo",
    "TessServer",
    "default_query_mix",
    "run_load",
    "wait_ready",
]
