"""The asyncio tessellation query server.

One event loop owns admission, routing, and framing; the NumPy-heavy
query kernels run on :class:`~repro.serve.batching.QueryBatcher`'s worker
pool against blocks faulted in through the
:class:`~repro.serve.cache.BlockCache`.  The flow for ``POST /query``:

1. parse + validate the spec (400 on garbage — before any I/O),
2. refresh the catalog manifest (one ``stat``; on change, evict cache
   entries whose snapshot etag died),
3. resolve the query region to the gid set of intersecting blocks via
   the snapshot's extents index,
4. submit to the batcher keyed by ``(etag, gids)`` — overload is rejected
   *here* with 503 + Retry-After, before pool or cache memory is
   committed,
5. on a worker thread: pull each block through the cache (misses
   coalesce; one cold read per block however many queries want it) and
   run the :func:`repro.analysis.query.run_query` kernel,
6. frame the JSON result with the snapshot ``ETag``.

Every request is wrapped in a ``repro.observe`` span (``serve-request``,
visible in ``--trace`` Chrome traces next to the simulation's own spans)
and recorded in the registry: ``serve.requests{op=..,status=..}``
counters, a ``serve.request_ms`` quantile reservoir (p50/p99), and
per-op ``serve.request_ms_sum{op=..}`` histograms.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

from ..analysis.query import QueryError, region_bounds, run_query
from ..diy.bounds import Bounds
from ..observe import registry, span
from .batching import QueryBatcher, ServerBusy
from .cache import BlockCache
from .protocol import (
    HttpRequest,
    HttpResponse,
    ProtocolError,
    error_response,
    json_response,
    read_request,
    render_response,
)
from .store import CatalogError, CatalogStore, Snapshot

__all__ = ["ServeConfig", "TessServer"]


@dataclass
class ServeConfig:
    """Tunables of one server instance (all have serving-grade defaults)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands on TessServer.port
    cache_bytes: int = 256 * 1024 * 1024
    workers: int = 4
    max_inflight: int = 128
    retry_after_s: float = 0.05

    def __post_init__(self) -> None:
        if self.cache_bytes <= 0:
            raise ValueError(f"cache_bytes must be positive, got {self.cache_bytes}")
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")


class TessServer:
    """Serves one :class:`~repro.serve.store.CatalogStore` over HTTP."""

    def __init__(self, store: CatalogStore, config: ServeConfig | None = None):
        self.store = store
        self.config = config or ServeConfig()
        self.cache = BlockCache(self.config.cache_bytes)
        self.batcher = QueryBatcher(
            max_workers=self.config.workers,
            max_inflight=self.config.max_inflight,
            retry_after_s=self.config.retry_after_s,
        )
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._started = time.monotonic()
        reg = registry()
        self._m_latency = reg.reservoir("serve.request_ms")
        self._m_connections = reg.counter("serve.connections")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.monotonic()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.batcher.shutdown()
        self.store.close()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._m_connections.inc()
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    writer.write(render_response(error_response(400, str(exc))))
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                writer.write(render_response(response))
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(self, request: HttpRequest) -> HttpResponse:
        op = "http"
        t0 = time.perf_counter()
        with span("serve-request", cat="serve", path=request.path):
            try:
                if request.path == "/healthz":
                    response = json_response(200, {"status": "ok"})
                elif request.path == "/catalog":
                    response = self._handle_catalog(request)
                elif request.path == "/metrics":
                    response = json_response(200, self.metrics_snapshot())
                elif request.path == "/query":
                    if request.method != "POST":
                        response = error_response(405, "POST /query")
                    else:
                        op, response = await self._handle_query(request)
                else:
                    response = error_response(
                        404, f"no route for {request.path}"
                    )
            except ProtocolError as exc:
                response = error_response(400, str(exc))
            except Exception as exc:  # noqa: BLE001 - fault barrier
                response = error_response(500, f"internal error: {exc}")
        ms = (time.perf_counter() - t0) * 1e3
        reg = registry()
        self._m_latency.observe(ms)
        reg.histogram("serve.request_ms_sum", op=op).observe(ms)
        reg.counter("serve.requests", op=op, status=response.status).inc()
        return response

    def _handle_catalog(self, request: HttpRequest) -> HttpResponse:
        if self.store.refresh():
            self.cache.evict_stale(self.store.etags())
        manifest = self.store.manifest()
        etag = f'"{manifest["etag"]}"'
        if request.headers.get("if-none-match") == etag:
            return HttpResponse(status=304, headers={"etag": etag})
        return json_response(200, manifest, headers={"etag": etag})

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _profile_gids(self, snapshot: Snapshot, spec: dict) -> list[int]:
        """Blocks a profile query needs: those intersecting the
        center±rmax box, or every block when the ball wraps a periodic
        boundary (minimum-image distances may then reach any block)."""
        domain = snapshot.domain
        center = np.asarray(spec.get("center", ()), dtype=float)
        rmax = float(spec.get("rmax", 0.0))
        if center.shape != (domain.dim,) or rmax <= 0:
            raise QueryError("profile queries require 'center' and 'rmax' > 0")
        lo, hi = domain.as_arrays()
        if np.any(center - rmax < lo) or np.any(center + rmax > hi):
            return snapshot.gids_for_region(None)
        ball = Bounds.from_arrays(center - rmax, center + rmax)
        return snapshot.gids_for_region(ball)

    async def _handle_query(
        self, request: HttpRequest
    ) -> tuple[str, HttpResponse]:
        spec = request.json()
        op = str(spec.get("op", "?"))
        if self.store.refresh():
            self.cache.evict_stale(self.store.etags())
        steps = self.store.steps()
        if not steps:
            return op, error_response(404, "catalog is empty")
        step = spec.get("step", steps[-1])
        if not isinstance(step, int):
            return op, error_response(400, f"step must be an integer, got {step!r}")
        try:
            snapshot = self.store.snapshot(step)
        except CatalogError as exc:
            return op, error_response(404, str(exc))

        try:
            if op == "profile":
                gids = self._profile_gids(snapshot, spec)
            else:
                region = region_bounds(spec.get("region"), snapshot.domain)
                gids = snapshot.gids_for_region(region)
        except QueryError as exc:
            return op, error_response(400, str(exc))

        etag = snapshot.etag
        domain = snapshot.domain

        def kernel() -> dict:
            blocks = [
                self.cache.get(
                    (etag, gid), lambda g=gid: snapshot.load_block(g)
                )
                for gid in gids
            ]
            return run_query(domain, blocks, spec)

        try:
            result = await self.batcher.submit((etag, tuple(gids)), kernel)
        except ServerBusy as exc:
            return op, error_response(
                503,
                "busy",
                headers={"retry-after": f"{exc.retry_after_s:.3f}"},
                retry_after_s=exc.retry_after_s,
            )
        except QueryError as exc:
            return op, error_response(400, str(exc))

        result["step"] = step
        result["etag"] = etag
        result["blocks"] = len(gids)
        return op, json_response(200, result, headers={"etag": f'"{etag}"'})

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """Summary of the server's observe metrics (no raw samples)."""
        snap = registry().as_dict()
        out: dict[str, object] = {
            "uptime_s": time.monotonic() - self._started,
            "inflight": self.batcher.inflight,
            "cache": self.cache.stats.as_dict(),
            "cache_bytes": self.cache.nbytes,
            "latency_ms": {
                "count": self._m_latency.count,
                "p50": self._m_latency.percentile(50),
                "p90": self._m_latency.percentile(90),
                "p99": self._m_latency.percentile(99),
            },
            "counters": {
                k: v
                for k, v in snap["counters"].items()
                if k.startswith("serve.")
            },
            "histograms": {
                k: {kk: vv for kk, vv in v.items()}
                for k, v in snap["histograms"].items()
                if k.startswith("serve.")
            },
        }
        return out
