"""End-to-end tests for the tessellation query server.

Drives a real :class:`~repro.serve.server.TessServer` on an ephemeral
port through the load-generator client — the same concurrent-load shape
the CI service job runs, scaled down.  Covers: zero errors at >= 32
in-flight on a cold then warm cache, catalog conditional GETs (304),
HTTP-level backpressure (503 + Retry-After at the admission limit),
admission accounting (a slot is held exactly while its kernel runs),
republish visibility through a live server, and the metrics endpoint.

pytest-asyncio is not a dependency; each test owns its loop via
``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.analysis.query import QUERY_OPS, QueryError
from repro.core import tessellate
from repro.diy.bounds import Bounds
from repro.serve import (
    CatalogStore,
    ServeConfig,
    TessServer,
    default_query_mix,
    run_load,
)
from repro.serve.protocol import HttpRequest, read_response, render_request

BOX = 8.0
NPOINTS = 300


def _tess(seed: int):
    pts = np.random.default_rng(seed).uniform(0.0, BOX, size=(NPOINTS, 3))
    return tessellate(pts, Bounds.cube(BOX), nblocks=2)


@pytest.fixture()
def store(tmp_path):
    store = CatalogStore(tmp_path)
    for step in range(2):
        store.publish(step, _tess(seed=step))
    yield store
    store.close()


async def _request(port: int, method: str, path: str, payload=None,
                   headers=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(payload).encode() if payload is not None else b""
    writer.write(render_request(method, path, body, headers=headers))
    await writer.drain()
    resp = await read_response(reader)
    writer.close()
    return resp


def test_concurrent_load_cold_and_warm(store):
    async def scenario():
        server = TessServer(store, ServeConfig(port=0))
        await server.start()
        try:
            queries = default_query_mix(BOX, store.steps())
            cold = await run_load(
                "127.0.0.1", server.port, queries,
                requests=64, concurrency=32,
            )
            warm = await run_load(
                "127.0.0.1", server.port, queries,
                requests=64, concurrency=32,
            )
            stats = server.cache.stats.as_dict()
        finally:
            await server.close()
        return cold, warm, stats

    cold, warm, stats = asyncio.run(scenario())
    for report in (cold, warm):
        assert report.errors == []
        assert report.requests == 64
        assert set(report.statuses) == {200}
    # every block was faulted exactly once across both passes: 2 steps x
    # 2 blocks, and the warm pass ran entirely from cache
    assert stats["loads"] == 4
    assert stats["hits"] > stats["loads"]


def test_catalog_conditional_get(store):
    async def scenario():
        server = TessServer(store, ServeConfig(port=0))
        await server.start()
        try:
            first = await _request(server.port, "GET", "/catalog")
            etag = first.headers["etag"]
            second = await _request(
                server.port, "GET", "/catalog",
                headers={"if-none-match": etag},
            )
        finally:
            await server.close()
        return first, second

    first, second = asyncio.run(scenario())
    assert first.status == 200
    assert len(first.json()["snapshots"]) == 2
    assert second.status == 304
    assert second.body == b""


def test_republish_visible_through_live_server(store):
    async def scenario():
        server = TessServer(store, ServeConfig(port=0))
        await server.start()
        try:
            before = await _request(
                server.port, "POST", "/query", {"op": "voids", "step": 0}
            )
            # another process republishes step 0 behind the server's back
            publisher = CatalogStore(store.root)
            publisher.publish(0, _tess(seed=99))
            publisher.close()
            after = await _request(
                server.port, "POST", "/query", {"op": "voids", "step": 0}
            )
        finally:
            await server.close()
        return before, after

    before, after = asyncio.run(scenario())
    assert before.status == 200 and after.status == 200
    assert before.json()["etag"] != after.json()["etag"]
    assert after.headers["etag"] == f'"{after.json()["etag"]}"'


#: Specs that are checked, and answered 400 naming the key, before any
#: gid is resolved or admission slot taken.
MALFORMED = [
    ("rmax", {"op": "profile", "center": [4, 4, 4], "rmax": "abc"}),
    ("center", {"op": "profile", "center": ["a", 4, 4], "rmax": 2.0}),
    ("region", {"op": "voids", "region": [[0, 0, 0], ["x", 1, 1]]}),
    ("region", {"op": "voids", "region": "abc"}),
    ("step", {"op": "voids", "step": True}),
]


def test_query_error_statuses(store):
    async def scenario():
        server = TessServer(store, ServeConfig(port=0))
        await server.start()
        try:
            unknown = await _request(
                server.port, "POST", "/query", {"op": "explode"}
            )
            missing = await _request(
                server.port, "POST", "/query", {"op": "voids", "step": 42}
            )
            not_json = await _request(server.port, "POST", "/query")
            wrong_method = await _request(server.port, "GET", "/query")
            negative_top = await _request(
                server.port, "POST", "/query", {"op": "halos", "top": -3}
            )
            # json.dumps writes the bare NaN literal, which json.loads reads
            nan_fraction = await _request(
                server.port, "POST", "/query",
                {"op": "voids", "step": 0, "vmin_fraction": float("nan")},
            )
            malformed = [
                (key, await _request(server.port, "POST", "/query", spec))
                for key, spec in MALFORMED
            ]
        finally:
            await server.close()
        return (unknown, missing, not_json, wrong_method, negative_top,
                nan_fraction, malformed)

    (unknown, missing, not_json, wrong_method, negative_top, nan_fraction,
     malformed) = asyncio.run(scenario())
    assert unknown.status == 400
    assert "unknown op" in unknown.json()["error"]
    assert missing.status == 404
    assert not_json.status == 400
    assert wrong_method.status == 405
    assert negative_top.status == 400
    assert "top" in negative_top.json()["error"]
    assert nan_fraction.status == 400
    assert "vmin_fraction" in nan_fraction.json()["error"]
    for key, resp in malformed:
        assert resp.status == 400, (key, resp.status, resp.json())
        assert key in resp.json()["error"], (key, resp.json())


def test_http_backpressure_503_with_retry_after(store, monkeypatch):
    import time

    real_voids, allowed = QUERY_OPS["voids"]

    def slow_voids(domain, blocks, **kwargs):
        time.sleep(0.2)
        return real_voids(domain, blocks, **kwargs)

    monkeypatch.setitem(QUERY_OPS, "voids", (slow_voids, allowed))

    async def scenario():
        config = ServeConfig(port=0, workers=1, max_inflight=1)
        server = TessServer(store, config)
        await server.start()
        try:
            resps = await asyncio.gather(
                *(
                    _request(server.port, "POST", "/query", {"op": "voids"})
                    for _ in range(6)
                )
            )
        finally:
            await server.close()
        return resps

    resps = asyncio.run(scenario())
    statuses = sorted(r.status for r in resps)
    assert 200 in statuses, statuses
    assert 503 in statuses, statuses
    for resp in resps:
        if resp.status == 503:
            assert float(resp.headers["retry-after"]) > 0
            assert resp.json()["error"] == "busy"


def test_admission_slot_held_until_kernel_returns(store, monkeypatch):
    """``GET /metrics`` reads ``inflight`` 1 while a gated kernel runs and
    0 once it has returned, whatever the outcome: a 200, a kernel
    ``QueryError`` (400), a kernel exception (500), or a client that hung
    up mid-kernel.  A request whose awaiting task is cancelled keeps its
    slot until its kernel returns."""
    import threading

    real_voids, allowed = QUERY_OPS["voids"]
    entered, release = threading.Event(), threading.Event()
    outcome = {"raise": None}

    def gated_voids(domain, blocks, **kwargs):
        entered.set()
        release.wait(10)
        if outcome["raise"] is not None:
            raise outcome["raise"]
        return real_voids(domain, blocks, **kwargs)

    monkeypatch.setitem(QUERY_OPS, "voids", (gated_voids, allowed))
    body = json.dumps({"op": "voids"}).encode()

    async def scenario():
        server = TessServer(store, ServeConfig(port=0, workers=1))
        await server.start()
        port = server.port

        async def inflight():
            return (await _request(port, "GET", "/metrics")).json()["inflight"]

        async def settled():
            for _ in range(200):
                if await inflight() == 0:
                    return 0
                await asyncio.sleep(0.025)
            return await inflight()

        def arm(exc=None):
            outcome["raise"] = exc
            entered.clear()
            release.clear()

        async def inside():
            """``inflight`` once a kernel has entered the gate."""
            assert await asyncio.to_thread(entered.wait, 10)
            return await inflight()

        seen = {}
        try:
            for name, exc in (
                ("ok", None),
                ("kernel QueryError", QueryError("rejected in the kernel")),
                ("kernel exception", RuntimeError("kernel crashed")),
            ):
                arm(exc)
                pending = asyncio.ensure_future(
                    _request(port, "POST", "/query", {"op": "voids"})
                )
                held = await inside()
                release.set()
                status = (await pending).status
                seen[name] = (held, status, await inflight())

            arm()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(render_request("POST", "/query", body))
            await writer.drain()
            held = await inside()
            writer.close()
            release.set()
            seen["client hung up"] = (held, None, await settled())

            arm()
            task = asyncio.ensure_future(
                server._dispatch(HttpRequest("POST", "/query", body=body))
            )
            held = await inside()
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            still_held = await inflight()
            release.set()
            seen["awaiter cancelled"] = (held, still_held, await settled())
        finally:
            release.set()
            await server.close()
        return seen

    seen = asyncio.run(scenario())
    assert seen == {
        "ok": (1, 200, 0),
        "kernel QueryError": (1, 400, 0),
        "kernel exception": (1, 500, 0),
        "client hung up": (1, None, 0),
        "awaiter cancelled": (1, 1, 0),
    }


def test_metrics_endpoint(store):
    async def scenario():
        server = TessServer(store, ServeConfig(port=0))
        await server.start()
        try:
            for _ in range(3):
                await _request(server.port, "POST", "/query", {"op": "voids"})
            resp = await _request(server.port, "GET", "/metrics")
        finally:
            await server.close()
        return resp

    resp = asyncio.run(scenario())
    assert resp.status == 200
    metrics = resp.json()
    assert metrics["latency_ms"]["count"] >= 3
    assert metrics["latency_ms"]["p50"] <= metrics["latency_ms"]["p99"]
    assert metrics["cache"]["loads"] >= 1
    assert metrics["uptime_s"] > 0


def test_cli_build_creates_catalog(tmp_path, capsys):
    from repro.serve.cli import main

    root = str(tmp_path / "cat")
    rc = main(["build", root, "--points", "200", "--blocks", "2",
               "--steps", "1", "--box", str(BOX)])
    assert rc == 0
    assert "catalog ready" in capsys.readouterr().out
    built = CatalogStore(root)
    try:
        assert built.steps() == [0]
        snap = built.snapshot(0)
        assert snap.nblocks == 2
        assert snap.domain.volume == pytest.approx(BOX**3)
    finally:
        built.close()



@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("serve", "--workers", "0"),
        ("serve", "--cache-mb", "-1"),
        ("serve", "--max-inflight", "0"),
        ("serve", "--port", "65536"),
        ("serve", "--port", "-1"),
        ("load", "--requests", "0"),
        ("load", "--concurrency", "0"),
    ],
)
def test_cli_rejects_bad_values_with_one_error_line(
    tmp_path, capsys, command, flag, value
):
    """A bad option value is a usage error: one ``error:`` line naming the
    option, exit code 2, and no server started or request sent."""
    from repro.serve.cli import main

    if command == "serve":
        rc = main([command, str(tmp_path), flag, value])
    else:  # an unreachable target: a load that got through would fail fast
        rc = main([command, "127.0.0.1:9", flag, value, "--wait-s", "0.1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1, err


def test_healthz(store):
    async def scenario():
        server = TessServer(store, ServeConfig(port=0))
        await server.start()
        try:
            return await _request(server.port, "GET", "/healthz")
        finally:
            await server.close()

    resp = asyncio.run(scenario())
    assert resp.status == 200
    assert resp.json() == {"status": "ok"}
