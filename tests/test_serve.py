"""Unit tests for repro.serve: cache, store, query kernels, protocol.

The three satellite contracts from the service PR are pinned here:

* cache eviction under byte pressure (LRU order, budget respected),
* miss coalescing (N concurrent misses for one key -> one load),
* ETag invalidation when a snapshot is republished (new etag, stale
  cache entries evicted, fresh handle serves the new content).
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis.query import (
    QueryError,
    region_bounds,
    run_query,
)
from repro.core import tessellate
from repro.diy.bounds import Bounds
from repro.serve.cache import BlockCache
from repro.serve.protocol import (
    HttpResponse,
    ProtocolError,
    read_request,
    read_response,
    render_request,
    render_response,
)
from repro.serve.store import CatalogError, CatalogStore, Snapshot

BOX = 8.0


def _points(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, BOX, size=(n, 3))


def _tess(n: int = 160, seed: int = 0, nblocks: int = 2):
    return tessellate(_points(n, seed), Bounds.cube(BOX), nblocks=nblocks)


@pytest.fixture(scope="module")
def catalog(tmp_path_factory):
    root = tmp_path_factory.mktemp("catalog")
    store = CatalogStore(root)
    for step in range(2):
        store.publish(step, _tess(seed=step))
    yield store
    store.close()


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
def _loader(value, nbytes):
    return lambda: (value, nbytes)


class TestBlockCache:
    def test_hit_after_miss(self):
        cache = BlockCache(max_bytes=1000)
        assert cache.get("k", _loader("v", 10)) == "v"
        assert cache.get("k", _loader("OTHER", 10)) == "v"  # no reload
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.loads == 1
        assert cache.nbytes == 10

    def test_eviction_under_byte_pressure(self):
        cache = BlockCache(max_bytes=100)
        for i in range(4):  # 4 x 30 = 120 bytes > 100 budget
            cache.get(f"k{i}", _loader(i, 30))
        assert cache.stats.evictions == 1
        assert cache.nbytes <= 100
        assert "k0" not in cache  # LRU victim
        assert all(f"k{i}" in cache for i in (1, 2, 3))

    def test_eviction_respects_lru_recency(self):
        cache = BlockCache(max_bytes=100)
        for i in range(3):
            cache.get(f"k{i}", _loader(i, 30))
        cache.get("k0", _loader("X", 30))  # touch k0: now k1 is LRU
        cache.get("k3", _loader(3, 30))
        assert "k1" not in cache
        assert "k0" in cache

    def test_oversized_entry_not_admitted(self):
        cache = BlockCache(max_bytes=100)
        assert cache.get("big", _loader("v", 500)) == "v"
        assert "big" not in cache
        assert cache.stats.oversized == 1
        # a later request loads again rather than hitting
        cache.get("big", _loader("v", 500))
        assert cache.stats.loads == 2

    def test_miss_coalescing_one_load(self):
        import time

        cache = BlockCache(max_bytes=10_000)
        loads = []
        nthreads = 8

        def slow_loader():
            # Hold the load open until every other thread has arrived and
            # registered as a coalesced follower — they cannot hit (the
            # entry is not inserted yet) and cannot load (the key is in
            # the cache's loading map), so the condition must be reached.
            loads.append(1)
            deadline = time.monotonic() + 10.0
            while cache.stats.coalesced < nthreads - 1:
                assert time.monotonic() < deadline, "followers never arrived"
                time.sleep(0.001)
            return "shared", 8

        started = threading.Barrier(nthreads)

        def worker():
            started.wait()
            return cache.get("cold", slow_loader)

        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            futs = [pool.submit(worker) for _ in range(nthreads)]
            results = [f.result(timeout=10) for f in futs]

        assert results == ["shared"] * nthreads
        assert len(loads) == 1
        assert cache.stats.loads == 1
        assert cache.stats.misses == 1
        assert cache.stats.coalesced == nthreads - 1

    def test_loader_failure_propagates_and_does_not_poison(self):
        cache = BlockCache(max_bytes=1000)

        def boom():
            raise OSError("disk on fire")

        with pytest.raises(OSError):
            cache.get("k", boom)
        # the failure is not cached: a retry runs the loader again
        assert cache.get("k", _loader("ok", 4)) == "ok"

    def test_evict_stale_by_etag(self):
        cache = BlockCache(max_bytes=10_000)
        for gid in range(3):
            cache.get(("old", gid), _loader(gid, 10))
            cache.get(("new", gid), _loader(gid, 10))
        dropped = cache.evict_stale({"new"})
        assert dropped == 3
        assert all(("new", g) in cache for g in range(3))
        assert all(("old", g) not in cache for g in range(3))
        assert cache.nbytes == 30


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------
class TestCatalogStore:
    def test_publish_and_manifest(self, catalog):
        assert catalog.steps() == [0, 1]
        manifest = catalog.manifest()
        assert len(manifest["snapshots"]) == 2
        assert manifest["etag"]
        for rec in manifest["snapshots"]:
            assert rec["nblocks"] == 2
            assert rec["etag"]

    def test_reopen_sees_published_snapshots(self, catalog):
        reopened = CatalogStore(catalog.root)
        try:
            assert reopened.steps() == catalog.steps()
            assert reopened.etags() == catalog.etags()
        finally:
            reopened.close()

    def test_missing_step_raises(self, catalog):
        with pytest.raises(CatalogError, match="no snapshot for step 99"):
            catalog.snapshot(99)

    def test_snapshot_region_index(self, catalog):
        snap = catalog.snapshot(0)
        assert snap.gids_for_region(None) == [0, 1]
        corner = Bounds.from_arrays([0.0] * 3, [0.1] * 3)
        gids = snap.gids_for_region(corner)
        assert len(gids) >= 1
        assert set(gids) <= {0, 1}
        assert snap.domain.volume == pytest.approx(BOX**3)

    def test_etag_mismatch_rejected(self, catalog):
        info = catalog.info(0)
        bad = type(info)(
            step=info.step, path=info.path, etag="0-0-deadbeef",
            nblocks=info.nblocks,
        )
        with pytest.raises(CatalogError, match="does not match"):
            Snapshot(bad, f"{catalog.root}/{info.path}")

    def test_republish_invalidates_etag_and_cache(self, tmp_path):
        store = CatalogStore(tmp_path)
        observer = CatalogStore(tmp_path)  # a second process's view
        try:
            info_v1 = store.publish(0, _tess(seed=10))
            observer.refresh(force=True)

            cache = BlockCache(max_bytes=10_000_000)
            snap_v1 = observer.snapshot(0)
            for gid in snap_v1.gids_for_region(None):
                cache.get(
                    (snap_v1.etag, gid), lambda g=gid: snap_v1.load_block(g)
                )
            assert len(cache) == info_v1.nblocks

            info_v2 = store.publish(0, _tess(seed=11))
            assert info_v2.etag != info_v1.etag

            # the observer notices the manifest change on refresh and the
            # cache reclaims every block keyed by the dead etag
            assert observer.refresh() is True
            assert observer.etags() == {info_v2.etag}
            assert cache.evict_stale(observer.etags()) == info_v1.nblocks
            assert cache.nbytes == 0

            # the fresh handle serves the republished content
            snap_v2 = observer.snapshot(0)
            assert snap_v2.etag == info_v2.etag
            assert snap_v2.reader.content_tag == info_v2.etag
        finally:
            observer.close()
            store.close()

    def test_refresh_without_change_is_noop(self, catalog):
        assert catalog.refresh() is False


# ----------------------------------------------------------------------
# query kernels
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def query_inputs(catalog):
    snap = catalog.snapshot(0)
    blocks = [snap.load_block(g)[0] for g in snap.gids_for_region(None)]
    return snap.domain, blocks


class TestQueries:
    def test_voids(self, query_inputs):
        domain, blocks = query_inputs
        out = run_query(domain, blocks, {"op": "voids"})
        assert out["op"] == "voids"
        assert out["num_voids"] >= 1
        assert out["vmin"] > 0
        assert out["total_volume"] > 0

    def test_components_and_minkowski(self, query_inputs):
        domain, blocks = query_inputs
        comp = run_query(domain, blocks, {"op": "components", "vmin": 0.0})
        assert comp["num_components"] >= 1
        assert comp["num_cells"] > 0
        mink = run_query(domain, blocks, {"op": "minkowski", "top": 2})
        assert len(mink["functionals"]) <= 2
        for rec in mink["functionals"]:
            assert {"V", "S", "genus"} <= set(rec)

    def test_halos(self, query_inputs):
        domain, blocks = query_inputs
        out = run_query(
            domain, blocks, {"op": "halos", "min_members": 2}
        )
        assert out["num_halos"] >= 0

    def test_profile(self, query_inputs):
        domain, blocks = query_inputs
        out = run_query(
            domain,
            blocks,
            {"op": "profile", "center": [4, 4, 4], "rmax": 2.0, "nbins": 6},
        )
        assert len(out["density"]) == 6
        assert len(out["r_edges"]) == 7

    def test_region_restriction_filters_features(self, query_inputs):
        domain, blocks = query_inputs
        full = run_query(domain, blocks, {"op": "voids", "vmin": 0.0})
        corner = run_query(
            domain, blocks,
            {"op": "voids", "vmin": 0.0, "region": [[0, 0, 0], [0.5] * 3]},
        )
        assert corner["num_voids"] <= full["num_voids"]
        assert full["num_voids"] >= 1

    def test_bad_specs_raise(self, query_inputs):
        domain, blocks = query_inputs
        for spec in (
            {"op": "explode"},
            {"op": "voids", "bogus_param": 1},
            {"op": "profile"},  # center/rmax required
            {"op": "profile", "center": [1, 2], "rmax": 1.0},  # bad dim
            {"op": "profile", "center": [1, 2, 3], "rmax": 1.0,
             "region": [[0, 0, 0], [1, 1, 1]]},  # region not allowed
            {},
        ):
            with pytest.raises(QueryError):
                run_query(domain, blocks, spec)

    @pytest.mark.parametrize("top", [-1, True, 2.5, "2"])
    @pytest.mark.parametrize("op", ["voids", "components", "halos", "minkowski"])
    def test_top_must_be_a_non_negative_int(self, query_inputs, op, top):
        # a negative top slices off the tail, True reads as 1
        domain, blocks = query_inputs
        with pytest.raises(QueryError, match="top"):
            run_query(domain, blocks, {"op": op, "top": top})

    def test_top_zero_accepted(self, query_inputs):
        domain, blocks = query_inputs
        assert run_query(domain, blocks, {"op": "halos", "top": 0})["halos"] == []

    def test_region_bounds_validation(self):
        domain = Bounds.cube(BOX)
        assert region_bounds(None, domain) is None
        got = region_bounds([[0, 0, 0], [20, 4, 4]], domain)
        assert got.max[0] == pytest.approx(BOX)  # clamped to the domain
        with pytest.raises(QueryError):
            region_bounds([[0, 0], [1, 1]], domain)  # wrong dim
        with pytest.raises(QueryError):
            region_bounds([[2, 2, 2], [1, 1, 1]], domain)  # hi < lo


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
def _feed(payload: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(payload)
    reader.feed_eof()
    return reader


class TestProtocol:
    def test_request_roundtrip(self):
        async def scenario():
            wire = render_request(
                "POST", "/query", b'{"op": "voids"}',
                headers={"x-extra": "1"},
            )
            req = await read_request(_feed(wire))
            assert req.method == "POST"
            assert req.path == "/query"
            assert req.headers["x-extra"] == "1"
            assert req.json() == {"op": "voids"}
            assert req.keep_alive

        asyncio.run(scenario())

    def test_response_roundtrip(self):
        async def scenario():
            wire = render_response(
                HttpResponse(status=200, headers={"etag": '"abc"'},
                             body=b'{"ok": true}')
            )
            resp = await read_response(_feed(wire))
            assert resp.status == 200
            assert resp.headers["etag"] == '"abc"'
            assert resp.json() == {"ok": True}

        asyncio.run(scenario())

    def test_clean_eof_returns_none(self):
        async def scenario():
            assert await read_request(_feed(b"")) is None

        asyncio.run(scenario())

    def test_malformed_frames_raise(self):
        async def scenario():
            with pytest.raises(ProtocolError, match="request line"):
                await read_request(_feed(b"NONSENSE\r\n\r\n"))
            with pytest.raises(ProtocolError, match="mid-headers"):
                await read_request(_feed(b"GET / HTTP/1.1\r\n"))
            with pytest.raises(ProtocolError, match="mid-body"):
                await read_request(
                    _feed(b"GET / HTTP/1.1\r\ncontent-length: 99\r\n\r\nhi")
                )
            with pytest.raises(ProtocolError, match="out of bounds"):
                await read_request(
                    _feed(
                        b"GET / HTTP/1.1\r\n"
                        b"content-length: 999999999999\r\n\r\n"
                    )
                )
            with pytest.raises((ProtocolError, ValueError)):
                req = await read_request(
                    _feed(b"POST /query HTTP/1.1\r\n"
                          b"content-length: 3\r\n\r\nhi{")
                )
                req.json()

        asyncio.run(scenario())
