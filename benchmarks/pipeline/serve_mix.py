"""Workload ``serve_mix``: a closed-loop mixed query load against
``repro-serve`` over HTTP.

Set-up publishes a three-snapshot catalog and starts the server as a
subprocess with its default flags.  The client is this file's own: plain
``http.client`` keep-alive connections, one thread each, every connection
sending its next request only when the previous reply has arrived
(analysts and reader plugins wait for their answers).  One connection
sends the heavy request of every snapshot; the other keeps light requests
going beside them until the last heavy reply is in (see
``workloads.serve_mix``).  The first pass on the fresh server is the cold
pass; warm passes follow until the run's time is up.  Every reply is compared with
``run_query`` called directly on the same blocks.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import select
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import benv
import workloads as wl
from harness import Outcome, SetupClock, run_passes
from repro.analysis.query import region_bounds, run_query
from repro.core import tessellate
from repro.diy import Bounds
from repro.serve import CatalogStore
from spans import percentile

HOST = "127.0.0.1"
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0
#: 503 + Retry-After replies honoured per request before it counts failed
RETRY_BUDGET = 20


class Server:
    """``python -m repro.serve.cli serve ROOT --port 0`` as a child."""

    def __init__(self, root: str, log_path: str) -> None:
        self.root = root
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> None:
        """Spawn, read the bound port off stdout, wait for /healthz."""
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.serve.cli", "serve", self.root,
                 "--port", "0"],
                stdout=subprocess.PIPE, stderr=log, bufsize=0,
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        self.port = self._read_port(deadline)
        while True:
            try:
                status, _ = Connection(self.port).get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError(f"server never became healthy; see {self.log_path}")
            time.sleep(0.02)

    def _read_port(self, deadline: float) -> int:
        assert self.proc is not None and self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        seen = b""
        while b"\n" not in seen:
            remaining = deadline - time.monotonic()
            ready = remaining > 0 and select.select([fd], [], [], remaining)[0]
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                raise RuntimeError(
                    f"server printed no address ({seen!r}); see {self.log_path}"
                )
            seen += chunk
        match = re.search(rb" on [\d.]+:(\d+)\s*$", seen.split(b"\n")[0])
        if match is None:
            raise RuntimeError(f"cannot parse server address from {seen!r}")
        return int(match.group(1))

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def stop(self) -> None:
        """SIGTERM (the server shuts down gracefully), then make sure."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            proc.terminate()
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        finally:
            if proc.stdout is not None:
                proc.stdout.close()


class Connection:
    """One keep-alive client connection."""

    def __init__(self, port: int) -> None:
        self.http = http.client.HTTPConnection(
            HOST, port, timeout=REQUEST_TIMEOUT_S
        )

    def get(self, path: str) -> tuple[int, dict]:
        try:
            self.http.request("GET", path)
            resp = self.http.getresponse()
            return resp.status, json.loads(resp.read() or b"{}")
        finally:
            self.http.close()

    def query(self, spec: dict) -> dict:
        """POST one query, honouring 503 + Retry-After.  Returns status
        (``None``: no reply), decoded body, latency including any waits
        the server imposed, and the retries spent."""
        body = json.dumps(spec).encode()
        retries = 0
        status: int | None = None
        reply: dict = {}
        t0 = time.perf_counter()
        while True:
            try:
                self.http.request(
                    "POST", "/query", body,
                    {"content-type": "application/json"},
                )
                resp = self.http.getresponse()
                status, raw = resp.status, resp.read()
                reply = json.loads(raw) if raw else {}
            except (OSError, http.client.HTTPException, ValueError) as exc:
                self.http.close()
                status, reply = None, {"error": f"{type(exc).__name__}: {exc}"}
                break
            if status != 503 or retries >= RETRY_BUDGET:
                break
            retries += 1
            time.sleep(float(resp.getheader("retry-after", "0.05")))
        return {
            "spec": spec, "status": status, "reply": reply,
            "latency_s": time.perf_counter() - t0, "retries": retries,
            "t0": t0,
        }

    def close(self) -> None:
        self.http.close()


def _clients(*clients) -> None:
    """Run each client function on a thread of its own; wait for all."""
    threads = [threading.Thread(target=c) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def closed_loop_pass(port: int, heavy: list[dict], light, nlight: int
                     ) -> list[dict]:
    """One pass over two keep-alive connections, each sending its next
    request only after the previous reply.

    Phase ``mixed``: connection 0 sends the heavy requests one after
    another; connection 1 keeps a light request in flight beside them,
    drawn from the endless iterator ``light``, until the last heavy reply
    is in.  Phase ``browse``: both connections send ``nlight`` light
    requests each.
    """
    records: list[dict] = []
    heavy_done = threading.Event()

    def client(conn_id: int, phase: str, specs) -> None:
        conn = Connection(port)
        try:
            for spec in specs:
                records.append(
                    {**conn.query(spec), "connection": conn_id, "phase": phase}
                )
        finally:
            conn.close()

    def analyst() -> None:
        try:
            client(0, "mixed", heavy)
        finally:
            heavy_done.set()

    def until_heavy_done():
        while not heavy_done.is_set():
            yield next(light)

    _clients(analyst, lambda: client(1, "mixed", until_heavy_done()))
    _clients(*(
        lambda i=i: client(i, "browse", itertools.islice(light, nlight))
        for i in (0, 1)
    ))
    return records


def publish_catalog(root: str, tessellations: dict) -> float:
    """Publish every snapshot into a fresh catalog; returns the seconds."""
    t0 = time.perf_counter()
    store = CatalogStore(root)
    try:
        for step, tess in tessellations.items():
            store.publish(step, tess)
    finally:
        store.close()
    return time.perf_counter() - t0


def expected_answers(root: str, mix: list[dict]) -> tuple[list[dict], dict]:
    """What the server must answer: ``run_query`` called directly on the
    blocks the request's region selects, with the fields the server adds.
    Also returns the direct kernel seconds per request kind."""
    store = CatalogStore(root)
    kernel_s: dict[str, list[float]] = {}
    expected = []
    try:
        for spec in mix:
            snapshot = store.snapshot(spec["step"])
            if spec["op"] == "profile":
                center = np.asarray(spec["center"], dtype=float)
                ball = Bounds.from_arrays(
                    center - spec["rmax"], center + spec["rmax"]
                )
                gids = snapshot.gids_for_region(ball)
            else:
                gids = snapshot.gids_for_region(
                    region_bounds(spec.get("region"), snapshot.domain)
                )
            blocks = [snapshot.load_block(gid)[0] for gid in gids]
            t0 = time.perf_counter()
            answer = run_query(snapshot.domain, blocks, spec)
            kernel_s.setdefault(wl.query_kind(spec), []).append(
                time.perf_counter() - t0
            )
            answer.update(step=spec["step"], etag=snapshot.etag,
                          blocks=len(gids))
            expected.append(json.loads(json.dumps(answer)))
    finally:
        store.close()
    return expected, kernel_s


def run(sizes: wl.Sizes, seed: int, seconds: float, traced: bool,
        workdir: str) -> Outcome:
    out = Outcome()
    servers: list[Server] = []  # every one spawned, stopped on every exit
    try:
        _run(sizes.for_serving(), seed, seconds, traced, workdir, out, servers)
    finally:
        for server in servers:
            server.stop()
    return out


def _run(sizes, seed, seconds, traced, workdir, out, servers) -> None:
    setup = out.setup
    streams = wl.serve_mix(sizes, seed)
    with setup.once():
        dataset = wl.SERVE_DATASET_SEED
        domain = wl.sim_config(sizes, dataset).domain()
        tessellations = {
            step: tessellate(pos, domain, nblocks=sizes.blocks,
                             ghost=wl.GHOST, ids=ids)
            for step, (pos, ids) in wl.capture_snapshots(sizes, dataset).items()
        }

    publish_s, startup_s = [], []
    for rep in range(SetupClock.REPS):
        if servers:
            servers[-1].stop()
        root = f"{workdir}/catalog-{rep}"
        with setup.rep():
            publish_s.append(publish_catalog(root, tessellations))
            server = Server(root, f"{workdir}/server.log")
            servers.append(server)
            t0 = time.perf_counter()
            server.start()
            startup_s.append(time.perf_counter() - t0)
    out.tess_cells = sum(t.num_cells for t in tessellations.values())
    out.tess_bytes = sum(
        os.path.getsize(os.path.join(root, name))
        for name in os.listdir(root) if name.endswith(".tess")
    )
    _measure(server, root, streams, seconds, traced, out,
             publish_s, startup_s)


def _measure(server, root, streams, seconds, traced, out,
             publish_s, startup_s) -> None:
    heavy, light = streams
    mix = heavy + light
    # One endless light stream for the whole run: a pass picks up where
    # the last one stopped, so every light request is sampled equally
    # often whatever share of the cycle one pass gets through.
    lights = itertools.cycle(light)
    with out.setup.once():
        # Fresh server, empty block cache: the first analyst of the day.
        t0 = time.perf_counter()
        cold = closed_loop_pass(server.port, heavy, lights, len(light))
        cold_pass_s = time.perf_counter() - t0

    warm: list[tuple[bool, list[dict]]] = []

    def one_pass(rec, index: int) -> None:
        with rec.span("pass"):
            records = closed_loop_pass(server.port, heavy, lights, len(light))
            for r in records:  # one track per connection
                rec.add(f"serve.request_{wl.query_kind(r['spec'])}", r["t0"],
                        r["t0"] + r["latency_s"], rank=r["connection"])
        warm.append((rec.enabled, records))

    run_passes(one_pass, seconds, traced, out)

    # Light requests answered beside a heavy one are kept apart: their
    # latency is set by how the two threads trade the interpreter lock,
    # and its median moves 2-4x between runs of one seed (see README).
    loaded_ms: list[float] = []
    for was_traced, records in warm:
        if was_traced:
            continue
        for r in records:
            ms = 1e3 * r["latency_s"]
            if wl.is_heavy(r["spec"]):
                out.heavy_ms.append(ms)
            elif r["phase"] == "browse":
                out.op_ms.append(ms)
            else:
                loaded_ms.append(ms)

    # Idle-server latency of the light requests, one connection, for the
    # protocol + batching-window + encode overhead over the bare kernel.
    idle_ms: list[float] = []
    if traced:
        conn = Connection(server.port)
        try:
            for spec in mix:
                if not wl.is_heavy(spec):
                    idle_ms.append(1e3 * conn.query(spec)["latency_s"])
        finally:
            conn.close()

    _, metrics = Connection(server.port).get("/metrics")
    out.peak_rss_mb = benv.proc_status_mb(server.pid, "VmHWM")
    server_cpu_s = benv.proc_cpu_s(server.pid)

    expected, kernel_s = expected_answers(root, mix)
    by_request = {json.dumps(s, sort_keys=True): e
                  for s, e in zip(mix, expected)}
    retries = 0
    for records in [cold] + [records for _, records in warm]:
        for r in records:
            retries += r["retries"]
            problems = []
            if r["status"] != 200:
                problems.append(
                    f"{r['spec']['op']} step {r['spec']['step']}: status "
                    f"{r['status']} after {r['retries']} retries: "
                    f"{str(r['reply'])[:200]}"
                )
            elif r["reply"] != by_request[json.dumps(r["spec"], sort_keys=True)]:
                problems.append(
                    f"{r['spec']['op']} step {r['spec']['step']}: HTTP body "
                    f"differs from the direct run_query result"
                )
            out.operation(problems)
    out.digest = {
        "num_voids": [e.get("num_voids") for e in expected if "num_voids" in e],
        "num_halos": [e["num_halos"] for e in expected if "num_halos" in e],
    }

    if not traced:
        return
    layers = out.layers
    cache = metrics.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    light_kernel_ms = [
        1e3 * s for kind, xs in kernel_s.items() if kind != "minkowski"
        for s in xs
    ]
    layers.update(
        {
            "serve.publish_s": statistics.median(publish_s),
            "serve.startup_s": statistics.median(startup_s),
            "serve.cold_pass_s": cold_pass_s,
            "serve.cache_hit_ratio": cache.get("hits", 0) / max(lookups, 1),
            "serve.cache_loads": cache.get("loads", 0),
            "serve.coalesced": cache.get("coalesced", 0),
            "serve.retries_503": retries,
            "serve.server_cpu_s": server_cpu_s,
            "serve.rss_mb": out.peak_rss_mb,
            "serve.overhead_light_ms": (
                percentile(idle_ms, 50.0) - percentile(light_kernel_ms, 50.0)
            ),
            "serve.light_p90_ms": percentile(out.op_ms, 90.0),
            "serve.loaded_light_p50_ms": percentile(loaded_ms, 50.0),
            "serve.loaded_light_p90_ms": percentile(loaded_ms, 90.0),
            "serve.loaded_light_per_heavy": len(loaded_ms) / len(out.heavy_ms),
        }
    )
    for kind, xs in kernel_s.items():
        layers[f"analysis.query_{kind}_ms"] = 1e3 * statistics.median(xs)

    # Per-layer table: where the connections' time went, by request kind.
    traced_passes = [records for was_traced, records in warm if was_traced]
    busy: dict[str, float] = {}
    for records in traced_passes:
        for r in records:
            kind = f"serve.request_{wl.query_kind(r['spec'])}"
            busy[kind] = busy.get(kind, 0.0) + r["latency_s"]
    scale = len(traced_passes) * len(streams)
    out.table = sorted(
        ((k, v / scale) for k, v in busy.items()), key=lambda kv: -kv[1]
    )
