"""``repro-serve`` — build, serve, and load-test tessellation catalogs.

Three subcommands cover the service lifecycle end to end:

``repro-serve build ROOT``
    Build a fixture catalog: generate point sets (clustered per step so
    analysis queries return non-trivial features), tessellate, and
    publish one snapshot per step with etag versioning.
``repro-serve serve ROOT``
    Run the asyncio query server over a catalog directory.  ``--trace`` /
    ``--metrics`` write observe reports at shutdown (SIGTERM/SIGINT are
    handled gracefully), which is how the CI service job captures
    artifacts.
``repro-serve load HOST:PORT``
    Fire a concurrent load-generator against a running server and write a
    latency report; ``--p99-ms`` and ``--fail-on-errors`` turn it into an
    asserting e2e gate (nonzero exit on violation).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

import numpy as np

__all__ = ["main", "serve_main"]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-serve",
        description="Tessellation-as-a-service: catalog build/serve/load.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a fixture catalog")
    b.add_argument("root", help="catalog directory (created if missing)")
    b.add_argument("--points", type=int, default=4000,
                   help="points per snapshot (default 4000)")
    b.add_argument("--blocks", type=int, default=4,
                   help="blocks per snapshot (default 4)")
    b.add_argument("--steps", type=int, default=2,
                   help="number of snapshots to publish (default 2)")
    b.add_argument("--box", type=float, default=16.0,
                   help="periodic box side (default 16)")
    b.add_argument("--seed", type=int, default=0, help="RNG seed")

    s = sub.add_parser("serve", help="run the query server")
    s.add_argument("root", help="catalog directory")
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=8070,
                   help="TCP port (0 = ephemeral, printed on startup)")
    s.add_argument("--cache-mb", type=float, default=256.0,
                   help="block cache byte budget (default 256 MiB)")
    s.add_argument("--workers", type=int, default=4,
                   help="query worker threads (default 4)")
    s.add_argument("--max-inflight", type=int, default=128,
                   help="bounded in-flight queue; beyond it requests get "
                        "503 + Retry-After (default 128)")
    s.add_argument("--trace", default=None, metavar="OUT.json",
                   help="write a Chrome trace of request spans at shutdown")
    s.add_argument("--metrics", default=None, metavar="OUT.json",
                   help="write the observe metrics report at shutdown")

    c = sub.add_parser("load", help="run the load generator")
    c.add_argument("target", help="HOST:PORT of a running repro-serve")
    c.add_argument("--requests", type=int, default=200,
                   help="total requests (default 200)")
    c.add_argument("--concurrency", type=int, default=32,
                   help="in-flight connections (default 32)")
    c.add_argument("--wait-s", type=float, default=30.0,
                   help="max seconds to wait for the server to become "
                        "ready (default 30)")
    c.add_argument("--report", default=None, metavar="OUT.json",
                   help="write the latency report JSON here")
    c.add_argument("--p99-ms", type=float, default=None,
                   help="fail (exit 1) if client-side p99 exceeds this")
    c.add_argument("--fail-on-errors", action="store_true",
                   help="fail (exit 1) on any request error")
    return p


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------
def _clustered_points(
    rng: np.random.Generator, n: int, box: float
) -> np.ndarray:
    """Half background, half Gaussian clumps — gives the fixture catalog
    real voids and halos so every query op exercises its kernel."""
    n_bg = n // 2
    pts = [rng.uniform(0.0, box, size=(n_bg, 3))]
    remaining = n - n_bg
    nclumps = max(1, remaining // 200)
    centers = rng.uniform(0.0, box, size=(nclumps, 3))
    for i, center in enumerate(centers):
        m = remaining // nclumps if i < nclumps - 1 else remaining - (
            nclumps - 1
        ) * (remaining // nclumps)
        clump = center + rng.normal(scale=box / 40.0, size=(m, 3))
        pts.append(np.mod(clump, box))
    return np.concatenate(pts)


def _cmd_build(args) -> int:
    from ..core import tessellate
    from ..diy.bounds import Bounds
    from .store import CatalogStore

    store = CatalogStore(args.root)
    rng = np.random.default_rng(args.seed)
    domain = Bounds.cube(args.box)
    for step in range(args.steps):
        points = _clustered_points(rng, args.points, args.box)
        tess = tessellate(points, domain, nblocks=args.blocks)
        info = store.publish(step, tess)
        print(
            f"published step {info.step}: {info.nblocks} blocks, "
            f"etag {info.etag} -> {info.path}"
        )
    print(f"catalog ready: {args.root} ({args.steps} snapshot(s))")
    return 0


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
async def _serve(args) -> int:
    from .server import ServeConfig, TessServer
    from .store import CatalogStore

    store = CatalogStore(args.root)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        cache_bytes=int(args.cache_mb * 1024 * 1024),
        workers=args.workers,
        max_inflight=args.max_inflight,
    )
    server = TessServer(store, config)
    await server.start()
    steps = store.steps()
    print(
        f"serving catalog {args.root} ({len(steps)} snapshot(s), steps "
        f"{steps}) on {args.host}:{server.port}",
        flush=True,
    )

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    await stop.wait()
    print("shutting down...", flush=True)
    await server.close()
    return 0


def _cmd_serve(args) -> int:
    from .. import observe

    observing = args.trace is not None or args.metrics is not None
    if observing:
        observe.enable()
    try:
        return asyncio.run(_serve(args))
    finally:
        if observing:
            if args.trace is not None:
                nspans = observe.write_chrome_trace(args.trace)
                print(f"trace:   {args.trace} ({nspans} spans)")
            if args.metrics is not None:
                observe.write_metrics(args.metrics)
                print(f"metrics: {args.metrics}")
            observe.disable()


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
async def _load(args, host: str, port: int) -> int:
    from .client import default_query_mix, run_load, wait_ready
    from .protocol import read_response, render_request

    if not await wait_ready(host, port, timeout_s=args.wait_s):
        print(f"error: server at {host}:{port} never became ready",
              file=sys.stderr)
        return 1

    # Derive the query mix from the live catalog.
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(render_request("GET", "/catalog"))
    await writer.drain()
    resp = await read_response(reader)
    writer.close()
    catalog = resp.json()
    steps = [s["step"] for s in catalog.get("snapshots", [])]
    if not steps:
        print("error: catalog is empty", file=sys.stderr)
        return 1
    # The box size only shapes region/profile queries; any sane value
    # works, so probe one whole-domain profile-free mix from steps.
    queries = default_query_mix(16.0, steps)

    report = await run_load(
        host, port, queries, requests=args.requests,
        concurrency=args.concurrency,
    )
    summary = report.as_dict()
    if args.report:
        with open(args.report, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
    print(
        f"requests: {report.requests}  errors: {len(report.errors)}  "
        f"retries: {report.retries}  qps: {report.qps:.1f}"
    )
    print(
        f"latency ms: p50 {summary['p50_ms']:.2f}  "
        f"p90 {summary['p90_ms']:.2f}  p99 {summary['p99_ms']:.2f}  "
        f"max {summary['max_ms']:.2f}"
    )
    failed = False
    if args.fail_on_errors and report.errors:
        print(f"FAIL: {len(report.errors)} request error(s); first: "
              f"{report.errors[0]}", file=sys.stderr)
        failed = True
    if args.p99_ms is not None and summary["p99_ms"] > args.p99_ms:
        print(
            f"FAIL: p99 {summary['p99_ms']:.2f} ms exceeds bound "
            f"{args.p99_ms:.2f} ms",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def _cmd_load(args) -> int:
    host, sep, port_s = args.target.rpartition(":")
    if not sep or not port_s.isdigit():
        print(f"error: target must be HOST:PORT, got {args.target!r}",
              file=sys.stderr)
        return 2
    return asyncio.run(_load(args, host or "127.0.0.1", int(port_s)))


#: per subcommand, the options that must be positive
_POSITIVE = {
    "serve": ("cache_mb", "workers", "max_inflight"),
    "load": ("requests", "concurrency"),
}


def _usage_error(args) -> str | None:
    """What is wrong with the parsed options, if anything."""
    for name in _POSITIVE.get(args.command, ()):
        value = getattr(args, name)
        if not value > 0:
            return f"--{name.replace('_', '-')} must be positive, got {value}"
    if args.command == "serve" and not 0 <= args.port <= 65535:
        return f"--port must be in 0..65535, got {args.port}"
    return None


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-serve``; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    problem = _usage_error(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.command == "build":
        return _cmd_build(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return _cmd_load(args)


#: console-script alias (symmetry with repro.cli.tess_main/sim_main)
serve_main = main


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
