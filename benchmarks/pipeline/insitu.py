"""Workloads ``insitu_r1`` / ``insitu_r2``: initial conditions -> in situ
tessellation, void finding, tracking -> snapshots published -> queries
answered, on 1 inline rank or 2 process ranks.

One pass is the whole chain.  Each rank runs the deck through
``CosmologyToolsFramework.run``; a zero-cost mark tool placed first in the
deck and ``subscribe`` callbacks after each stock tool give the firing
boundaries without touching ``src/``.  Ranks hand back timestamps and the
public counters their results already carry; nothing heavy is pickled.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import statistics
import time

import numpy as np

import benv
import workloads as wl
from harness import Outcome, SetupClock, run_passes
from repro.analysis.query import run_query
from repro.core import read_tessellation
from repro.diy import run_parallel, shutdown_pool
from repro.insitu import (
    TOOL_REGISTRY,
    AnalysisTool,
    CosmologyToolsFramework,
    FrameworkConfig,
)
from repro.serve import CatalogStore
from spans import self_times, totals_by_name


class MarkTool(AnalysisTool):
    """First tool of every firing: notes when the firing began and how
    many particles this rank holds.  Does no work."""

    name = wl.MARK_TOOL

    def run(self, sim, step, a, comm, context=None):
        return time.perf_counter(), sim.num_local


def rank_worker(comm, sim_cfg, deck: dict) -> dict:
    """One rank's run of the deck (module-level: the rank pool pickles it
    by import path)."""
    fw = CosmologyToolsFramework(
        FrameworkConfig.from_dict(deck),
        registry={**TOOL_REGISTRY, wl.MARK_TOOL: MarkTool},
    )
    ends: dict[str, dict[int, float]] = {name: {} for name in wl.STOCK_TOOLS}
    for name in wl.STOCK_TOOLS:
        fw.subscribe(
            name,
            lambda step, a, result, _ends=ends[name]: _ends.__setitem__(
                step, time.perf_counter()
            ),
        )
    stats0 = comm.stats.snapshot()
    t0 = time.perf_counter()
    fw.run(sim_cfg, comm if comm.size > 1 else None)
    t1 = time.perf_counter()

    firings = []
    for step in sorted(fw.results[wl.MARK_TOOL]):
        began, num_local = fw.results[wl.MARK_TOOL][step]
        tess = fw.results["tessellation"][step]
        firings.append(
            {
                "step": step,
                "t": [began] + [ends[name][step] for name in wl.STOCK_TOOLS],
                "num_local": num_local,
                "cells": tess.num_cells,
                "volume": tess.total_volume(),
                "bytes": tess.output_bytes,
                "timings": dataclasses.asdict(tess.timings),
                "voids": len(fw.results["void_finder"][step].voids),
                "digest": wl.tess_digest(tess) if comm.rank == 0 else None,
            }
        )
    tree = fw.results["tracking"][sim_cfg.nsteps]
    return {
        "rank": comm.rank,
        "run": (t0, t1),
        "sim_s": fw.simulation_seconds,
        "firings": firings,
        "tree_events": tree.num_events,
        "tree_tracks": tree.num_tracks,
        "comm": comm.stats.since(stats0).as_dict(),
        "rss_mb": benv.peak_rss_mb(),
    }


def _noop(comm) -> int:
    return comm.rank


def _run_deck(nranks: int, sim_cfg, deck: dict) -> list[dict]:
    backend = "process" if nranks > 1 else "thread"
    return run_parallel(nranks, rank_worker, sim_cfg, deck, backend=backend)


def _firing_times(ranks: list[dict]) -> list[dict]:
    """Per firing, what the simulation waited for: each tool's duration
    and the whole firing's, taken on the slowest rank."""
    out = []
    for i in range(len(ranks[0]["firings"])):
        stamps = np.array([r["firings"][i]["t"] for r in ranks])
        tools = np.diff(stamps, axis=1).max(axis=0)
        out.append(
            {
                "firing": float((stamps[:, -1] - stamps[:, 0]).max()),
                **dict(zip(wl.STOCK_TOOLS, map(float, tools))),
            }
        )
    return out


def _record_rank_spans(rec, ranks: list[dict]) -> None:
    """Rebuild each rank's run/firing/tool spans from its timestamps,
    under the open ``insitu.run`` span, one track per rank."""
    for r in ranks:
        run = rec.add("insitu.rank", *r["run"], rank=r["rank"])
        for f in r["firings"]:
            t = f["t"]
            firing = rec.add("insitu.firing", t[0], t[-1], r["rank"], run)
            for k, name in enumerate(wl.STOCK_TOOLS):
                rec.add(f"insitu.{name}", t[k], t[k + 1], r["rank"], firing)


def run(nranks: int, sizes: wl.Sizes, seed: int, seconds: float,
        traced: bool, workdir: str) -> Outcome:
    out = Outcome()
    try:
        _run(nranks, sizes, seed, seconds, traced, workdir, out)
    finally:
        shutdown_pool()
    return out


def _run(nranks, sizes, seed, seconds, traced, workdir, out: Outcome) -> None:
    setup = out.setup

    def realization(index: int):
        # Trace runs pair a traced pass with an untraced one on the same
        # realization, so the two differ by the tracing alone.
        k = index // 2 if traced else index
        return wl.sim_config(sizes, wl.realization_seed(seed, k))

    box_volume = realization(0).domain().volume
    snapdir = f"{workdir}/snapshots"
    os.makedirs(snapdir)
    deck = wl.deck(sizes.every, snapdir)
    queries = wl.insitu_queries(sizes, seed)

    # Warm-up on the same backend and rank count: first call pays the
    # kernel's build or dlopen, every repetition the rank-pool fork.
    warm_cfg = wl.sim_config(sizes, seed, warm=True)
    warm_deck = wl.deck(sizes.warm_nsteps, f"{workdir}/warm")
    os.makedirs(f"{workdir}/warm")
    with setup.once():
        _run_deck(nranks, warm_cfg, warm_deck)
    for _ in range(SetupClock.REPS):
        with setup.rep():
            shutdown_pool()
            _run_deck(nranks, warm_cfg, warm_deck)

    reference = None
    if nranks > 1:
        # The rank-count-invariance check needs the 1-rank answer; one
        # realization (the first pass's) is checked against it.
        with setup.once():
            refdir = f"{workdir}/reference"
            os.makedirs(refdir)
            t0 = time.perf_counter()
            reference = _run_deck(
                1, realization(0), wl.deck(sizes.every, refdir)
            )[0]
            reference["deck_s"] = time.perf_counter() - t0

    passes: list[dict] = []

    def one_pass(rec, index: int) -> None:
        catalog = f"{workdir}/catalog-{index}"
        data: dict = {"traced": rec.enabled, "answers": {}, "read": {}}
        with rec.span("pass"):
            with rec.span("insitu.run"):
                t0 = time.perf_counter()
                ranks = _run_deck(nranks, realization(index), deck)
                data["deck_s"] = time.perf_counter() - t0
                if rec.enabled:
                    _record_rank_spans(rec, ranks)
            data["ranks"] = ranks
            store = CatalogStore(catalog)
            try:
                for step in sizes.steps:
                    with rec.span("core.read"):
                        tess = read_tessellation(wl.snapshot_path(snapdir, step))
                    with rec.span("serve.publish"):
                        store.publish(step, tess)
                    snapshot = store.snapshot(step)
                    with rec.span("serve.load_block"):
                        blocks = [
                            snapshot.load_block(gid)[0]
                            for gid in range(snapshot.nblocks)
                        ]
                    answers = []
                    for spec in queries[step]:
                        with rec.span(f"analysis.query_{wl.query_kind(spec)}"):
                            answers.append(
                                run_query(snapshot.domain, blocks, spec)
                            )
                    data["answers"][step] = answers
                    data["read"][step] = tess
            finally:
                store.close()
        _check_pass(out, data, sizes, box_volume, queries,
                    reference if index == 0 else None, first=index == 0)
        shutil.rmtree(catalog, ignore_errors=True)
        del data["read"]
        passes.append(data)

    run_passes(one_pass, seconds, traced, out)

    untraced = [p for p in passes if not p["traced"]]
    for p in untraced:
        for f in _firing_times(p["ranks"]):
            out.op_ms.append(f["firing"] * 1e3)
            out.heavy_ms.append(f["tessellation"] * 1e3)
    # Exact counts come from the first realization, which every run of
    # this seed completes, however many more passes its time allows.
    root = passes[0]["ranks"][0]
    out.tess_bytes = sum(f["bytes"] for f in root["firings"])
    out.tess_cells = sum(f["cells"] for f in root["firings"])
    out.peak_rss_mb = max([benv.peak_rss_mb()] + [
        r["rss_mb"] for p in passes for r in p["ranks"]
    ])
    out.digest = {
        "voids": [f["voids"] for f in root["firings"]],
        "tree_events": root["tree_events"],
        "tree_tracks": root["tree_tracks"],
        "tess": [f["digest"] for f in root["firings"]],
    }
    if traced:
        _layers(out, [p for p in passes if p["traced"]], nranks, sizes,
                wl.realization_seed(seed, 0), workdir, reference)


def _check_pass(out, data, sizes, box_volume, queries, reference, first):
    """Output checks of one pass (outside its timed region).  A firing
    and a query each count as one operation."""
    root = data["ranks"][0]
    for i, f in enumerate(root["firings"]):
        step, problems = f["step"], []
        if f["cells"] != sizes.np_side ** 3:
            problems.append(
                f"step {step}: {f['cells']} cells, expected "
                f"{sizes.np_side ** 3}"
            )
        if abs(f["volume"] - box_volume) > 1e-9 * box_volume:
            problems.append(
                f"step {step}: cell volumes sum to {f['volume']!r}, box is "
                f"{box_volume!r}"
            )
        if wl.tess_digest(data["read"][step]) != f["digest"]:
            problems.append(
                f"step {step}: read-back differs from the in situ tessellation"
            )
        if reference is not None:
            want = reference["firings"][i]["voids"]
            if f["voids"] != want:
                problems.append(
                    f"step {step}: {f['voids']} voids, 1-rank run {want}"
                )
        out.operation(problems)
    if reference is not None:
        same = root["tree_events"] == reference["tree_events"]
        out.operation([] if same else [
            f"merger tree has {root['tree_events']} events, 1-rank run "
            f"{reference['tree_events']}"
        ])

    for f in root["firings"]:
        step = f["step"]
        tess = data["read"][step]
        for k, (spec, answer) in enumerate(
            zip(queries[step], data["answers"][step])
        ):
            problems = []
            if k == 0 and answer["num_voids"] != f["voids"]:
                problems.append(
                    f"step {step}: query finds {answer['num_voids']} voids, "
                    f"in situ void finder {f['voids']}"
                )
            # The catalog's mmap block loader and the plain file reader
            # must feed the kernels the same cells; the kernels are
            # deterministic, so once per run settles it.
            if first and run_query(tess.domain, tess.blocks, spec) != answer:
                problems.append(
                    f"step {step}: {spec['op']} answer depends on the loader"
                )
            out.operation(problems)


def _layers(out, traced_passes, nranks, sizes, seed, workdir, reference):
    """Per-layer metrics of the traced passes: per-pass medians of what
    the ranks reported, exact counts from the first pass, then probes."""
    import probes

    def med(f):
        return statistics.median(f(p) for p in traced_passes)

    for p in traced_passes:
        p["firing_times"] = _firing_times(p["ranks"])

    def over_firings(key):
        return lambda p: sum(f[key] for f in p["firing_times"])

    def timing(key):
        return lambda p: sum(
            f["timings"][key] for f in p["ranks"][0]["firings"]
        )

    first = traced_passes[0]["ranks"]
    comm = [r["comm"] for r in first]
    num_local = [r["firings"][-1]["num_local"] for r in first]
    layers = out.layers
    layers.update(
        {
            "hacc.step_s": med(lambda p: max(r["sim_s"] for r in p["ranks"])),
            "insitu.firings": len(first[0]["firings"]),
            "insitu.tessellation_s": med(over_firings("tessellation")),
            "insitu.void_finder_s": med(over_firings("void_finder")),
            "insitu.tracking_s": med(over_firings("tracking")),
            "insitu.firing_p50_s": statistics.median(
                f["firing"] for p in traced_passes for f in p["firing_times"]
            ),
            "core.exchange_s": med(timing("exchange")),
            "core.compute_s": med(timing("compute")),
            "core.output_s": med(timing("output")),
            "core.comm_wait_s": med(timing("comm_wait")),
            "core.cells": out.tess_cells,
            "core.bytes_written": out.tess_bytes,
            "core.bytes_read": out.tess_bytes,
            "diy.bytes_sent": max(c["bytes_sent"] for c in comm),
            "diy.msgs_sent": max(c["msgs_sent"] for c in comm),
            "diy.shm_bytes_sent": max(c["shm_bytes_sent"] for c in comm),
            "diy.collective_calls": max(
                sum(c["collective_calls"].values()) for c in comm
            ),
            "balance.imbalance": max(num_local) / statistics.mean(num_local),
        }
    )
    if reference is not None:
        layers["diy.speedup_r2"] = reference["deck_s"] / med(
            lambda p: p["deck_s"]
        )
        layers["diy.pool_lease_s"] = probes.best_of(
            lambda: run_parallel(nranks, _noop, backend="process")
        )

    # Per-layer table: self time of each span name per traced pass.  What
    # a rank spends outside its firings is initial conditions + stepping
    # + framework; of that the program reports the stepping itself and a
    # probe sizes the initial conditions.
    n = len(traced_passes)
    selfs = totals_by_name(out.spans, self_times(out.spans))
    table = {
        k: v / n for k, v in selfs.items() if k not in ("pass", "insitu.rank")
    }
    for kind in wl.QUERY_KINDS:
        span = f"analysis.query_{kind}"
        calls = sum(1 for s in out.spans if s.name == span)
        if calls:
            layers[f"{span}_ms"] = 1e3 * selfs[span] / calls
    layers["core.read_s"] = table["core.read"]
    layers["serve.publish_s"] = table["serve.publish"]
    layers["serve.load_block_ms"] = (
        1e3 * table["serve.load_block"] / (nranks * len(sizes.steps))
    )
    snaps = wl.capture_snapshots(sizes, seed)
    layers.update(probes.hacc(sizes, seed, snaps))
    layers.update(probes.geometry_and_core(sizes, seed, snaps, workdir))
    table["hacc.step (reported)"] = layers["hacc.step_s"]
    table["hacc.ic (probe)"] = layers["hacc.ic_s"]
    out.table = sorted(table.items(), key=lambda kv: -kv[1])
