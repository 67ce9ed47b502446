"""Workload ``postprocess``: the analysis an analyst runs over snapshot
files after the simulation is gone.

Set-up writes one four-block tess file per firing step, from the same
simulation the insitu workloads run.  One pass reads every file back and
analyses it -- connected components at three volume quantiles, the void
catalog with Minkowski functionals, friends-of-friends halos -- then
tracks the components through the steps, saves the merger tree and
publishes the snapshots into a catalog.  No geometry engine call is made.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

import benv
import workloads as wl
from harness import Outcome, SetupClock, run_passes
from repro.analysis.components import connected_components
from repro.analysis.halos import fof_halos
from repro.analysis.minkowski import minkowski_functionals
from repro.analysis.tracking import MergerTree, track_components
from repro.analysis.voids import find_voids
from repro.core import read_tessellation, tessellate
from repro.serve import CatalogStore
from spans import self_times, totals_by_name

HALO_LINKING = 0.2  # in mean spacings, the classic b
HALO_MIN_MEMBERS = 5


def write_fixtures(sizes: wl.Sizes, seed: int, outdir: str) -> dict[int, str]:
    """Simulate, tessellate every firing step into ``sizes.blocks`` blocks
    and write it; returns step -> content digest of what was written."""
    os.makedirs(outdir, exist_ok=True)
    domain = wl.sim_config(sizes, seed).domain()
    written = {}
    for step, (pos, ids) in wl.capture_snapshots(sizes, seed).items():
        tess = tessellate(
            pos, domain, nblocks=sizes.blocks, ghost=wl.GHOST, ids=ids,
            output_path=wl.snapshot_path(outdir, step),
        )
        written[step] = wl.tess_digest(tess)
    return written


def run(sizes: wl.Sizes, seed: int, seconds: float, traced: bool,
        workdir: str) -> Outcome:
    out = Outcome()
    setup = out.setup
    snapdir = f"{workdir}/snapshots"
    with setup.once():
        # pays the native kernel's build or dlopen
        write_fixtures(wl.SMOKE, seed, f"{workdir}/warm")
    for _ in range(SetupClock.REPS):
        with setup.rep():
            written = write_fixtures(sizes, seed, snapdir)

    spacing = 1.0  # box side == np_side: one Mpc/h between grid sites
    passes: list[dict] = []

    def one_pass(rec, index: int) -> None:
        catalog = f"{workdir}/catalog-{index}"
        tree_path = f"{workdir}/tree-{index}.npz"
        snaps: dict[int, dict] = {}
        labelings = {}
        with rec.span("pass"):
            store = CatalogStore(catalog)
            try:
                for step in sizes.steps:
                    t0 = time.perf_counter()
                    with rec.span("core.read"):
                        tess = read_tessellation(wl.snapshot_path(snapdir, step))
                    volumes = tess.volumes()
                    components = {}
                    for q in wl.COMPONENT_QUANTILES:
                        vmin = float(np.quantile(volumes, q))
                        with rec.span("analysis.components"):
                            components[q] = connected_components(tess, vmin=vmin)
                    labelings[step] = components[wl.TRACK_QUANTILE]
                    t1 = time.perf_counter()
                    with rec.span("analysis.voids"):
                        voids = find_voids(
                            tess, vmin=wl.MINKOWSKI_VMIN, compute_minkowski=True
                        )
                    t2 = time.perf_counter()
                    sites = np.concatenate([b.sites for b in tess.blocks])
                    with rec.span("analysis.halos"):
                        halos = fof_halos(
                            sites, HALO_LINKING * spacing, domain=tess.domain,
                            min_members=HALO_MIN_MEMBERS, ids=tess.site_ids(),
                        )
                    with rec.span("serve.publish"):
                        store.publish(step, tess)
                    snaps[step] = {
                        "tess": tess, "components": components,
                        "voids": voids, "halos": halos,
                        "op_s": time.perf_counter() - t0, "heavy_s": t2 - t1,
                    }
                with rec.span("analysis.tracking"):
                    tree = MergerTree.from_tree(
                        track_components(
                            labelings, min_overlap=wl.TRACK_MIN_OVERLAP
                        )
                    )
                with rec.span("analysis.tree_save"):
                    tree.save(tree_path)
            finally:
                store.close()
        digest = _check_pass(out, sizes, snaps, tree, tree_path, written,
                             passes[0]["digest"] if passes else None)
        shutil.rmtree(catalog, ignore_errors=True)
        os.unlink(tree_path)
        passes.append(
            {
                "traced": rec.enabled,
                "digest": digest,
                "op_s": [s["op_s"] for s in snaps.values()],
                "heavy_s": [s["heavy_s"] for s in snaps.values()],
            }
        )
        if index == 0:
            out.tess_cells = sum(s["tess"].num_cells for s in snaps.values())

    run_passes(one_pass, seconds, traced, out)

    for p in passes:
        if not p["traced"]:
            out.op_ms.extend(1e3 * s for s in p["op_s"])
            out.heavy_ms.extend(1e3 * s for s in p["heavy_s"])
    out.tess_bytes = sum(
        os.path.getsize(wl.snapshot_path(snapdir, step)) for step in sizes.steps
    )
    out.peak_rss_mb = benv.peak_rss_mb()
    out.digest = passes[-1]["digest"]
    if traced:
        _layers(out, sum(p["traced"] for p in passes), sizes, snapdir)
    return out


def _check_pass(out, sizes, snaps, tree, tree_path, written, first_digest):
    """Output checks of one pass; returns its exact-count digest."""
    for step, s in snaps.items():
        tess, problems = s["tess"], []
        if wl.tess_digest(tess) != written[step]:
            problems.append(f"step {step}: read-back differs from written")
        volumes = tess.volumes()
        # The voids partition the cells above the threshold: an independent
        # NumPy sum must find the same cells and the same volume.
        above = volumes >= wl.MINKOWSKI_VMIN
        cells = sum(v.num_cells for v in s["voids"].voids)
        volume = sum(v.volume for v in s["voids"].voids)
        if cells != int(above.sum()) or not np.isclose(
            volume, volumes[above].sum(), rtol=1e-9, atol=0.0
        ):
            problems.append(
                f"step {step}: voids hold {cells} cells / volume {volume!r}, "
                f"threshold selects {int(above.sum())} / "
                f"{float(volumes[above].sum())!r}"
            )
        if any(v.minkowski is None for v in s["voids"].voids):
            problems.append(f"step {step}: a void lacks Minkowski functionals")
        for q, labeling in s["components"].items():
            want = int((volumes >= np.quantile(volumes, q)).sum())
            if int(labeling.sizes().sum()) != want:
                problems.append(
                    f"step {step}: components at q={q} label "
                    f"{int(labeling.sizes().sum())} cells, expected {want}"
                )
        if any(h.mass < HALO_MIN_MEMBERS for h in s["halos"].halos):
            problems.append(f"step {step}: a halo is below min_members")
        out.operation(problems)

    problems = []
    if [int(s) for s in tree.steps] != sizes.steps:
        problems.append(f"tree covers steps {list(tree.steps)}")
    reloaded = MergerTree.load(tree_path)
    if any(
        not np.array_equal(tree.arrays[k], reloaded.arrays[k])
        for k in tree.arrays
    ):
        problems.append("merger tree changed across save/load")
    digest = {
        "voids_found": [len(s["voids"].voids) for s in snaps.values()],
        "halos_found": [len(s["halos"].halos) for s in snaps.values()],
        "tree_events": tree.num_events,
        "tree_tracks": tree.num_tracks,
    }
    if first_digest is not None and digest != first_digest:
        problems.append(f"pass digest {digest} != first pass {first_digest}")
    out.operation(problems)
    return digest


def _layers(out, npasses: int, sizes, snapdir: str) -> None:
    selfs = totals_by_name(out.spans, self_times(out.spans))
    table = {k: v / npasses for k, v in selfs.items() if k != "pass"}
    layers = out.layers
    for name in ("components", "voids", "halos", "tracking", "tree_save"):
        layers[f"analysis.{name}_s"] = table[f"analysis.{name}"]
    layers["core.read_s"] = table["core.read"]
    layers["core.bytes_read"] = out.tess_bytes
    layers["core.cells"] = out.tess_cells
    layers["serve.publish_s"] = table["serve.publish"]
    layers["analysis.voids_found"] = sum(out.digest["voids_found"])
    layers["analysis.tree_events"] = out.digest["tree_events"]

    # Minkowski alone, through its public entry point: find_voids with
    # compute_minkowski=True is labeling + volumes + this.
    minkowski_s = 0.0
    for step in sizes.steps:
        tess = read_tessellation(wl.snapshot_path(snapdir, step))
        labeling = connected_components(tess, vmin=wl.MINKOWSKI_VMIN)
        t0 = time.perf_counter()
        minkowski_functionals(tess, labeling)
        minkowski_s += time.perf_counter() - t0
    layers["analysis.minkowski_s"] = minkowski_s
    layers["analysis.voids_s"] = max(0.0, table["analysis.voids"] - minkowski_s)
    table["analysis.voids"] = layers["analysis.voids_s"]
    table["analysis.minkowski (probe)"] = minkowski_s
    out.table = sorted(table.items(), key=lambda kv: -kv[1])
