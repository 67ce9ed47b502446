"""Single-layer probes of a trace run: direct calls into one layer's
public functions on the workload's final snapshot, timed from outside.

A probe is not part of a pass; it sizes a layer in isolation so that a
later change can say how much of ``wall_s`` that layer could give back.
"""

from __future__ import annotations

import os
import time

import numpy as np
from scipy.spatial import Delaunay

import workloads as wl
from repro.core import tessellate
from repro.geometry import DelaunayVoronoi
from repro.hacc import HACCSimulation


def best_of(fn, repeats: int = 3) -> float:
    """Fastest of ``repeats`` calls: the probe's cost without whatever
    else the box was doing."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def hacc(sizes: wl.Sizes, seed: int, snaps: dict) -> dict[str, float]:
    """``snaps`` is ``wl.capture_snapshots(sizes, seed)``.
    Initial-condition generation, and how far particles move between
    firings in units of the mean spacing (the property an incremental
    re-tessellation would lean on; exact per seed)."""
    cfg = wl.sim_config(sizes, seed)
    ic_s = best_of(lambda: HACCSimulation(cfg), repeats=2)
    box = cfg.box_size
    moves = []
    steps = sorted(snaps)
    for a, b in zip(steps, steps[1:]):
        pos_a, ids_a = snaps[a]
        pos_b, ids_b = snaps[b]
        d = pos_b[np.argsort(ids_b)] - pos_a[np.argsort(ids_a)]
        d -= box * np.round(d / box)  # periodic minimum image
        moves.append(np.linalg.norm(d, axis=1))
    spacing = box / cfg.np_side
    return {
        "hacc.ic_s": ic_s,
        "hacc.disp_over_spacing": float(np.median(np.concatenate(moves)))
        / spacing,
    }


def geometry_and_core(sizes: wl.Sizes, seed: int, snaps: dict, workdir: str
                      ) -> dict[str, float]:
    """Geometry engine against bare qhull on the same points, then one
    tessellate and one write of the final snapshot."""
    cfg = wl.sim_config(sizes, seed)
    domain = cfg.domain()
    pos, ids = snaps[sizes.steps[-1]]
    pos = np.ascontiguousarray(pos)

    engine_s = best_of(lambda: DelaunayVoronoi(pos, domain))
    qhull_s = best_of(lambda: Delaunay(pos))

    made = {}

    def build():
        made["tess"] = tessellate(pos, domain, nblocks=1, ghost=wl.GHOST,
                                  ids=ids)

    tessellate_s = best_of(build)
    path = os.path.join(workdir, "probe.tess")
    write_s = best_of(lambda: made["tess"].write(path))
    os.unlink(path)
    return {
        "geometry.engine_probe_s": engine_s,
        "geometry.qhull_probe_s": qhull_s,
        "geometry.engine_over_qhull": engine_s / qhull_s,
        "core.tessellate_probe_s": tessellate_s,
        "core.write_probe_s": write_s,
    }
