"""Workload sizes and seeded inputs of the pipeline benchmark.

Sizes are constants, not flags: a number in ``BENCHMARK.json`` means one
fixed problem.  They were set by timing the seed code on the 2-core
reference box so that one pass of a workload takes 1.3-3 s and a run of
``run_seconds`` holds several passes; the per-pass median is what is
reported.  Everything that varies between runs derives from ``--seed``:
the simulation's initial conditions, and the regions, centres and order of
the query mix.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace


@dataclass(frozen=True)
class Sizes:
    """One fixed problem.  ``np_side``³ particles evolved ``nsteps`` steps
    with the in situ tools (or a capture) firing every ``every`` steps."""

    np_side: int
    nsteps: int
    every: int
    #: the warm-up deck run during set-up (imports, dlopen, rank-pool fork)
    warm_np_side: int
    warm_nsteps: int
    #: particles per side of the served catalog's snapshots (smaller: a
    #: heavy query runs 2-4x its bare kernel time inside the server)
    serve_np_side: int
    #: blocks per file for the postprocess fixtures and the served catalog
    blocks: int

    @property
    def steps(self) -> list[int]:
        return list(range(self.every, self.nsteps + 1, self.every))

    def for_serving(self) -> "Sizes":
        """The same problem at the served catalog's particle count."""
        return replace(self, np_side=self.serve_np_side)


#: 16³ and 3 firings: a firing costs ~0.45 s, a Minkowski pass ~0.5 s per
#: snapshot, a heavy query ~0.4-1 s -- the largest sizes at which a
#: 15-second run still holds 5-10 passes of every workload.
FULL = Sizes(np_side=16, nsteps=12, every=4, warm_np_side=8, warm_nsteps=4,
             serve_np_side=12, blocks=4)
SMOKE = Sizes(np_side=8, nsteps=4, every=2, warm_np_side=8, warm_nsteps=2,
              serve_np_side=8, blocks=4)

GHOST = 4.0  # Mpc/h = 4 mean spacings: the paper's accuracy-study width
TRACK_QUANTILE = 0.9
TRACK_MIN_OVERLAP = 2
COMPONENT_QUANTILES = (0.8, 0.9, 0.95)
MARK_TOOL = "bench_mark"
STOCK_TOOLS = ("tessellation", "void_finder", "tracking")


def realization_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th initial-condition realization of a run.

    At these sizes the cost of one tessellation swings by +-12% with any
    change of the point set (another realization, even a rigid periodic
    shift of the same one: qhull's work depends on the insertion order).
    An insitu run therefore gives every pass its own realization, so its
    medians average over ~10 inputs instead of sampling one.
    """
    return 1000 * seed + index


def sim_config(sizes: Sizes, seed: int, warm: bool = False):
    from repro.hacc import SimulationConfig

    if warm:
        return SimulationConfig(
            np_side=sizes.warm_np_side, nsteps=sizes.warm_nsteps, seed=seed
        )
    return SimulationConfig(
        np_side=sizes.np_side, nsteps=sizes.nsteps, seed=seed
    )


def deck(every: int, outdir: str) -> dict:
    """The in situ deck, in the dict form ``FrameworkConfig.from_dict``
    parses: the benchmark's zero-cost mark tool, then the three stock
    tools, all on one cadence.  Snapshots land in ``outdir``."""
    return {
        "tools": [
            {"tool": MARK_TOOL, "every": every},
            {
                "tool": "tessellation",
                "every": every,
                "params": {
                    "ghost": GHOST,
                    "output_pattern": snapshot_path(outdir, "{step}"),
                },
            },
            {"tool": "void_finder", "every": every},
            {
                "tool": "tracking",
                "every": every,
                "params": {
                    "vmin_quantile": TRACK_QUANTILE,
                    "min_overlap": TRACK_MIN_OVERLAP,
                },
            },
        ]
    }


def snapshot_path(outdir: str, step) -> str:
    return f"{outdir}/snap-{step}.tess"


def _rng(seed: int, stream: str):
    """Independent, reproducible stream per (seed, purpose)."""
    import numpy as np

    salt = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "big")
    return np.random.default_rng([seed, salt])


def _region(rng, box: float) -> list[list[float]]:
    """A box of side box/3..box/2 lying inside the domain."""
    side = rng.uniform(box / 3.0, box / 2.0, size=3)
    lo = rng.uniform(0.0, box - side)
    return [lo.tolist(), (lo + side).tolist()]


def _center(rng, box: float, rmax: float) -> list[float]:
    """A profile centre whose ball stays clear of the periodic boundary,
    so the server needs only the blocks meeting the ball's bounding box."""
    return rng.uniform(rmax, box - rmax, size=3).tolist()


def light_queries(step: int, box: float, rng) -> list[dict]:
    """The 11 light requests against one snapshot (each 1-15 ms of kernel):
    voids, region voids, components, halos, profile."""
    return [
        {"op": "voids", "step": step},
        {"op": "voids", "step": step, "vmin_fraction": 0.2},
        {"op": "voids", "step": step, "region": _region(rng, box)},
        {"op": "voids", "step": step, "region": _region(rng, box)},
        {"op": "components", "step": step, "vmin": 0.0},
        # spacing is 1 Mpc/h, so 1.0 is the mean cell volume
        {"op": "components", "step": step, "vmin": 1.0},
        {"op": "components", "step": step, "vmin": 1.0,
         "region": _region(rng, box)},
        {"op": "halos", "step": step, "linking_fraction": 0.2,
         "min_members": 5},
        {"op": "halos", "step": step, "linking_fraction": 0.25,
         "min_members": 4, "region": _region(rng, box)},
        {"op": "profile", "step": step,
         "center": _center(rng, box, box / 4.0), "rmax": box / 4.0,
         "nbins": 12},
        {"op": "profile", "step": step,
         "center": _center(rng, box, box / 5.0), "rmax": box / 5.0,
         "nbins": 16},
    ]


#: cells at least 1.5x the mean volume (spacing is 1 Mpc/h).  Of the
#: thresholds tried, the one whose boundary-face count -- what Minkowski
#: time is proportional to -- varies least between seeds (cv 4%, against
#: 8-9% for the 0.9 quantile or the 10%-of-range rule).
MINKOWSKI_VMIN = 1.5


def heavy_query(step: int) -> dict:
    """Minkowski functionals of the void catalog: ~100x a light request."""
    return {"op": "minkowski", "step": step, "vmin": MINKOWSKI_VMIN, "top": 2}


def is_heavy(spec: dict) -> bool:
    return spec["op"] == "minkowski"


def query_kind(spec: dict) -> str:
    """The request class a per-layer latency is reported under."""
    if spec["op"] == "voids" and "region" in spec:
        return "voids_region"
    return spec["op"]


QUERY_KINDS = ("voids", "voids_region", "components", "halos", "profile",
               "minkowski")


#: serve_mix is a traffic workload over a fixed dataset: the catalog is
#: always built from this realization and ``--seed`` shapes the requests.
#: (Between realizations the heavy kernel alone ranges 0.35-1.7 s at 12^3,
#: which would bury any change to the server.)
SERVE_DATASET_SEED = 3


def serve_mix(sizes: Sizes, seed: int) -> tuple[list[dict], list[dict]]:
    """The two request streams of a serve_mix pass: the heavy request of
    every snapshot, and the 11 light requests of every snapshot in a
    seeded order.  A pass sends the heavy stream once over one connection
    while a second connection cycles through the light stream until the
    heavy stream is done (2 closed-loop clients = nproc of the box).

    One stream per kind, not one shared stream: on a shared stream a
    light request runs either beside a heavy one (10x slower) or beside
    another light one, about half and half, so the light median sits on
    the edge between two modes and swings 2x from run to run.  Here
    every light request has a heavy one beside it and every heavy request
    a stream of light ones, which is the mixed-load regime the metric is
    about.  ``sizes`` is ``for_serving()``."""
    rng = _rng(seed, "serve_mix")
    box = float(sizes.np_side)
    lights = [q for step in sizes.steps for q in light_queries(step, box, rng)]
    return (
        [heavy_query(step) for step in sizes.steps],
        [lights[i] for i in rng.permutation(len(lights))],
    )


def insitu_queries(sizes: Sizes, seed: int) -> dict[int, list[dict]]:
    """The 5-op light mix answered per snapshot at the end of an insitu
    pass (one of each light kind; the first is the whole-domain void
    catalog, which the run checks against the in situ void finder)."""
    rng = _rng(seed, "insitu_queries")
    box = float(sizes.np_side)
    out = {}
    for step in sizes.steps:
        eleven = light_queries(step, box, rng)
        out[step] = [eleven[i] for i in (0, 2, 4, 7, 9)]
    return out


def generated_inputs(workload: str, sizes: Sizes, seed: int) -> dict:
    """Everything the program receives for (workload, seed), JSON-able."""
    cfg = sim_config(sizes, seed)
    inputs: dict = {
        "workload": workload,
        "sizes": asdict(sizes),
        "simulation": {
            "np_side": cfg.np_side, "nsteps": cfg.nsteps, "seed": cfg.seed,
        },
    }
    if workload.startswith("insitu"):
        inputs["simulation"]["seed"] = (
            f"{realization_seed(seed, 0)} + pass index"
        )
        inputs["deck"] = deck(sizes.every, "<workdir>")
        inputs["queries"] = {
            str(k): v for k, v in insitu_queries(sizes, seed).items()
        }
    elif workload == "serve_mix":
        inputs["simulation"]["seed"] = SERVE_DATASET_SEED
        inputs["queries"] = serve_mix(sizes.for_serving(), seed)
    return inputs


def inputs_digest(workload: str, sizes: Sizes, seed: int) -> str:
    blob = json.dumps(generated_inputs(workload, sizes, seed), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def tess_digest(tess) -> str:
    """Order-independent content digest of a tessellation: site ids and
    cell volumes, sorted by site id.  Equal before a write and after the
    read-back iff the file round-trips the cells."""
    import numpy as np

    ids = tess.site_ids().astype(np.int64, copy=False)
    order = np.argsort(ids, kind="stable")
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ids[order]).tobytes())
    h.update(np.ascontiguousarray(tess.volumes()[order]).tobytes())
    return h.hexdigest()[:16]


def capture_snapshots(sizes: Sizes, seed: int) -> dict:
    """Run the simulation alone and keep (positions, ids) at every firing
    step -- the fixture generator of postprocess and serve_mix."""
    from repro.hacc import HACCSimulation

    snaps = {}

    def capture(sim, step, a):
        snaps[step] = (sim.positions_mpc().copy(), sim.local.ids.copy())

    sim = HACCSimulation(sim_config(sizes, seed))
    sim.run(hooks={step: [capture] for step in sizes.steps})
    return snaps
