"""Rank scaling — critical-path speedup of the process ranks.

Extends the Table II / Figure 10 story with a *true-parallelism* column:
ranks are OS processes, one per rank, so the run scales with the hardware
(speedup saturates at the machine's core count — on a single-core
container elapsed wall is flat and the sweep mainly shows transport
overhead is small).

The workload is the paper's small-scale Table II configuration: a 20^3 =
8000-particle snapshot evolved 10 steps, then one distributed tessellation
(ghost exchange + Voronoi + block gather, the in situ tool's traffic
pattern).  Per-rank CommStats bytes are reported so the run confirms the
shared-memory transport is actually exercised between rank processes.

Two timings are recorded per rank count:

* **wall_s** — elapsed wall-clock around the whole parallel region,
  best-of-N after one untimed warmup run (the warmup pays the persistent
  rank pool's one-time fork + import cost, so the timed repeats measure
  warm pool leases — the steady state of an in situ run that enters the
  region every analysis step).  On a box with fewer cores than ranks the
  OS time-slices the rank processes, so elapsed wall *cannot* shrink with
  rank count no matter how good the runtime is.
* **crit_wall_s** — the critical-path wall: ``max over ranks of per-rank
  thread-CPU + (wall − Σ per-rank CPU, floored at 0)``.  The first term
  is the slowest rank's own work (what a machine with ≥ ranks cores would
  wait for); the second is runtime overhead not attributed to any rank
  (fork, pickling, pipe traffic, scheduling).  This is the honest scaling
  metric on a shared/CI box and what the perf gate's
  ``scaling.process.r4_over_r1 < 1`` entry enforces.

Run directly (``python benchmarks/bench_backend_scaling.py [--quick]``) or
via pytest (quick mode).  Results land in
``benchmarks/results/backend_scaling.txt`` only.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import write_report  # noqa: E402

RANK_COUNTS = (1, 2, 4, 8)
RANK_COUNTS_QUICK = (1, 2, 4)


def _snapshot(np_side: int, nsteps: int):
    """Evolve the Table II configuration once; returns (cfg, positions, ids)."""
    from repro.hacc import HACCSimulation, SimulationConfig

    cfg = SimulationConfig(np_side=np_side, nsteps=nsteps, seed=3)
    sim = HACCSimulation(cfg)
    sim.run()
    return cfg, sim.positions_mpc(), sim.local.ids.copy()


def _tess_worker(comm, decomp, pts, pid, ghost, vmin):
    """One rank of the benchmark region: tessellate + gather (in situ shape)."""
    from repro.core.tessellate import tessellate_distributed

    cpu0 = time.thread_time()
    mine = decomp.locate(pts) == comm.rank
    block, timings, _ = tessellate_distributed(
        comm, decomp, pts[mine], pid[mine], ghost=ghost, vmin=vmin
    )
    # Gather blocks to root exactly as the in situ tessellation tool does —
    # this is the large-array traffic the zero-copy transport exists for.
    gathered = comm.gather(block, root=0)
    ncells = sum(b.num_cells for b in gathered) if comm.rank == 0 else -1
    cpu_s = time.thread_time() - cpu0
    return ncells, comm.stats.as_dict(), timings.as_row_extended(), cpu_s


def run_sweep(quick: bool = False) -> tuple[list[str], dict]:
    """Run the sweep; returns ``(report_lines, data)``.

    ``data`` is the machine-readable form consumed by the perf gate
    (:mod:`benchmarks.perf_gate`): one entry per rank count with
    the best-of-N wall seconds, per-phase max-over-ranks seconds (the
    paper's critical-path convention), and bytes moved.
    """
    from repro.diy.comm import run_parallel
    from repro.diy.decomposition import Decomposition

    np_side, nsteps = (12, 10) if quick else (20, 10)
    rank_counts = RANK_COUNTS_QUICK if quick else RANK_COUNTS
    cfg, pts, pid = _snapshot(np_side, nsteps)
    vmin = 0.5 * cfg.domain().volume / cfg.num_particles
    ghost = 4.0
    cores = os.cpu_count() or 1

    lines = [
        "Rank scaling: critical-path speedup of the process ranks",
        f"workload: {np_side}^3 = {np_side**3} particles (Table II config), "
        f"{nsteps} steps evolved, one distributed tessellation + block gather",
        f"machine: {cores} core(s) visible — elapsed wall saturates at "
        f"min(ranks, cores); crit_s is the >=ranks-cores critical path "
        f"(max per-rank CPU + unattributed runtime overhead)",
        "timing: one untimed warmup leases/forks the rank pool, then "
        "best-of-N over warm runs",
        "",
        f"{'ranks':>5} {'wall_s':>8} {'crit_s':>8} "
        f"{'speedup':>8} {'cells':>6} {'max_bytes_sent':>14} "
        f"{'max_shm_bytes':>13}",
    ]
    repeats = 2 if quick else 3
    runs: list[dict] = []
    base = None
    for nranks in rank_counts:
        decomp = Decomposition.regular(cfg.domain(), nranks, periodic=True)
        # Warmup (untimed): first entry pays the pool's fork + child import
        # cost; its wall is kept as the cold-start figure.
        t0 = time.perf_counter()
        results = run_parallel(nranks, _tess_worker, decomp, pts, pid, ghost, vmin)
        cold_wall = time.perf_counter() - t0
        wall = float("inf")
        for _ in range(repeats):  # best-of-N: shields against CI noise
            t0 = time.perf_counter()
            attempt = run_parallel(
                nranks, _tess_worker, decomp, pts, pid, ghost, vmin
            )
            elapsed = time.perf_counter() - t0
            if elapsed < wall:
                wall, results = elapsed, attempt
        ncells = results[0][0]
        stats = [r[1] for r in results]
        rows = [r[2] for r in results]
        rank_cpu = [r[3] for r in results]
        # Critical-path wall for the best run: the slowest rank's own CPU
        # plus whatever the elapsed wall spent outside any rank (pickling,
        # pipes, scheduling).  Equals wall on 1 rank.
        crit = max(rank_cpu) + max(wall - sum(rank_cpu), 0.0)
        base = crit if base is None else base
        largest_stats = stats
        runs.append({
            "ranks": nranks,
            "wall_s": wall,
            "cold_wall_s": cold_wall,
            "crit_wall_s": crit,
            "cpu_max_s": max(rank_cpu),
            "cells": ncells,
            "bytes_sent": max(s["bytes_sent"] for s in stats),
            "shm_bytes_sent": max(s["shm_bytes_sent"] for s in stats),
            # per-phase max over ranks: the critical-path seconds the
            # paper's Table II reports
            "phase_max_s": {
                phase: max(r[f"{phase}_s"] for r in rows)
                for phase in ("exchange", "compute", "output")
            },
        })
        lines.append(
            f"{nranks:>5} {wall:>8.3f} {crit:>8.3f} "
            f"{base / crit:>7.2f}x {ncells:>6} "
            f"{max(s['bytes_sent'] for s in stats):>14} "
            f"{max(s['shm_bytes_sent'] for s in stats):>13}"
        )
    lines.append("")

    lines.append("per-rank CommStats bytes, largest run:")
    for rank, s in enumerate(largest_stats):
        lines.append(
            f"  rank {rank}: sent {s['bytes_sent']:>9} B "
            f"recv {s['bytes_recv']:>9} B shm {s['shm_bytes_sent']:>9} B "
            f"msgs {s['msgs_sent']:>3} collectives "
            f"{sum(s['collective_calls'].values()):>3}"
        )
    shm_total = sum(s["shm_bytes_sent"] for s in largest_stats)
    lines.append("")
    lines.append(
        f"shared-memory transport exercised: {shm_total} bytes via shm "
        f"segments at {rank_counts[-1]} ranks"
    )

    # The strong-scaling headline the perf gate enforces: 4 ranks must beat
    # 1 rank on the critical path (scaling.process.r4_over_r1 < 1).
    crit_of = {r["ranks"]: r["crit_wall_s"] for r in runs}
    r4_over_r1 = crit_of[4] / crit_of[1]
    lines.append("")
    lines.append(
        f"crit-wall r4/r1 = {r4_over_r1:.3f} "
        f"({'scales' if r4_over_r1 < 1.0 else 'inverted'})"
    )

    from repro.diy.process_backend import pool_counters

    pool = dict(pool_counters)
    lines.append("")
    lines.append(
        "rank pool: forks {forks}  leased {runs_leased}  reused "
        "{runs_reused}  invalidations {invalidations}".format(**pool)
    )
    data = {
        "workload": {
            "np_side": np_side,
            "nsteps": nsteps,
            "rank_counts": list(rank_counts),
            "repeats": repeats,
        },
        "runs": runs,
        "r4_over_r1": r4_over_r1,
        "pool": pool,
    }
    return lines, data


def test_backend_scaling_quick():
    """Pytest entry point: the quick sweep, persisted like the other benches."""
    lines, _ = run_sweep(quick=True)
    write_report("backend_scaling", lines)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--quick",
        action="store_true",
        help="small snapshot (12^3) and rank counts 1/2/4 — CI smoke mode",
    )
    args = p.parse_args(argv)
    lines, _ = run_sweep(quick=args.quick)
    write_report("backend_scaling", lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
