"""Command-line interface: standalone tess runs and coupled simulations.

Mirrors the paper's two operating modes as console commands:

``repro-tess``
    Standalone mode — tessellate a point set from a ``.npy`` file (or a
    generated test cloud), write the blocked tess file, and print summary
    statistics.  The Python equivalent of Qhull's command-line programs
    wrapped in tess's parallel driver.

``repro-sim``
    In situ mode — run the HACC-style simulation with analysis tools from
    a JSON input deck (simulation parameters plus the framework's tools
    section, as in paper Figure 4's configuration file).

Both are also importable (:func:`tess_main`, :func:`sim_main`) and
installed as console scripts.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

__all__ = ["tess_main", "sim_main"]


def _build_tess_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-tess",
        description="Standalone parallel Voronoi tessellation (tess).",
    )
    p.add_argument("points", nargs="?", help=".npy file of (n, 3) positions")
    p.add_argument("--random", type=int, default=None, metavar="N",
                   help="generate N random points instead of reading a file")
    p.add_argument("--box", type=float, default=None,
                   help="periodic box side (default: max coordinate, rounded up)")
    p.add_argument("--blocks", type=int, default=1, help="block/rank count")
    p.add_argument("--ghost", type=float, default=None,
                   help="ghost-zone size (default: 4 mean spacings)")
    p.add_argument("--ranks", type=int, default=None,
                   help="rank count (default: one rank per block)")
    p.add_argument("--vmin", type=float, default=None, help="minimum cell volume")
    p.add_argument("--vmax", type=float, default=None, help="maximum cell volume")
    p.add_argument("--no-periodic", action="store_true",
                   help="treat the domain as bounded (boundary cells deleted)")
    p.add_argument("--voids", action="store_true",
                   help="run the flat void finder on the result (threshold + "
                        "connected components) and print the catalog summary")
    p.add_argument("--voids-vmin-fraction", type=float, default=0.1,
                   metavar="F",
                   help="void threshold as a fraction of the cell-volume "
                        "range (default: 0.1, the paper's rule)")
    p.add_argument("-o", "--output", default=None, help="tess output file")
    p.add_argument("--seed", type=int, default=0, help="seed for --random")
    _add_observe_args(p)
    return p


def _add_observe_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", default=None, metavar="OUT.json",
                   help="record per-rank spans and write a Chrome trace-event "
                        "JSON (load in Perfetto or chrome://tracing)")
    p.add_argument("--metrics", default=None, metavar="OUT.json",
                   help="write a machine-readable run-metrics report "
                        "(span summary, counters, memory high-water marks)")


def _observe_start(args) -> bool:
    """Enable tracing/metrics if either output flag was given."""
    if args.trace is None and args.metrics is None:
        return False
    from . import observe

    observe.enable()
    return True


def _observe_finish(args) -> None:
    """Write the requested trace/metrics files and print where they went."""
    from . import observe

    if args.trace is not None:
        nspans = observe.write_chrome_trace(args.trace)
        print(f"trace:         {args.trace} ({nspans} spans)")
    if args.metrics is not None:
        observe.write_metrics(args.metrics)
        print(f"metrics:       {args.metrics}")
    dropped = observe.dropped_events()
    if dropped:
        print(f"warning: trace ring buffers dropped {dropped} events "
              f"(raise capacity via repro.observe.enable)", file=sys.stderr)
    observe.disable()


def _release_pool() -> None:
    """Release persistent rank-pool workers at the end of a CLI run.

    The pool amortizes fork cost across the run's parallel regions; once
    the command is done its workers (and their shm segments) should not
    outlive the visible work.  An ``atexit`` hook would release them anyway
    — this just does it at the natural end of the run."""
    from .diy.process_backend import shutdown_pool

    shutdown_pool()


def tess_main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-tess``; returns a process exit code."""
    args = _build_tess_parser().parse_args(argv)

    from .diy.bounds import Bounds
    from .core import tessellate

    if (args.points is None) == (args.random is None):
        print("error: supply exactly one of POINTS or --random N", file=sys.stderr)
        return 2
    if args.random is not None:
        rng = np.random.default_rng(args.seed)
        box = args.box or 16.0
        points = rng.uniform(0.0, box, size=(args.random, 3))
    else:
        try:
            points = np.load(args.points)
        except OSError as exc:
            print(f"error: cannot read {args.points}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
        except ValueError:  # not .npy, or an object array needing pickle
            print(f"error: {args.points} is not a .npy array", file=sys.stderr)
            return 2
        if (not isinstance(points, np.ndarray) or points.ndim != 2
                or points.shape[1] != 3):
            print(f"error: {args.points} is not an (n, 3) array", file=sys.stderr)
            return 2
        box = args.box or float(np.ceil(points.max() + 1e-9))

    observing = _observe_start(args)
    domain = Bounds.cube(box)
    try:
        tess = tessellate(
            points,
            domain,
            nblocks=args.blocks,
            ghost=args.ghost,
            periodic=not args.no_periodic,
            vmin=args.vmin,
            vmax=args.vmax,
            output_path=args.output,
            nranks=args.ranks,
        )
    except ValueError as exc:
        # tessellate() validates its arguments before any rank starts; a
        # failure inside the parallel region is a ParallelError, not this.
        if observing:
            from . import observe

            observe.disable()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    vols = tess.volumes()
    print(f"points:        {len(points)}")
    print(f"blocks:        {tess.num_blocks}")
    print(f"cells kept:    {tess.num_cells}")
    if tess.num_cells:
        print(f"volume range:  [{vols.min():.6g}, {vols.max():.6g}]")
        print(f"total volume:  {tess.total_volume():.6g} (box {domain.volume:.6g})")
    t = tess.timings
    print(
        f"cpu seconds:   exchange {t.exchange_cpu:.4f}  compute "
        f"{t.compute_cpu:.3f}  output {t.output_cpu:.4f}"
    )
    if args.voids and tess.num_cells:
        from .analysis.voids import find_voids, volume_threshold_for_fraction

        vmin = volume_threshold_for_fraction(tess, args.voids_vmin_fraction)
        catalog = find_voids(tess, vmin=vmin)
        top = ", ".join(f"{v.volume:.4g}" for v in catalog.voids[:3])
        print(f"voids:         {catalog.num_voids} at vmin={catalog.vmin:.6g}"
              + (f" (largest volumes: {top})" if catalog.num_voids else ""))
    if args.output:
        print(f"wrote:         {args.output} ({tess.output_bytes} bytes)")
    if observing:
        _observe_finish(args)
    _release_pool()
    return 0


def _build_sim_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-sim",
        description="Run the N-body simulation with in situ analysis tools.",
    )
    p.add_argument("deck", help="JSON input deck (simulation + tools sections)")
    p.add_argument("--ranks", type=int, default=1, help="rank count")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="write a crash-consistent checkpoint every N steps "
                        "(0 disables checkpointing)")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="checkpoint directory (default: <deck>.ckpts)")
    p.add_argument("--resume", action="store_true",
                   help="restart from the newest valid checkpoint in the "
                        "checkpoint directory, skipping completed analysis")
    p.add_argument("--fault-kill", default=None, metavar="RANK:STEP",
                   help="fault injection: kill RANK when it enters STEP "
                        "(a forked rank exits hard; at --ranks 1 the inline "
                        "rank raises); 0 <= RANK < --ranks, "
                        "1 <= STEP <= the deck's nsteps")
    _add_observe_args(p)
    return p


#: the JSON types a deck may give a simulation field of each annotated type
_DECK_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,)}


def _deck_value_ok(value, annotation: str) -> bool:
    base, _, rest = annotation.partition(" | ")
    if value is None:
        return rest == "None"
    # JSON true/false are not numbers, though Python's bool is an int
    return isinstance(value, _DECK_TYPES.get(base, ())) and (
        isinstance(value, bool) == (base == "bool")
    )


def _read_deck(path: str):
    """The deck's simulation and framework configs, checked in full (tool
    names, parameters and schedules too) so that a bad deck is a usage
    error before any rank starts; raises ``ValueError``."""
    import dataclasses

    from .hacc import SimulationConfig
    from .insitu import CosmologyToolsFramework, FrameworkConfig

    try:
        with open(path) as f:
            deck = json.load(f)
    except OSError as exc:
        raise ValueError(f"cannot read deck {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"deck {path} is not valid JSON: {exc}") from None
    if not isinstance(deck, dict):
        raise ValueError(
            f"deck {path} must be a JSON object, got {type(deck).__name__}"
        )
    sim_spec = deck.get("simulation", {})
    if not isinstance(sim_spec, dict):
        raise ValueError("the deck's 'simulation' section must be an object")
    if not deck.get("tools"):
        raise ValueError("deck has no 'tools' section")
    fields = dataclasses.fields(SimulationConfig)
    extra = set(sim_spec) - {f.name for f in fields}
    if extra:
        raise ValueError(f"unknown simulation keys {sorted(extra)}")
    for f in fields:
        if f.name in sim_spec and not _deck_value_ok(sim_spec[f.name], f.type):
            raise ValueError(
                f"simulation {f.name} must be {f.type}, got {sim_spec[f.name]!r}"
            )
    cfg = SimulationConfig(**sim_spec)
    framework = FrameworkConfig.from_dict({"tools": deck["tools"]})
    CosmologyToolsFramework(framework)  # unknown tools and parameters
    for tc in framework.tools:
        tc.schedule(cfg.nsteps)  # steps outside the run
    return cfg, framework


def _fault_kill(spec: str, ranks: int, nsteps: int) -> tuple[int, int]:
    """``RANK:STEP`` of ``--fault-kill``, checked against the run."""
    try:
        rank_s, step_s = spec.split(":")
        kill_rank, kill_step = int(rank_s), int(step_s)
    except ValueError:
        raise ValueError("--fault-kill expects RANK:STEP") from None
    # An out-of-range kill would never fire and the drill would pass
    # vacuously.
    if not 0 <= kill_rank < ranks:
        raise ValueError(f"--fault-kill rank {kill_rank} is outside "
                         f"[0, {ranks}) for --ranks {ranks}")
    if not 1 <= kill_step <= nsteps:
        raise ValueError(f"--fault-kill step {kill_step} is outside "
                         f"[1, {nsteps}] for a deck of {nsteps} steps")
    return kill_rank, kill_step


def sim_main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-sim``; returns a process exit code."""
    args = _build_sim_parser().parse_args(argv)

    from .insitu import run_simulation_with_tools

    try:
        if args.ranks < 1:
            raise ValueError(f"--ranks must be positive, got {args.ranks}")
        if args.checkpoint_every < 0:
            raise ValueError(
                f"--checkpoint-every must be >= 0, got {args.checkpoint_every}"
            )
        cfg, framework = _read_deck(args.deck)
        kill = (
            None if args.fault_kill is None
            else _fault_kill(args.fault_kill, args.ranks, cfg.nsteps)
        )
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ckpt_dir = args.checkpoint_dir
    if ckpt_dir is None and (args.checkpoint_every > 0 or args.resume):
        ckpt_dir = args.deck + ".ckpts"

    if kill is not None:
        from . import faults

        faults.install(faults.FaultSpec(
            kill_rank=kill[0],
            kill_step=kill[1],
            kill_mode="exit",
        ))

    observing = _observe_start(args)
    print(
        f"simulating {cfg.np_side}^3 particles, {cfg.nsteps} steps, "
        f"{args.ranks} rank(s)..."
    )
    try:
        results = run_simulation_with_tools(
            cfg, framework, nranks=args.ranks,
            checkpoint_dir=ckpt_dir,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
        )
    except Exception as exc:  # noqa: BLE001 - report the crash, exit nonzero
        print(f"error: simulation failed: {exc}", file=sys.stderr)
        if ckpt_dir is not None:
            print(f"rerun with --resume to restart from {ckpt_dir}",
                  file=sys.stderr)
        return 1
    finally:
        if kill is not None:
            from . import faults

            faults.clear()
    if results.resumed_step >= 0:
        print(f"resumed from checkpoint at step {results.resumed_step}")
    for tool, per_step in results.items():
        for step, result in sorted(per_step.items()):
            print(f"[{tool} @ step {step}] {_describe(result)}")
    if observing:
        _observe_finish(args)
    _release_pool()
    return 0


def _describe(result) -> str:
    import numpy as np

    from .analysis.halos import HaloCatalog
    from .analysis.statistics import Histogram
    from .analysis.tracking import MergerTree
    from .analysis.voids import VoidCatalog
    from .core.tessellate import Tessellation

    if isinstance(result, MergerTree):
        counts = result.counts()
        events = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        return (
            f"merger tree: {result.num_tracks} tracks over "
            f"{len(result.steps)} steps ({events or 'no events'})"
        )
    if isinstance(result, np.ndarray):
        finite = result[np.isfinite(result)]
        lo = f"{finite.min():.4g}" if finite.size else "nan"
        hi = f"{finite.max():.4g}" if finite.size else "nan"
        return f"grid {'x'.join(str(s) for s in result.shape)} range [{lo}, {hi}]"
    if isinstance(result, Tessellation):
        return f"{result.num_cells} cells, total volume {result.total_volume():.4g}"
    if isinstance(result, HaloCatalog):
        masses = result.masses()
        top = masses[:3].tolist() if result.num_halos else []
        return f"{result.num_halos} halos, largest {top}"
    if isinstance(result, VoidCatalog):
        line = f"{result.num_voids} voids at vmin={result.vmin:.4g}"
        shapes = [v.minkowski for v in result.voids if v.minkowski is not None]
        if shapes:
            chi = sum(m.euler_characteristic for m in shapes)
            area = sum(m.surface_area for m in shapes)
            line += f", Minkowski chi sum {chi}, S total {area:.4g}"
        return line
    if isinstance(result, Histogram):
        return (
            f"histogram n={result.n_samples} skew={result.skewness:.2f} "
            f"kurt={result.kurtosis:.2f}"
        )
    if isinstance(result, dict):
        return "{" + ", ".join(f"{k}: {_describe(v)}" for k, v in result.items()) + "}"
    return repr(result)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(tess_main())
