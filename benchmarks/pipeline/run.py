"""The repo's benchmark: one command from initial conditions to answered
queries, end to end and layer by layer.

    python3 benchmarks/pipeline/run.py --workload insitu_r1 --seed 3 \\
        --seconds 15 --trace 0

generates the workload's inputs from the seed, drives it through the
program's user-facing entry points, checks the outputs, prints every
metric by name with its unit, and ends with one JSON line.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
records spans around the calls into each layer, runs the single-layer
probes and reports the per-layer metrics (end-to-end numbers are never
taken from a traced run).  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

import benv


def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names, default=None,
                   help="one workload (default: all four, one after another)")
    p.add_argument("--seed", type=int, default=3,
                   help="every generated input derives from it (default 3)")
    p.add_argument("--seconds", type=float, default=None,
                   help="length of the timed region (default: run_seconds "
                        "of BENCHMARK.json; 1 with --smoke)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: spans + probes, report the per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="8^3 problem and a 1 s region: checks only, the "
                        "numbers mean nothing")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def run_workload(name: str, args, spec: dict, imports_s: float) -> dict:
    """Run one workload in a scratch directory of its own and return the
    result record (also written under ``.bench_out/``)."""
    import workloads as wl

    sizes = wl.SMOKE if args.smoke else wl.FULL
    traced = bool(args.trace)
    workdir = str(benv.OUT_DIR / f"work-{name}-{os.getpid()}")
    os.makedirs(workdir)
    os.environ["TMPDIR"] = workdir  # nothing lands outside the checkout
    try:
        import insitu
        import postprocess
        import serve_mix

        runner = {
            "insitu_r1": lambda *a: insitu.run(1, *a),
            "insitu_r2": lambda *a: insitu.run(2, *a),
            "postprocess": postprocess.run,
            "serve_mix": serve_mix.run,
        }[name]
        out = runner(sizes, args.seed, args.seconds, traced, workdir)
        environment = benv.fingerprint(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.setup.once_s += imports_s

    import harness
    import spans

    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    if traced:
        traced_wall = sum(out.traced_walls) / len(out.traced_walls)
        table = spans.layer_table(out.table, traced_wall)
        out.layers["bench.trace_overhead_pct"] = harness.trace_overhead_pct(out)
        out.layers["bench.accounted_pct"] = (
            100.0 * sum(s for _, s in out.table) / traced_wall
        )
        out.layers["native.available"] = float(environment["native_available"])
        unknown = set(out.layers) - {m["name"] for m in wanted}
        if unknown:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
        # A layer the workload never enters reports 0 (e.g. diy on 1 rank).
        values = {m["name"]: out.layers.get(m["name"], 0.0) for m in wanted}
    else:
        values = harness.end_to_end(out)
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }

    reference = benv.load_layers()["reference_machine"]
    valid = environment["native_available"] == reference["native_available"]
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "inputs_digest": wl.inputs_digest(name, sizes, args.seed),
        "output_digest": out.digest,
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures[:20],
        "metrics": metrics,
        "samples": {
            "passes": len(out.walls),
            "traced_passes": len(out.traced_walls),
            "operations": spans.summarize(out.op_ms),
            "heavy": spans.summarize(out.heavy_ms),
            "setup_once_s": out.setup.once_s,
            "setup_reps_s": out.setup.reps_s,
        },
        "environment": environment,
        # The NumPy fallback of the geometry kernels is ~3x slower and
        # would read as a regression against a native reference.
        "valid": valid,
    }

    report(record, out, traced)
    tag = f"{name}{'_smoke' if args.smoke else ''}"
    if traced:
        spans.write_chrome_trace(
            str(benv.OUT_DIR / f"trace_{tag}.json"), out.spans
        )
        (benv.OUT_DIR / f"layers_{tag}.txt").write_text("\n".join(table) + "\n")
        print("\n".join(table))
    kind = "layers" if traced else "result"
    with open(benv.OUT_DIR / f"{kind}_{tag}.json", "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    return record


def report(record: dict, out, traced: bool) -> None:
    """Every metric by name with its unit, then what was checked."""
    samples = record["samples"]
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"trace={record['trace']}  passes={samples['passes']}"
          + (f"+{samples['traced_passes']} traced" if traced else ""))
    for name, m in record["metrics"].items():
        print(f"{name:<32}{m['value']:>16.6g} {m['unit']}")
    for label in ("operations", "heavy"):
        s = samples[label]
        tail = f", p{s['tail_q']:g} {s['tail']:.3f} ms" if "tail" in s else ""
        print(f"{label}: n={s['n']}, p50 {s['p50']:.3f} ms{tail}")
    print(f"checks: {record['attempted']} operations, "
          f"{record['failed']} failed")
    for message in record["failures"]:
        print(f"  FAILED: {message}", file=sys.stderr)
    if not record["valid"]:
        print("INVALID RUN: native kernels "
              f"{'on' if record['environment']['native_available'] else 'off'}"
              " here but not on the reference machine of layers.json",
              file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    # SIGTERM must unwind through the finally blocks that stop the server
    # subprocess, shut the rank pool down and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = benv.load_spec()
    args = parse_args(argv, spec)
    benv.pin()
    t0 = time.perf_counter()
    import numpy  # noqa: F401 - timed: imports are part of set-up

    import repro  # noqa: F401
    import repro.serve  # noqa: F401

    imports_s = time.perf_counter() - t0

    names = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]
    ]
    for name in names:
        record = run_workload(name, args, spec, imports_s)
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
