"""CI perf-regression gate over the tracked benchmark metrics.

Collects the machine-readable outputs of the backend-scaling sweep
(:mod:`benchmarks.bench_backend_scaling`), the serving-path bench
(:mod:`benchmarks.bench_serve`), and the trace-overhead bench
(:mod:`benchmarks.bench_trace_overhead`) plus the process peak RSS into a
flat ``{metric: value}`` dict, writes it to ``BENCH_pr.json``, and — with
``--check`` — compares it against the committed baseline
(``benchmarks/results/baseline.json``):

* **relative gate** — a tracked metric regressing more than 25% (default;
  per-metric override via the baseline's ``"thresholds"``) over its
  baseline value fails the gate.  Tiny baselines sit below a per-unit
  noise floor and are skipped — sub-millisecond phases flap wildly on
  shared CI runners.
* **absolute limits** — the baseline's ``"limits"`` map caps metrics
  outright regardless of history; the tracing contract's "<5% overhead
  when enabled" lives here.

The baseline is **machine-specific** (absolute seconds on a laptop and a
CI runner differ wildly).  Refresh it with ``make update-baseline``
whenever the benchmark workload changes or CI moves to different
hardware; see DESIGN.md section 8.

Usage::

    python benchmarks/perf_gate.py --quick --out BENCH_pr.json \
        --check benchmarks/results/baseline.json
    python benchmarks/perf_gate.py --quick --update-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results", "baseline.json"
)

DEFAULT_THRESHOLD = 0.25
#: absolute caps applied on every check, independent of baseline history
DEFAULT_LIMITS = {
    "trace.overhead_pct": 5.0,
    # strong scaling must not invert: 4 process ranks must beat 1 on the
    # critical-path wall (max per-rank CPU + runtime overhead) — the
    # persistent rank pool and O(log P) tree collectives keep overhead
    # below the per-rank work saved by splitting the domain
    "scaling.process.r4_over_r1": 1.0,
    # tessellation service (PR 9 acceptance bars): client-side p99 latency
    # under concurrent load must stay bounded cold (first touch faults every
    # block through mmap+CRC+decode) and warm (pure queueing + kernel time),
    # the negated warm throughput turns the max-cap into a min-QPS bar, and
    # no request may fail (503 shedding is retried, not an error)
    "serve.cold_p99_ms": 8000.0,
    "serve.warm_p99_ms": 5000.0,
    "serve.qps_neg": -5.0,
    "serve.errors": 0.0,
}
#: per-metric relative thresholds seeded into a fresh baseline — these
#: metrics jitter well beyond 25% between identical runs on a shared box
BASELINE_THRESHOLDS = {
    "trace.disabled_span_ns": 1.0,
    "mem.peak_rss_bytes": 0.5,
    # client-side latency quantiles on a loaded shared runner jitter far
    # beyond the default; the absolute serve.* limits carry the contract
    "serve.cold_p50_ms": 2.0,
    "serve.warm_p50_ms": 2.0,
}
#: baselines smaller than the floor for their unit are too noisy to gate
NOISE_FLOORS = (
    ("_ns", 100.0),
    ("_pct", 1.0),
    ("_ms", 5.0),
    ("_s", 0.02),
    ("bytes", 4096.0),
)


def _noise_floor(metric: str) -> float:
    for suffix, floor in NOISE_FLOORS:
        if metric.endswith(suffix) or suffix in metric.rsplit(".", 1)[-1]:
            return floor
    return 0.0


def collect(quick: bool = True) -> dict[str, float]:
    """Run the tracked benches; return the flat metrics dict."""
    from bench_backend_scaling import run_sweep
    from bench_serve import run_bench as run_serve_bench
    from bench_trace_overhead import run_bench

    from repro.observe import peak_rss_bytes

    metrics: dict[str, float] = {}

    _, scaling = run_sweep(quick=quick)
    for run in scaling["runs"]:
        key = f"scaling.process.r{run['ranks']}"
        metrics[f"{key}.wall_s"] = run["wall_s"]
        metrics[f"{key}.crit_wall_s"] = run["crit_wall_s"]
        metrics[f"{key}.bytes_sent"] = float(run["bytes_sent"])
        for phase, seconds in run["phase_max_s"].items():
            metrics[f"{key}.{phase}_max_s"] = seconds
    metrics["scaling.process.shm_bytes_sent"] = float(
        max(r["shm_bytes_sent"] for r in scaling["runs"])
    )
    # strong-scaling headline (absolute-capped below 1.0 in DEFAULT_LIMITS)
    metrics["scaling.process.r4_over_r1"] = scaling["r4_over_r1"]

    _, serve = run_serve_bench(quick=quick)
    metrics["serve.cold_p50_ms"] = serve["cold_p50_ms"]
    metrics["serve.cold_p99_ms"] = serve["cold_p99_ms"]
    metrics["serve.warm_p50_ms"] = serve["warm_p50_ms"]
    metrics["serve.warm_p99_ms"] = serve["warm_p99_ms"]
    metrics["serve.qps_neg"] = -serve["warm_qps"]
    metrics["serve.errors"] = serve["errors"]

    _, overhead = run_bench(quick=quick)
    metrics["trace.overhead_pct"] = overhead["overhead_pct"]
    metrics["trace.disabled_span_ns"] = overhead["disabled_span_ns"]
    metrics["trace.wall_off_s"] = overhead["wall_off_s"]
    metrics["trace.wall_on_s"] = overhead["wall_on_s"]

    metrics["mem.peak_rss_bytes"] = float(peak_rss_bytes())
    return metrics


def check(
    metrics: dict[str, float], baseline: dict
) -> tuple[list[str], list[str]]:
    """Gate ``metrics`` against ``baseline``; returns (failures, notes)."""
    base_metrics = baseline.get("metrics", {})
    thresholds = baseline.get("thresholds", {})
    limits = {**DEFAULT_LIMITS, **baseline.get("limits", {})}
    failures: list[str] = []
    notes: list[str] = []

    for metric, limit in limits.items():
        value = metrics.get(metric)
        if value is None:
            continue
        if value > limit:
            failures.append(
                f"{metric} = {value:.4g} exceeds absolute limit {limit:.4g}"
            )
        else:
            notes.append(f"{metric} = {value:.4g} within limit {limit:.4g}")

    for metric, base in base_metrics.items():
        value = metrics.get(metric)
        if value is None:
            notes.append(f"{metric}: missing from this run (skipped)")
            continue
        if metric in limits:
            continue  # absolute-capped metrics are not relative-gated
        floor = _noise_floor(metric)
        if abs(base) < floor:
            notes.append(
                f"{metric}: baseline {base:.4g} below noise floor "
                f"{floor:.4g} (skipped)"
            )
            continue
        threshold = thresholds.get(metric, DEFAULT_THRESHOLD)
        ratio = (value - base) / abs(base)
        if ratio > threshold:
            failures.append(
                f"{metric} = {value:.4g} regressed {ratio * 100:+.1f}% over "
                f"baseline {base:.4g} (threshold {threshold * 100:.0f}%)"
            )
        else:
            notes.append(
                f"{metric} = {value:.4g} vs baseline {base:.4g} "
                f"({ratio * 100:+.1f}%)"
            )
    return failures, notes


def summary_table(
    metrics: dict[str, float], baseline: dict
) -> list[tuple[str, str, str, str, str]]:
    """Per-key ``(metric, old, new, ratio, flag)`` rows for the run summary.

    Covers the union of baseline and current metrics so both vanished and
    newly added keys are visible.  ``ratio`` is new/old (blank when either
    side is missing or the baseline is ~0); ``flag`` marks absolute-capped
    metrics and missing sides.
    """
    base_metrics = baseline.get("metrics", {})
    limits = {**DEFAULT_LIMITS, **baseline.get("limits", {})}
    rows: list[tuple[str, str, str, str, str]] = []
    for metric in sorted(set(base_metrics) | set(metrics)):
        old = base_metrics.get(metric)
        new = metrics.get(metric)
        old_s = f"{old:.4g}" if old is not None else "-"
        new_s = f"{new:.4g}" if new is not None else "-"
        if old is None:
            ratio_s, flag = "", "new"
        elif new is None:
            ratio_s, flag = "", "gone"
        elif abs(old) < 1e-12:
            ratio_s, flag = "", ""
        else:
            ratio_s = f"{new / old:.3f}"
            flag = f"limit {limits[metric]:.4g}" if metric in limits else ""
        rows.append((metric, old_s, new_s, ratio_s, flag))
    return rows


def print_summary(rows, failures: list[str]) -> None:
    """Render the old/new/ratio table to the log and, when running under
    GitHub Actions, as a markdown table in ``$GITHUB_STEP_SUMMARY``."""
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(("metric", "old", "new", "ratio", ""))
    ]
    print("\nperf summary (old = baseline, new = this run):")
    for row in rows:
        print(
            f"  {row[0]:<{widths[0]}}  {row[1]:>{widths[1]}}  "
            f"{row[2]:>{widths[2]}}  {row[3]:>{widths[3]}}  {row[4]}"
        )
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if not step_summary:
        return
    md = ["## Perf gate", "", "| metric | old | new | ratio | |",
          "| --- | ---: | ---: | ---: | --- |"]
    md += [f"| `{m}` | {o} | {n} | {r} | {f} |" for m, o, n, r, f in rows]
    if failures:
        md += ["", f"**FAILED** — {len(failures)} regression(s):", ""]
        md += [f"- {failure}" for failure in failures]
    else:
        md += ["", "Gate passed."]
    with open(step_summary, "a") as f:
        f.write("\n".join(md) + "\n")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--quick", action="store_true",
                   help="quick benchmark mode (what CI runs)")
    p.add_argument("--out", default="BENCH_pr.json", metavar="FILE",
                   help="where to write this run's metrics (default: "
                        "BENCH_pr.json)")
    p.add_argument("--check", default=None, metavar="BASELINE",
                   help="gate against a committed baseline JSON; exit 1 on "
                        "any regression beyond its thresholds")
    p.add_argument("--update-baseline", action="store_true",
                   help=f"write the collected metrics to {BASELINE_PATH} "
                        "(run on the machine CI uses; see DESIGN.md §8)")
    args = p.parse_args(argv)

    metrics = collect(quick=args.quick)
    payload = {"quick": args.quick, "metrics": metrics}
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    print(f"wrote {args.out} ({len(metrics)} metrics)")

    if args.update_baseline:
        baseline = {
            "quick": args.quick,
            "metrics": metrics,
            "thresholds": dict(BASELINE_THRESHOLDS),
            "limits": DEFAULT_LIMITS,
        }
        os.makedirs(os.path.dirname(BASELINE_PATH), exist_ok=True)
        with open(BASELINE_PATH, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
        print(f"updated baseline {BASELINE_PATH}")

    if args.check is not None:
        with open(args.check) as f:
            baseline = json.load(f)
        if baseline.get("quick") != args.quick:
            print(
                "warning: baseline quick mode "
                f"({baseline.get('quick')}) differs from this run "
                f"({args.quick}); comparison may be meaningless",
                file=sys.stderr,
            )
        failures, notes = check(metrics, baseline)
        for note in notes:
            print(f"  ok: {note}")
        print_summary(summary_table(metrics, baseline), failures)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            print(
                f"\nperf gate FAILED ({len(failures)} regression(s)). "
                "If intentional, refresh the baseline with "
                "'make update-baseline' and commit it.",
                file=sys.stderr,
            )
            return 1
        print(f"perf gate passed ({len(notes)} metrics checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
