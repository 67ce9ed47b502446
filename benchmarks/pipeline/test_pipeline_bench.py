"""Self-test of the pipeline benchmark (not collected by tier-1):

    PYTHONPATH=src python -m pytest benchmarks/pipeline -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time

import pytest

import benv
import spans
import workloads as wl

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ["insitu_r1", "insitu_r2", "postprocess", "serve_mix"]


@pytest.fixture(scope="module", autouse=True)
def _environment():
    benv.pin()


# ----------------------------------------------------------------------
# BENCHMARK.json + layers.json
# ----------------------------------------------------------------------
def test_benchmark_json_meets_the_contract():
    spec = benv.load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["benchmarks/pipeline"]
    assert spec["command"][-1].startswith(spec["paths"][0] + "/")
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert benv.SPEC_PATH.stat().st_size <= 64 * 1024

    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25
        names.append(m["name"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    assert all(NAME.match(n) for n in names), names
    assert len(set(names)) == len(names), "a name is used twice"

    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS


def test_every_layer_metric_says_what_it_should_move():
    spec, layers = benv.load_spec(), benv.load_layers()
    assert layers["claim"] is None
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    assert set(layers["moves"]) == {m["name"] for m in spec["per_layer"]}
    for name, targets in layers["moves"].items():
        for t in targets:
            assert t["metric"] in end_to_end, (name, t)
            assert t["workload"] in workloads, (name, t)


# ----------------------------------------------------------------------
# spans: self time, percentile rule
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_children():
    rec = spans.Recorder()
    root = rec.add("pass", 0.0, 10.0)
    run = rec.add("run", 1.0, 9.0, parent=root)
    rec.add("tool", 2.0, 5.0, parent=run)
    rec.add("tool", 5.0, 6.0, parent=run)
    selfs = spans.self_times(rec.spans)
    assert selfs == [2.0, 4.0, 3.0, 1.0]
    assert sum(selfs) == pytest.approx(rec.spans[0].duration)
    assert spans.totals_by_name(rec.spans, selfs)["tool"] == 4.0


def test_children_on_other_ranks_overlap_instead_of_adding():
    rec = spans.Recorder()
    run = rec.add("run", 0.0, 10.0)
    rec.add("rank", 0.5, 9.0, rank=0, parent=run)
    rec.add("rank", 0.5, 9.5, rank=1, parent=run)
    selfs = spans.self_times(rec.spans)
    assert selfs[0] == pytest.approx(1.0)  # 10 - the busier rank's 9
    assert spans.totals_by_name(rec.spans)["rank"] == 9.0


def test_context_manager_nests_and_disabled_recorder_records_nothing():
    rec = spans.Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            time.sleep(0.001)
    assert [s.name for s in rec.spans] == ["outer", "inner"]
    assert rec.spans[1].parent == 0 and rec.spans[0].parent is None
    assert rec.spans[0].duration >= rec.spans[1].duration > 0

    off = spans.Recorder(enabled=False)
    with off.span("x"):
        pass
    assert off.add("y", 0.0, 1.0) is None and off.spans == []


def test_percentile_rule_needs_ten_samples_beyond():
    assert spans.highest_percentile(30) is None  # p75 leaves 7.5 beyond
    assert spans.highest_percentile(40) == 75.0
    assert spans.highest_percentile(100) == 90.0
    assert spans.highest_percentile(231) == 95.0
    assert spans.highest_percentile(1000) == 99.0
    assert spans.highest_percentile(10000) == 99.9

    data = [float(i) for i in range(1, 101)]
    assert spans.percentile(data, 50.0) == 50.5
    assert spans.percentile(data, 0.0) == 1.0
    assert spans.percentile(data, 100.0) == 100.0
    summary = spans.summarize(data)
    assert summary["n"] == 100 and summary["tail_q"] == 90.0
    assert summary["tail"] == pytest.approx(90.1)
    assert "tail" not in spans.summarize(data[:20])


# ----------------------------------------------------------------------
# inputs derive from the seed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    a = wl.generated_inputs(workload, wl.FULL, seed=3)
    assert a == wl.generated_inputs(workload, wl.FULL, seed=3)
    assert a != wl.generated_inputs(workload, wl.FULL, seed=4)
    assert wl.inputs_digest(workload, wl.FULL, 3) != wl.inputs_digest(
        workload, wl.FULL, 4
    )
    json.dumps(a)  # the record must be JSON-able as is


def test_serve_mix_streams():
    sizes = wl.FULL.for_serving()
    heavy, light = wl.serve_mix(sizes, seed=3)
    assert [q["step"] for q in heavy] == sizes.steps
    assert all(wl.is_heavy(q) for q in heavy)
    assert len(light) == 11 * len(sizes.steps)
    assert {wl.query_kind(q) for q in heavy + light} == set(wl.QUERY_KINDS)
    assert sorted(map(repr, light)) == sorted(
        map(repr, wl.serve_mix(sizes, seed=3)[1])
    )
    box = float(sizes.np_side)
    for q in light:
        if q["op"] == "profile":  # ball inside the box: no periodic wrap
            assert all(q["rmax"] <= c <= box - q["rmax"] for c in q["center"])


# ----------------------------------------------------------------------
# the whole thing, small
# ----------------------------------------------------------------------
def _run(*argv: str) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, str(benv.HERE / "run.py"), *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return [
        json.loads(line) for line in proc.stdout.splitlines()
        if line.startswith("{")
    ]


def test_smoke_runs_all_four_workloads_under_a_minute():
    spec = benv.load_spec()
    t0 = time.perf_counter()
    results = _run("--smoke", "--seed", "5")
    assert time.perf_counter() - t0 < 60.0
    assert len(results) == len(spec["workloads"])
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for r in results:
        assert set(r) == {"correct", "attempted", "failed", "metrics"}
        assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1
        assert {k: v["unit"] for k, v in r["metrics"].items()} == wanted
        assert all(v["value"] > 0 for v in r["metrics"].values())
    # no scratch directory survives a run
    assert not list(benv.OUT_DIR.glob("work-*"))


def test_same_seed_same_output_digest_and_traced_run_reports_layers():
    def digests() -> tuple[str, dict]:
        with open(benv.OUT_DIR / "result_postprocess_smoke.json") as f:
            record = json.load(f)
        return record["inputs_digest"], record["output_digest"]

    _run("--smoke", "--workload", "postprocess", "--seed", "5")
    first = digests()
    _run("--smoke", "--workload", "postprocess", "--seed", "5")
    assert digests() == first
    _run("--smoke", "--workload", "postprocess", "--seed", "6")
    assert digests()[0] != first[0]

    (traced,) = _run("--smoke", "--workload", "postprocess", "--trace", "1")
    spec = benv.load_spec()
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert traced["metrics"]["analysis.minkowski_s"]["value"] > 0
    assert traced["metrics"]["geometry.engine_probe_s"]["value"] == 0
    with open(benv.OUT_DIR / "trace_postprocess_smoke.json") as f:
        events = json.load(f)["traceEvents"]
    assert {e["name"] for e in events} >= {"pass", "core.read", "analysis.voids"}
    assert (benv.OUT_DIR / "layers_postprocess_smoke.txt").read_text()
