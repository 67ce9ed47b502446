"""Tests for the unified tracing & metrics subsystem (repro.observe)."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro import observe
from repro.core.timing import PhaseTimer
from repro.diy.comm import run_parallel
from repro.observe import trace


@pytest.fixture(autouse=True)
def _clean_observe():
    """Every test starts and ends with tracing off and no state."""
    observe.disable()
    observe.reset_all()
    yield
    observe.disable()
    observe.reset_all()


def _validate_chrome(doc: dict, expect_ranks: set[int]) -> list[dict]:
    """Assert ``doc`` is a loadable Chrome trace; returns its "X" spans."""
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    for e in spans:
        for key in ("ph", "ts", "dur", "pid", "tid", "name"):
            assert key in e, f"span missing {key}: {e}"
        assert e["ts"] >= 0
        assert e["dur"] >= 0
    assert {e["pid"] for e in spans} == expect_ranks
    # one process_name metadata record per rank
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert {m["pid"] for m in meta} == expect_ranks
    # globally ordered by start time
    ts = [e["ts"] for e in spans]
    assert ts == sorted(ts)
    return spans


class TestDisabledMode:
    def test_span_is_shared_noop(self):
        s1 = trace.span("a", rank=0)
        s2 = trace.span("b", rank=1, detail=42)
        assert s1 is s2  # the shared no-op: no allocation per call

    def test_records_nothing_and_allocates_no_buffers(self):
        with trace.span("work", rank=0):
            pass
        trace.record("manual", 0, 0.0, 1.0)
        assert trace.num_events() == 0
        assert trace.raw_events() == []
        assert trace._buffers == {}  # no ring buffers exist at all

    def test_exceptions_propagate_through_noop(self):
        with pytest.raises(RuntimeError):
            with trace.span("boom"):
                raise RuntimeError("boom")


class TestEnabledTracing:
    def test_span_records_interval_and_attrs(self):
        observe.enable()
        with trace.span("work", rank=3, cat="test", step=7):
            time.sleep(0.002)
        (ev,) = trace.raw_events()
        assert ev[trace.NAME] == "work"
        assert ev[trace.RANK] == 3
        assert ev[trace.T1] - ev[trace.T0] >= 0.002
        assert ev[trace.CAT] == "test"
        assert ev[trace.ATTRS] == {"step": 7}

    def test_exceptions_still_record_and_propagate(self):
        observe.enable()
        with pytest.raises(ValueError):
            with trace.span("bad"):
                raise ValueError("x")
        assert trace.num_events() == 1

    def test_ring_buffer_caps_and_counts_drops(self):
        observe.enable(capacity=10)
        for i in range(25):
            trace.record(f"e{i}", 0, float(i), float(i) + 0.5)
        assert trace.num_events() == 10
        assert trace.dropped_events() == 15
        names = [ev[trace.NAME] for ev in trace.raw_events()]
        assert names == [f"e{i}" for i in range(15, 25)]  # oldest evicted
        observe.enable(capacity=trace.DEFAULT_CAPACITY)

    def test_reset_drops_everything(self):
        observe.enable()
        trace.record("e", 0, 0.0, 1.0)
        trace.reset()
        assert trace.num_events() == 0


class TestChromeExport:
    def test_empty_trace_is_valid(self):
        doc = observe.chrome_trace()
        assert doc["traceEvents"] == []

    def test_export_shape_and_normalization(self):
        observe.enable()
        trace.record("a", 0, 100.0, 100.5, cpu=0.25, cat="c1")
        trace.record("b", 1, 100.25, 100.75, attrs={"k": "v"})
        spans = _validate_chrome(observe.chrome_trace(), {0, 1})
        a = next(e for e in spans if e["name"] == "a")
        b = next(e for e in spans if e["name"] == "b")
        assert a["ts"] == 0.0  # normalized to the earliest span
        assert a["dur"] == pytest.approx(0.5e6)
        assert a["args"]["cpu_ms"] == pytest.approx(250.0)
        assert b["ts"] == pytest.approx(0.25e6)
        assert b["args"]["k"] == "v"

    def test_write_chrome_trace_round_trips(self, tmp_path):
        observe.enable()
        trace.record("a", 0, 0.0, 1.0)
        path = tmp_path / "trace.json"
        assert observe.write_chrome_trace(str(path)) == 1
        doc = json.loads(path.read_text())
        _validate_chrome(doc, {0})


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = observe.registry()
        reg.counter("c", rank=0).inc(3)
        reg.counter("c", rank=0).inc()
        reg.gauge("g").set_max(5)
        reg.gauge("g").set_max(2)  # high-water keeps 5
        h = reg.histogram("h")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        snap = reg.as_dict()
        assert snap["counters"]["c{rank=0}"] == 4
        assert snap["gauges"]["g"] == 5
        assert snap["histograms"]["h"]["count"] == 3
        assert snap["histograms"]["h"]["mean"] == pytest.approx(2.0)
        assert snap["histograms"]["h"]["max"] == 3.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            observe.registry().counter("c").inc(-1)

    def test_kind_mismatch_raises(self):
        reg = observe.registry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_merge_dict_rules(self):
        reg = observe.registry()
        reg.counter("c").inc(1)
        reg.gauge("g").set(10)
        reg.histogram("h").observe(5.0)
        other = {
            "counters": {"c": 2},
            "gauges": {"g": 7, "g2": 3},
            "histograms": {"h": {"count": 2, "total": 8.0, "min": 1.0, "max": 7.0}},
        }
        reg.merge_dict(other)
        snap = reg.as_dict()
        assert snap["counters"]["c"] == 3  # counters add
        assert snap["gauges"]["g"] == 10  # gauges take the max
        assert snap["gauges"]["g2"] == 3
        assert snap["histograms"]["h"]["count"] == 3
        assert snap["histograms"]["h"]["min"] == 1.0
        assert snap["histograms"]["h"]["max"] == 7.0

    def test_peak_rss_is_positive(self):
        assert observe.peak_rss_bytes() > 1024 * 1024  # at least 1 MB

    def test_reservoir_percentiles(self):
        reg = observe.registry()
        res = reg.reservoir("lat")
        for v in range(1, 101):  # 1..100
            res.observe(float(v))
        assert res.count == 100
        assert res.percentile(50) == pytest.approx(50.5)
        assert res.percentile(99) == pytest.approx(99.01, abs=0.5)
        assert res.percentile(0) == 1.0
        assert res.percentile(100) == 100.0
        snap = reg.as_dict()
        assert snap["reservoirs"]["lat"]["count"] == 100
        assert snap["reservoirs"]["lat"]["p50"] == pytest.approx(50.5)

    def test_reservoir_window_bounds_memory(self):
        class SmallReservoir(observe.QuantileReservoir):
            capacity = 10

        res = SmallReservoir()
        for v in range(1000):
            res.observe(float(v))
        assert res.count == 1000  # lifetime count survives the window
        assert len(res.samples) == 10
        assert res.percentile(0) == 990.0  # window holds the newest only

    def test_reservoir_merge_concatenates_samples(self):
        reg = observe.registry()
        reg.reservoir("lat").observe(1.0)
        other = {
            "reservoirs": {
                "lat": {"count": 2, "samples": [3.0, 5.0]},
            },
        }
        reg.merge_dict(other)
        res = reg.reservoir("lat")
        assert res.count == 3
        assert sorted(res.samples) == [1.0, 3.0, 5.0]


class TestPhaseTimerReentrancy:
    def test_nested_same_phase_not_double_counted(self):
        timer = PhaseTimer()
        with timer.phase("p"):
            with timer.phase("p"):  # re-entry: must not double-count
                time.sleep(0.02)
        assert timer.wall("p") == pytest.approx(0.02, abs=0.015)
        # the regression: pre-fix this accumulated ~2x the sleep
        assert timer.wall("p") < 0.04

    def test_sequential_entries_still_accumulate(self):
        timer = PhaseTimer()
        for _ in range(2):
            with timer.phase("p"):
                time.sleep(0.01)
        assert timer.wall("p") >= 0.02

    def test_reentrant_exception_unwinds_depth(self):
        timer = PhaseTimer()
        with pytest.raises(RuntimeError):
            with timer.phase("p"):
                with timer.phase("p"):
                    raise RuntimeError
        with timer.phase("p"):
            pass
        assert timer.wall("p") > 0  # outermost entries still accumulate

    def test_rank_timer_emits_spans_when_enabled(self):
        observe.enable()
        timer = PhaseTimer(rank=2)
        with timer.phase("compute"):
            pass
        (ev,) = trace.raw_events()
        assert ev[trace.NAME] == "compute"
        assert ev[trace.RANK] == 2
        assert ev[trace.CAT] == "phase"


def _span_worker(comm):
    with trace.span("unit", rank=comm.rank, cat="test", size=comm.size):
        time.sleep(0.001 * (comm.rank + 1))
    return comm.rank


class TestCrossRankMerge:
    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_span_round_trip(self, nranks):
        observe.enable()
        results = run_parallel(nranks, _span_worker)
        assert results == list(range(nranks))
        events = [ev for ev in trace.raw_events() if ev[trace.NAME] == "unit"]
        assert {ev[trace.RANK] for ev in events} == set(range(nranks))
        spans = _validate_chrome(observe.chrome_trace(), set(range(nranks)))
        assert len([e for e in spans if e["name"] == "unit"]) == nranks
        # rank_finished ran on every rank: comm metrics + memory gauges
        gauges = observe.registry().as_dict()["gauges"]
        for rank in range(nranks):
            assert gauges[f"mem.peak_rss_bytes{{rank={rank}}}"] > 0

    def test_disabled_run_records_nothing(self):
        results = run_parallel(2, _span_worker)
        assert results == [0, 1]
        assert trace.num_events() == 0
        assert len(observe.registry()) == 0


def _tess_worker(comm, npoints=300):
    from repro.core.tessellate import tessellate_distributed
    from repro.diy.bounds import Bounds
    from repro.diy.decomposition import Decomposition

    domain = Bounds.cube(8.0)
    decomp = Decomposition.regular(domain, comm.size, periodic=True)
    rng = np.random.default_rng(9)
    pts = rng.uniform(0.0, 8.0, size=(npoints, 3))
    ids = np.arange(npoints, dtype=np.int64)
    mine = decomp.locate(pts) == comm.rank
    _, timings, _ = tessellate_distributed(
        comm, decomp, pts[mine], ids[mine], ghost=2.5
    )
    return timings


def _gather_worker(comm):
    # one payload well above the 32 KiB shared-memory transport threshold
    arr = np.full(50_000, float(comm.rank))
    gathered = comm.gather(arr, root=0)
    return len(gathered) if comm.rank == 0 else 0


class TestFullRunTracing:
    def test_tessellation_phases_traced(self):
        observe.enable()
        run_parallel(2, _tess_worker)
        names = {ev[trace.NAME] for ev in trace.raw_events()}
        assert {"exchange", "compute", "output"} <= names
        crit = observe.phase_criticals()
        assert crit["compute"] > 0
        # tess histograms absorbed per rank
        hists = observe.registry().as_dict()["histograms"]
        assert hists["tess.compute_s{rank=0}"]["count"] == 1
        assert hists["tess.compute_s{rank=1}"]["count"] == 1

    def test_simulation_acceptance_spans(self, tmp_path):
        from repro.hacc import SimulationConfig
        from repro.insitu import run_simulation_with_tools

        observe.enable()
        cfg = SimulationConfig(np_side=8, nsteps=4, seed=1)
        spec = {"tools": [
            {"tool": "tessellation", "every": 2, "params": {"ghost": 2.0}},
        ]}
        run_simulation_with_tools(
            cfg, spec, nranks=2,
            checkpoint_dir=str(tmp_path), checkpoint_every=2,
        )
        names = {ev[trace.NAME] for ev in trace.raw_events()}
        required = {
            "step", "exchange", "compute", "output",
            "insitu-tool", "checkpoint",
        }
        assert required <= names, f"missing spans: {required - names}"
        _validate_chrome(observe.chrome_trace(), {0, 1})
        counters = observe.registry().as_dict()["counters"]
        assert counters["ckpt.written{rank=0}"] >= 1

    def test_shm_send_events_on_process_backend(self):
        observe.enable()
        run_parallel(2, _gather_worker)
        shm = [ev for ev in trace.raw_events() if ev[trace.NAME] == "shm-send"]
        assert shm, "expected shm-send spans between forked ranks"
        assert all(ev[trace.ATTRS]["bytes"] > 0 for ev in shm)


class TestCLI:
    def test_sim_trace_and_metrics_flags(self, tmp_path):
        from repro.cli import sim_main

        deck = tmp_path / "deck.json"
        deck.write_text(json.dumps({
            "simulation": {"np_side": 8, "nsteps": 2, "seed": 1},
            "tools": [{"tool": "statistics", "every": 2}],
        }))
        trace_out = tmp_path / "trace.json"
        metrics_out = tmp_path / "metrics.json"
        rc = sim_main([
            str(deck), "--ranks", "2",
            "--trace", str(trace_out), "--metrics", str(metrics_out),
        ])
        assert rc == 0
        doc = json.loads(trace_out.read_text())
        spans = _validate_chrome(doc, {0, 1})
        assert {"step", "insitu-tool"} <= {e["name"] for e in spans}
        report = json.loads(metrics_out.read_text())
        assert report["trace"]["events"] > 0
        assert report["phase_max_s"]["step"] > 0
        # the CLI disables tracing after the run
        assert not observe.enabled()

    def test_tess_trace_flag(self, tmp_path):
        from repro.cli import tess_main

        trace_out = tmp_path / "trace.json"
        rc = tess_main([
            "--random", "200", "--blocks", "2",
            "--trace", str(trace_out),
        ])
        assert rc == 0
        spans = _validate_chrome(json.loads(trace_out.read_text()), {0, 1})
        assert {"exchange", "compute", "output"} <= {e["name"] for e in spans}
