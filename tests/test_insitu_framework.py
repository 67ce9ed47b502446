"""Tests for the in situ framework: config parsing, scheduling, tools."""

import pytest

from repro.hacc import SimulationConfig
from repro.insitu import (
    TOOL_REGISTRY,
    CosmologyToolsFramework,
    FrameworkConfig,
    ToolConfig,
    run_simulation_with_tools,
)
from repro.insitu.tools import AnalysisTool


# Registered when pytest imports this module, before any test forks rank
# processes: a registration made inside a test would reach only the
# calling process, not the pool's ranks forked before it.
@CosmologyToolsFramework.register
class _CountTool(AnalysisTool):
    name = "particle_count"

    def run(self, sim, step, a, comm, context=None):
        return comm.allreduce(len(sim.local))


class TestToolConfig:
    def test_explicit_steps(self):
        tc = ToolConfig(tool="tessellation", steps=(5, 10))
        assert tc.schedule(20) == [5, 10, 20]  # final included by default

    def test_every(self):
        tc = ToolConfig(tool="x", every=10, include_final=False)
        assert tc.schedule(35) == [10, 20, 30]

    def test_every_with_final(self):
        tc = ToolConfig(tool="x", every=10)
        assert tc.schedule(35) == [10, 20, 30, 35]

    def test_final_only(self):
        tc = ToolConfig(tool="x")
        assert tc.schedule(7) == [7]

    def test_step_zero_is_initial_conditions(self):
        tc = ToolConfig(tool="x", steps=(0,), include_final=False)
        assert tc.schedule(5) == [0]

    def test_invalid(self):
        with pytest.raises(ValueError):
            ToolConfig(tool="")
        with pytest.raises(ValueError):
            ToolConfig(tool="x", every=0)
        with pytest.raises(ValueError):
            ToolConfig(tool="x", steps=(99,)).schedule(10)


class TestFrameworkConfig:
    def test_from_dict(self):
        fc = FrameworkConfig.from_dict(
            {"tools": [
                {"tool": "tessellation", "every": 5, "params": {"ghost": 3.0}},
                {"tool": "statistics"},
            ]}
        )
        assert len(fc.tools) == 2
        assert fc.tools[0].params == {"ghost": 3.0}

    def test_duplicate_tools_rejected(self):
        with pytest.raises(ValueError):
            FrameworkConfig.from_dict(
                {"tools": [{"tool": "statistics"}, {"tool": "statistics"}]}
            )

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            FrameworkConfig.from_dict({"tools": [{"tool": "x", "cadence": 3}]})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FrameworkConfig.from_dict({"tools": []})
        with pytest.raises(ValueError):
            FrameworkConfig.from_dict({})


class TestFramework:
    def test_unknown_tool_name(self):
        fc = FrameworkConfig(tools=(ToolConfig(tool="not_a_tool"),))
        with pytest.raises(ValueError, match="unknown tool"):
            CosmologyToolsFramework(fc)

    @pytest.mark.parametrize("key", ("backend", "backnd"))
    def test_unknown_tool_parameter(self, key):
        # a stale deck (the geometry ``backend`` knob is gone) or a typo:
        # a ValueError naming tool, key and what is accepted — not the
        # bare TypeError of the tool's constructor
        fc = FrameworkConfig.from_dict(
            {"tools": [{"tool": "tessellation", "params": {key: "qhull"}}]}
        )
        with pytest.raises(ValueError) as err:
            CosmologyToolsFramework(fc)
        message = str(err.value)
        assert "'tessellation'" in message and repr(key) in message
        for accepted in ("ghost", "vmin", "vmax", "output_pattern"):
            assert accepted in message

    def test_stale_tracking_kernel_parameter(self):
        # the overlap ``kernel`` knob is gone: tracking runs one kernel
        fc = FrameworkConfig.from_dict(
            {"tools": [{"tool": "tracking", "params": {"kernel": "dict"}}]}
        )
        with pytest.raises(ValueError) as err:
            CosmologyToolsFramework(fc)
        message = str(err.value)
        assert "'tracking'" in message and "['kernel']" in message
        for accepted in ("min_overlap", "state_dir", "vmin_quantile"):
            assert accepted in message

    def test_custom_tool_taking_any_keyword_is_not_second_guessed(self):
        class Anything(AnalysisTool):
            name = "anything"

            def __init__(self, **params):
                self.params = params

        fc = FrameworkConfig(tools=(ToolConfig(tool="anything", params={"x": 1}),))
        fw = CosmologyToolsFramework(fc, registry={"anything": Anything})
        assert fw.tools[0].params == {"x": 1}

    def test_serial_run_collects_results(self):
        cfg = SimulationConfig(np_side=8, nsteps=6, seed=1)
        results = run_simulation_with_tools(
            cfg,
            {"tools": [
                {"tool": "tessellation", "steps": [3], "params": {"ghost": 3.5}},
                {"tool": "statistics", "every": 2, "include_final": False},
            ]},
        )
        assert sorted(results["tessellation"]) == [3, 6]
        assert sorted(results["statistics"]) == [2, 4, 6]
        tess = results["tessellation"][6]
        assert tess.num_cells == 512
        assert tess.total_volume() == pytest.approx(8.0**3, rel=1e-6)

    def test_parallel_matches_serial_tessellation(self):
        cfg = SimulationConfig(np_side=8, nsteps=4, seed=2)
        spec = {"tools": [{"tool": "tessellation", "params": {"ghost": 3.5}}]}
        serial = run_simulation_with_tools(cfg, spec, nranks=1)
        par = run_simulation_with_tools(cfg, spec, nranks=4)
        t_s = serial["tessellation"][4]
        t_p = par["tessellation"][4]
        assert t_p.num_cells == t_s.num_cells
        vs = dict(zip(t_s.site_ids().tolist(), t_s.volumes().tolist()))
        vp = dict(zip(t_p.site_ids().tolist(), t_p.volumes().tolist()))
        for sid, v in vs.items():
            assert vp[sid] == pytest.approx(v, rel=1e-6)

    def test_simulation_seconds_aggregated(self):
        """The driver reports max-over-ranks simulation stepping time and
        still behaves like the plain results mapping."""
        from repro.insitu import InsituResults

        cfg = SimulationConfig(np_side=8, nsteps=3, seed=9)
        spec = {"tools": [{"tool": "statistics", "steps": [3]}]}
        results = run_simulation_with_tools(cfg, spec, nranks=2)
        assert isinstance(results, InsituResults)
        assert results.simulation_seconds > 0
        assert "statistics" in results
        assert sorted(results) == ["statistics"]
        assert len(results) == 1
        assert 3 in results["statistics"]

    def test_halo_tool_runs(self):
        cfg = SimulationConfig(np_side=12, nsteps=15, seed=3)
        results = run_simulation_with_tools(
            cfg,
            {"tools": [{"tool": "halo_finder",
                        "params": {"linking_length": 0.25, "min_members": 8}}]},
            nranks=2,
        )
        cat = results["halo_finder"][15]
        assert cat.num_halos >= 1  # structure has formed by z=0

    def test_custom_tool_registration(self):
        assert TOOL_REGISTRY["particle_count"] is _CountTool
        cfg = SimulationConfig(np_side=8, nsteps=2, seed=4)
        results = run_simulation_with_tools(
            cfg, {"tools": [{"tool": "particle_count"}]}, nranks=2
        )
        assert results["particle_count"][2] == 512

    def test_tess_output_written_in_situ(self, tmp_path):
        from repro.core import read_tessellation

        pattern = str(tmp_path / "step{step}.tess")
        cfg = SimulationConfig(np_side=8, nsteps=4, seed=5)
        results = run_simulation_with_tools(
            cfg,
            {"tools": [{"tool": "tessellation",
                        "steps": [2],
                        "params": {"ghost": 3.5, "output_pattern": pattern}}]},
            nranks=2,
        )
        for step in (2, 4):
            ondisk = read_tessellation(str(tmp_path / f"step{step}.tess"))
            assert ondisk.num_cells == results["tessellation"][step].num_cells

    def test_checkpointed_run_and_resume_skip_done_steps(self, tmp_path):
        """A checkpointed framework run resumes from the newest checkpoint
        and does not re-fire tools for already-analyzed steps."""
        ckpt = str(tmp_path / "ckpts")
        cfg = SimulationConfig(np_side=8, nsteps=4, seed=6)
        spec = {"tools": [{"tool": "statistics", "every": 1}]}

        first = run_simulation_with_tools(
            cfg, spec, nranks=2, checkpoint_dir=ckpt, checkpoint_every=2
        )
        assert first.resumed_step == -1
        assert sorted(first["statistics"]) == [1, 2, 3, 4]

        resumed = run_simulation_with_tools(
            cfg, spec, nranks=2, checkpoint_dir=ckpt, checkpoint_every=2,
            resume=True,
        )
        assert resumed.resumed_step == 4  # final-step checkpoint
        assert sorted(resumed["statistics"]) == []  # nothing left to analyze
