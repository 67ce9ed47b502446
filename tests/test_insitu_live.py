"""Tests for the Catalyst-style live subscription mode."""

import pytest

from repro.hacc import SimulationConfig
from repro.insitu import CosmologyToolsFramework, FrameworkConfig, ToolConfig


def framework(**tool_kwargs):
    return CosmologyToolsFramework(
        FrameworkConfig(
            tools=(ToolConfig(tool="statistics", every=2,
                              include_final=False, **tool_kwargs),)
        )
    )


class TestLiveSubscription:
    def test_callbacks_fire_per_step(self):
        fw = framework()
        seen = []
        fw.subscribe("statistics", lambda step, a, result: seen.append(step))
        fw.run(SimulationConfig(np_side=8, nsteps=6, seed=1))
        assert seen == [2, 4, 6]
        assert sorted(fw.results["statistics"]) == seen

    def test_callback_receives_live_result(self):
        fw = framework()
        payloads = {}

        def consumer(step, a, result):
            payloads[step] = (a, result)

        fw.subscribe("statistics", consumer)
        fw.run(SimulationConfig(np_side=8, nsteps=4, seed=2))
        for step, (a, hist) in payloads.items():
            assert hist is fw.results["statistics"][step]
            assert 0 < a <= 1.0

    def test_multiple_subscribers(self):
        fw = framework()
        a_calls, b_calls = [], []
        fw.subscribe("statistics", lambda s, a, r: a_calls.append(s))
        fw.subscribe("statistics", lambda s, a, r: b_calls.append(s))
        fw.run(SimulationConfig(np_side=8, nsteps=2, seed=3))
        assert a_calls == b_calls == [2]

    def test_unknown_tool_rejected(self):
        fw = framework()
        with pytest.raises(ValueError, match="unknown tool"):
            fw.subscribe("paraview", lambda s, a, r: None)

    def test_live_rendering_pipeline(self, tmp_path):
        """End-to-end: a subscriber writes a PGM slice per tessellation —
        the paper's run-time-visualization loop in miniature."""
        from repro.analysis.render import slice_field, write_pgm

        fw = CosmologyToolsFramework(
            FrameworkConfig(
                tools=(ToolConfig(tool="tessellation", every=3,
                                  include_final=False,
                                  params={"ghost": 3.5}),)
            )
        )
        written = []

        def render(step, a, handle):
            # The 1-rank run's handle holds the whole mesh in its block.
            tess = handle.join_blocks([handle.block])
            path = str(tmp_path / f"slice_{step}.pgm")
            write_pgm(path, slice_field(tess, resolution=16))
            written.append(path)

        fw.subscribe("tessellation", render)
        fw.run(SimulationConfig(np_side=8, nsteps=6, seed=4))
        assert len(written) == 2
        for path in written:
            assert open(path, "rb").read(2) == b"P5"
