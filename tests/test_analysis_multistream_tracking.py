"""Tests for temporal feature tracking: event kinds, tracks, end to end."""

import numpy as np
import pytest

from repro.analysis.components import ComponentLabeling
from repro.analysis.tracking import track_components


class TestFeatureTracking:
    def _labeling(self, groups):
        """groups: list of member-id tuples."""
        site_ids, labels = [], []
        for lbl, members in enumerate(groups):
            for m in members:
                site_ids.append(m)
                labels.append(lbl)
        order = np.argsort(site_ids)
        return ComponentLabeling(
            site_ids=np.asarray(site_ids)[order], labels=np.asarray(labels)[order]
        )

    def test_continuation(self):
        l0 = self._labeling([(1, 2, 3), (10, 11)])
        l1 = self._labeling([(1, 2, 3, 4), (10, 11, 12)])
        tree = track_components({0: l0, 1: l1})
        counts = tree.counts()
        assert counts.get("continuation") == 2
        assert not counts.get("merge") and not counts.get("split")
        assert tree.num_tracks == 2
        assert np.diff(tree.arrays["track_offsets"]).tolist() == [2, 2]

    def test_merge(self):
        l0 = self._labeling([(1, 2), (3, 4)])
        l1 = self._labeling([(1, 2, 3, 4)])
        tree = track_components({0: l0, 1: l1})
        assert tree.counts().get("merge") == 1
        # One track survives the merge; the loser's track ends.
        assert int((tree.arrays["track_steps"] == 1).sum()) == 1

    def test_split(self):
        l0 = self._labeling([(1, 2, 3, 4)])
        l1 = self._labeling([(1, 2), (3, 4)])
        tree = track_components({0: l0, 1: l1})
        assert tree.counts().get("split") == 1
        # Both children exist as tracks at step 1 (one continues the
        # parent, one is freshly started).
        last_rows = tree.arrays["track_offsets"][1:] - 1
        assert int((tree.arrays["track_steps"][last_rows] == 1).sum()) == 2

    def test_birth_and_death(self):
        l0 = self._labeling([(1, 2)])
        l1 = self._labeling([(7, 8)])
        tree = track_components({0: l0, 1: l1})
        counts = tree.counts()
        assert counts.get("birth") == 1
        assert counts.get("death") == 1

    def test_min_overlap_filter(self):
        l0 = self._labeling([(1, 2, 3, 4, 5)])
        l1 = self._labeling([(5, 6, 7, 8)])  # overlap of exactly 1 cell
        strict = track_components({0: l0, 1: l1}, min_overlap=2)
        loose = track_components({0: l0, 1: l1}, min_overlap=1)
        assert strict.counts().get("death") == 1
        assert loose.counts().get("continuation") == 1

    def test_track_sizes_recorded(self):
        l0 = self._labeling([(1, 2, 3)])
        l1 = self._labeling([(1, 2, 3, 4, 5)])
        tree = track_components({0: l0, 1: l1})
        off = tree.arrays["track_offsets"]
        assert tree.arrays["track_sizes"][off[0] : off[1]].tolist() == [3, 5]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            track_components({})

    def test_multi_step_chain(self):
        seq = {
            s: self._labeling([tuple(range(s, s + 5))]) for s in range(4)
        }
        tree = track_components(seq)
        assert tree.num_tracks == 1
        assert tree.arrays["track_offsets"].tolist() == [0, 4]

    def test_void_growth_in_simulation(self):
        """End-to-end: voids tracked across tessellation outputs."""
        from repro.hacc import SimulationConfig
        from repro.insitu import run_simulation_with_tools
        from repro.analysis import connected_components

        cfg = SimulationConfig(np_side=12, nsteps=30, seed=4)
        results = run_simulation_with_tools(
            cfg,
            {"tools": [{"tool": "tessellation", "every": 10,
                        "params": {"ghost": 4.0}}]},
            nranks=2,
        )
        labelings = {}
        for step, tess in results["tessellation"].items():
            v = tess.volumes()
            vmin = float(np.quantile(v, 0.8))
            labelings[step] = connected_components(tess, vmin=vmin)
        tree = track_components(labelings, min_overlap=1)
        assert tree.steps.tolist() == sorted(results["tessellation"])
        assert tree.num_tracks >= 1
        # At least one feature persists across multiple outputs.
        assert np.diff(tree.arrays["track_offsets"]).max() >= 2
