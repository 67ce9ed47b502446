"""Merger trees and tracking state at the file boundary.

Compatibility: ``tests/data/`` holds three files written by the object-based
tracking code at commit 7f89b70, from :func:`fixture_sequence` (numpy
``default_rng(36)``, steps 0, 2, ..., 10, ``min_overlap=2``, with
per-label volumes):

* ``tracking_state_mid.npz`` — ``FeatureTreeBuilder.state()`` after step 4;
* ``tracking_state_full.npz`` — ``state()`` after step 10;
* ``merger_tree.npz`` — ``MergerTree.from_tree(builder.tree()).save(...)``
  after step 10.

They were made by pushing :func:`fixture_sequence` into a builder and
saving with ``np.savez`` / ``MergerTree.save``; the current code must
restore, resume and load them bit for bit.

Validation: ``MergerTree.load`` and ``FeatureTreeBuilder.from_state``
share one array check, and every malformed input is refused with a
``ValueError`` naming the file and the array.
"""

import json
import pathlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.components import ComponentLabeling
from repro.analysis.tracking import FeatureTreeBuilder, MergerTree
from repro.insitu import TrackingTool

from .tracking_reference import assert_same_columns

DATA = pathlib.Path(__file__).parent / "data"
SEED, STEPS, MID, MIN_OVERLAP = 36, (0, 2, 4, 6, 8, 10), 4, 2


def fixture_sequence():
    """``(step, labeling, volumes)`` of the committed fixtures."""
    rng = np.random.default_rng(SEED)
    seq = []
    for step in STEPS:
        n = int(rng.integers(60, 240))
        ids = np.sort(rng.choice(400, size=n, replace=False)).astype(np.int64)
        cuts = np.sort(rng.choice(400, size=8, replace=False))
        _, labels = np.unique(np.searchsorted(cuts, ids), return_inverse=True)
        lab = ComponentLabeling(site_ids=ids, labels=labels.astype(np.int64))
        seq.append((step, lab, rng.uniform(0.5, 2.0, size=lab.num_components)))
    return seq


def _npz(name):
    with np.load(DATA / name) as data:
        return {k: np.array(data[k]) for k in data.files}


class TestParentFixtures:
    def test_mid_snapshot_resumes_to_full_run(self):
        builder = FeatureTreeBuilder.from_state(_npz("tracking_state_mid.npz"))
        assert builder.last_step == MID and builder.min_overlap == MIN_OVERLAP
        for step, labeling, volumes in fixture_sequence():
            if step > MID:
                builder.push(step, labeling, volumes=volumes)
        assert_same_columns(builder.state(), _npz("tracking_state_full.npz"))

    def test_fresh_run_writes_the_committed_state(self):
        builder = FeatureTreeBuilder(min_overlap=MIN_OVERLAP)
        for step, labeling, volumes in fixture_sequence():
            builder.push(step, labeling, volumes=volumes)
            if step == MID:
                assert_same_columns(
                    builder.state(), _npz("tracking_state_mid.npz")
                )
        assert_same_columns(builder.state(), _npz("tracking_state_full.npz"))

    def test_saved_tree_loads_unchanged(self):
        tree = MergerTree.load(str(DATA / "merger_tree.npz"))
        raw = _npz("merger_tree.npz")
        assert json.loads(str(raw.pop("meta")))["num_tracks"] == tree.num_tracks
        assert_same_columns(tree.arrays, raw)
        full = _npz("tracking_state_full.npz")
        assert_same_columns(tree.arrays, {k: full[k] for k in tree.arrays})
        assert set(tree.counts()) == {
            "continuation", "merge", "split", "birth", "death"
        }


def _tree_arrays():
    return {k: v for k, v in _npz("merger_tree.npz").items() if k != "meta"}


def _write_tree(path, arrays, num_tracks, meta=True):
    meta_record = {"format": "repro-merger-tree-1", "num_tracks": num_tracks}
    extra = {"meta": np.array(json.dumps(meta_record))} if meta else {}
    np.savez(path, **extra, **arrays)


def _drop(key):
    def mutate(a):
        del a[key]
    return mutate


def _set(key, fn):
    def mutate(a):
        a[key] = fn(a[key])
    return mutate


def _add_at(v, i, delta):
    v = v.copy()
    v[i] += delta
    return v


#: malformed-file case -> (mutation of the saved arrays, array named)
MALFORMED = {
    "track_offsets_not_monotone": (
        _set("track_offsets", lambda v: _add_at(v, 1, 1000)), "track_offsets"
    ),
    "track_offsets_short_of_rows": (
        _set("track_offsets", lambda v: _add_at(v, -1, -1)), "track_offsets"
    ),
    "event_kind_7": (
        _set("event_kinds", lambda v: np.where(v == 0, 7, v)), "event_kinds"
    ),
    "event_kind_negative": (_set("event_kinds", lambda v: v - 1), "event_kinds"),
    "event_steps_flat": (_set("event_steps", np.ravel), "event_steps"),
    "event_steps_three_columns": (
        _set("event_steps", lambda v: np.hstack([v, v[:, :1]])), "event_steps"
    ),
    "event_from_offsets_past_end": (
        _set("event_from_offsets", lambda v: _add_at(v, -1, 1)),
        "event_from_offsets",
    ),
    "event_to_offsets_one_short": (
        _set("event_to_offsets", lambda v: v[:-1]), "event_to_offsets"
    ),
    "event_shared_missing": (_drop("event_shared"), "event_shared"),
    "track_sizes_float": (
        _set("track_sizes", lambda v: v.astype(float)), "track_sizes"
    ),
    "track_labels_int32": (
        _set("track_labels", lambda v: v.astype(np.int32)), "track_labels"
    ),
    "track_volumes_one_short": (
        _set("track_volumes", lambda v: v[:-1]), "track_volumes"
    ),
    "steps_scalar": (_set("steps", lambda v: v[0]), "steps"),
}


class TestMalformedTrees:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_load_refuses(self, tmp_path, case):
        mutate, key = MALFORMED[case]
        arrays = _tree_arrays()
        num_tracks = len(arrays["track_offsets"]) - 1
        mutate(arrays)
        path = str(tmp_path / "tree.npz")
        _write_tree(path, arrays, num_tracks)
        with pytest.raises(
            ValueError, match=f"{re.escape(path)}: merger-tree array '{key}'"
        ):
            MergerTree.load(path)

    def test_load_refuses_missing_meta(self, tmp_path):
        path = str(tmp_path / "tree.npz")
        _write_tree(path, _tree_arrays(), 0, meta=False)
        with pytest.raises(
            ValueError, match=f"{re.escape(path)}: merger-tree array 'meta'"
        ):
            MergerTree.load(path)

    def test_load_refuses_meta_num_tracks_mismatch(self, tmp_path):
        arrays = _tree_arrays()
        path = str(tmp_path / "tree.npz")
        _write_tree(path, arrays, len(arrays["track_offsets"]))
        with pytest.raises(
            ValueError, match=f"{re.escape(path)}: .*'meta'.*num_tracks"
        ):
            MergerTree.load(path)

    def test_load_refuses_meta_that_is_not_json(self, tmp_path):
        path = str(tmp_path / "tree.npz")
        np.savez(path, meta=np.array("{not json"), **_tree_arrays())
        with pytest.raises(ValueError, match="unknown merger-tree format"):
            MergerTree.load(path)

    def test_intact_copy_loads(self, tmp_path):
        """The cases above fail only because of their one mutation."""
        arrays = _tree_arrays()
        path = str(tmp_path / "tree.npz")
        _write_tree(path, arrays, len(arrays["track_offsets"]) - 1)
        assert_same_columns(MergerTree.load(path).arrays, arrays)


#: malformed-state case -> (mutation of a mid-run state, array named)
MALFORMED_STATE = {
    "flags_missing": (_drop("flags"), "flags"),
    "flags_short": (_set("flags", lambda v: v[:3]), "flags"),
    "head_tracks_past_last_track": (
        _set("head_tracks", lambda v: v + 1000), "head_tracks"
    ),
    "head_labels_shuffled": (
        _set("head_labels", lambda v: v[::-1]), "head_labels"
    ),
    "prev_site_ids_short": (
        _set("prev_site_ids", lambda v: v[:-1]), "prev_site_ids"
    ),
    "track_offsets_not_monotone": (
        _set("track_offsets", lambda v: _add_at(v, 1, 1000)), "track_offsets"
    ),
    "volumes_without_flag": (
        _set("flags", lambda v: _add_at(v, 3, -1)), "track_volumes"
    ),
}


class TestMalformedState:
    @pytest.mark.parametrize("case", sorted(MALFORMED_STATE))
    def test_from_state_refuses(self, case):
        mutate, key = MALFORMED_STATE[case]
        arrays = _npz("tracking_state_mid.npz")
        mutate(arrays)
        with pytest.raises(ValueError, match=f"merger-tree array '{key}'"):
            FeatureTreeBuilder.from_state(arrays)

    def test_tool_names_the_snapshot_path(self, tmp_path):
        arrays = _npz("tracking_state_mid.npz")
        arrays["event_kinds"] = arrays["event_kinds"] + 7
        path = tmp_path / "tracking_state_00000004.npz"
        np.savez(path, **arrays)
        tool = TrackingTool(min_overlap=MIN_OVERLAP, state_dir=str(tmp_path))
        sim = SimpleNamespace(recovery=SimpleNamespace(resumed_step=4))
        with pytest.raises(
            ValueError, match=f"{re.escape(str(path))}: .*'event_kinds'"
        ):
            tool._get_builder(sim)


def test_resume_refuses_a_different_min_overlap(tmp_path):
    """A snapshot built with ``min_overlap=2`` must not resume under a
    tool configured with 1 — it used to restore 2 and ignore the tool."""
    np.savez(
        tmp_path / "tracking_state_00000004.npz",
        **_npz("tracking_state_mid.npz"),
    )
    sim = SimpleNamespace(recovery=SimpleNamespace(resumed_step=6))
    tool = TrackingTool(min_overlap=1, state_dir=str(tmp_path))
    with pytest.raises(
        ValueError, match=r"min_overlap=2, but the tool has min_overlap=1"
    ):
        tool._get_builder(sim)
    same = TrackingTool(min_overlap=MIN_OVERLAP, state_dir=str(tmp_path))
    assert same._get_builder(sim).last_step == MID
