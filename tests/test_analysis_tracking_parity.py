"""Parity suite for temporal feature tracking.

The flat overlap kernel and the column builder must reproduce the
object-based references (``tests/tracking_reference.py``) key for key
after every push, and the in situ tracking tool on rank-local blocks must
produce identical merger-tree columns — bit for bit, including per-track
volume histories — at 1/2/4 ranks.
Also covers: the merge-arbitration bugfix (overlap count beats dict
insertion order), a periodic-seam void that merges across a step
boundary, invariance under a strictly increasing remap of site ids,
checkpointable builder state, the merger-tree on-disk format,
invalid-cell masking in the in situ tool's threshold path, and
kill-and-resume producing a bit-identical tree.
"""

import os

import numpy as np
import pytest

from repro import faults, observe
from repro.analysis import tracking
from repro.analysis.components import ComponentLabeling, connected_components
from repro.analysis.tracking import (
    FeatureTreeBuilder,
    MergerTree,
    overlap_matrix,
    track_components,
)
from repro.core import (
    DistributedTessellation,
    TessTimings,
    Tessellation,
    tessellate,
    tessellate_distributed,
)
from repro.diy.bounds import Bounds
from repro.diy.comm import Communicator, ParallelError, run_parallel
from repro.diy.decomposition import Decomposition
from repro.insitu import TrackingTool

from .tracking_reference import (
    ReferenceTreeBuilder,
    assert_same_columns,
    overlap_arrays_dict,
    overlap_matrix_dict,
)

BOX = 10.0


@pytest.fixture(autouse=True)
def _clear_faults():
    yield
    faults.clear()


def _labeling(groups):
    """ComponentLabeling from tuples of member site ids (canonical labels:
    components numbered by their smallest member id, matching the
    union-find output)."""
    roots = sorted(groups, key=min)
    site_ids, labels = [], []
    for label, group in enumerate(roots):
        for sid in group:
            site_ids.append(sid)
            labels.append(label)
    order = np.argsort(site_ids)
    return ComponentLabeling(
        site_ids=np.asarray(site_ids, dtype=np.int64)[order],
        labels=np.asarray(labels, dtype=np.int64)[order],
    )


def _random_labeling(rng, n_ids, n_comp):
    ids = np.sort(rng.choice(5000, size=n_ids, replace=False)).astype(np.int64)
    raw = rng.integers(0, n_comp, size=n_ids)
    _, labels = np.unique(raw, return_inverse=True)
    return ComponentLabeling(site_ids=ids, labels=labels.astype(np.int64))


class TestOverlapKernels:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_flat_matches_dict_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = _random_labeling(rng, int(rng.integers(5, 400)), 8)
        b = _random_labeling(rng, int(rng.integers(5, 400)), 8)
        la, lb, n = overlap_matrix(a, b)
        oracle = overlap_matrix_dict(a, b)
        got = {(int(x), int(y)): int(c) for x, y, c in zip(la, lb, n)}
        assert got == oracle
        # flat output is (la, lb)-lexsorted — the event-order contract
        keys = list(zip(la.tolist(), lb.tolist()))
        assert keys == sorted(keys)

    def test_disjoint_and_empty(self):
        a = _labeling([(0, 1), (5, 6)])
        b = _labeling([(100, 101)])
        la, lb, n = overlap_matrix(a, b)
        assert len(la) == len(lb) == len(n) == 0
        empty = ComponentLabeling(
            site_ids=np.empty(0, dtype=np.int64),
            labels=np.empty(0, dtype=np.int64),
        )
        la, lb, n = overlap_matrix(a, empty)
        assert len(la) == 0

    @pytest.mark.parametrize("kernel", ["flat", "dict"])
    @pytest.mark.parametrize("seed", [10, 11])
    def test_tree_identical_across_kernels(self, seed, kernel, monkeypatch):
        """A tree linked on the reference overlap is the production tree."""
        rng = np.random.default_rng(seed)
        labelings = {
            s: _random_labeling(rng, int(rng.integers(10, 300)), 6)
            for s in range(4)
        }
        want = track_components(labelings)
        if kernel == "dict":
            monkeypatch.setattr(tracking, "overlap_matrix", overlap_arrays_dict)
        assert_same_columns(track_components(labelings).arrays, want.arrays)


def _cut_labeling(rng, span=400, cuts=8):
    """Components as runs of a random id subset between random cut points,
    so consecutive steps overlap in every event kind."""
    ids = np.sort(rng.choice(span, size=int(rng.integers(0, 240)), replace=False))
    cut = np.sort(rng.choice(span, size=cuts, replace=False))
    _, labels = np.unique(np.searchsorted(cut, ids), return_inverse=True)
    return ComponentLabeling(
        site_ids=ids.astype(np.int64), labels=labels.astype(np.int64)
    )


#: the three merge-arbitration cases of TestMergeArbitration, as groups
ARBITRATION_CASES = {
    "overlap_winner": ([(0, 1), (10, 11, 12, 13)], [(1, 10, 11, 12)]),
    "merge_tie": ([(0, 1), (10, 11)], [(1, 10)]),
    "split_tie": ([(0, 1, 2, 3)], [(0, 1), (2, 3)]),
}


def _assert_matches_reference(sequence, min_overlap, resume_at=None):
    """Push ``(step, labeling, volumes)`` into the builder and the object
    reference; their states (tree columns included) agree key for key
    after every push, across a state round trip at ``resume_at``."""
    builder = FeatureTreeBuilder(min_overlap=min_overlap)
    ref = ReferenceTreeBuilder(min_overlap=min_overlap)
    for step, labeling, volumes in sequence:
        builder.push(step, labeling, volumes=volumes)
        ref.push(step, labeling, volumes=volumes)
        assert_same_columns(builder.tree().arrays, ref.tree_arrays())
        assert_same_columns(builder.state(), ref.state())
        if step == resume_at:
            builder = FeatureTreeBuilder.from_state(builder.state())


class TestReferenceOracle:
    @pytest.mark.parametrize("min_overlap", [1, 2])
    @pytest.mark.parametrize("volumes", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_labelings(self, seed, volumes, min_overlap):
        rng = np.random.default_rng(100 + seed)
        sequence = []
        for step in range(0, 21, 3):
            lab = _cut_labeling(rng) if step % 2 else _random_labeling(
                rng, int(rng.integers(1, 300)), 8
            )
            vols = rng.uniform(0.5, 2.0, lab.num_components) if volumes else None
            sequence.append((step, lab, vols))
        _assert_matches_reference(sequence, min_overlap, resume_at=9)

    @pytest.mark.parametrize("case", sorted(ARBITRATION_CASES))
    def test_arbitration_cases(self, case):
        groups0, groups1 = ARBITRATION_CASES[case]
        sequence = [(0, _labeling(groups0), None), (1, _labeling(groups1), None)]
        _assert_matches_reference(sequence, 1)

    def test_empty_labelings(self):
        empty = ComponentLabeling(
            site_ids=np.empty(0, dtype=np.int64),
            labels=np.empty(0, dtype=np.int64),
        )
        sequence = [(0, empty, None), (1, _labeling([(0, 1)]), None),
                    (2, empty, None), (3, empty, None)]
        _assert_matches_reference(sequence, 1, resume_at=2)


def _remap_ids(labelings, seed):
    """Every labeling (site ids below 5000) with its site ids sent through
    one strictly increasing map, sparse enough that the id join takes its
    binary-search path instead of the lookup table."""
    rng = np.random.default_rng(seed)
    new_ids = np.sort(rng.choice(1 << 40, size=5000, replace=False))
    return {
        step: ComponentLabeling(site_ids=new_ids[lab.site_ids], labels=lab.labels)
        for step, lab in labelings.items()
    }


class TestIdRemapRelation:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_labelings(self, seed):
        rng = np.random.default_rng(200 + seed)
        labelings = {s: _cut_labeling(rng) for s in range(0, 10, 2)}
        vols = {
            s: rng.uniform(0.5, 2.0, lab.num_components)
            for s, lab in labelings.items()
        }
        want = track_components(labelings, min_overlap=2, volumes=vols)
        got = track_components(
            _remap_ids(labelings, seed), min_overlap=2, volumes=vols
        )
        assert want.num_events > 0
        assert_same_columns(got.arrays, want.arrays)

    def test_seam_merge_case(self, seam_merge_case):
        _, _, labelings = seam_merge_case
        want = track_components(labelings)
        assert want.counts().get("merge")
        assert_same_columns(
            track_components(_remap_ids(labelings, 5)).arrays, want.arrays
        )


class TestMergeArbitration:
    def test_overlap_winner_beats_insertion_order(self):
        """Regression: the merged child must continue the largest-overlap
        parent's track, not the parent that happens to iterate first.

        Parent 0 (insertion-order first) shares 1 cell with the child;
        parent 1 shares 3.  The old head-iteration claim handed the child
        to parent 0.
        """
        step0, step1 = map(_labeling, ARBITRATION_CASES["overlap_winner"])
        tree = track_components({0: step0, 1: step1})

        assert tree.counts() == {"merge": 1}
        a = tree.arrays
        assert a["event_from_labels"].tolist() == [0, 1]
        assert a["event_to_labels"].tolist() == [0]
        # tracks 0 and 1 start at step 0 from labels 0 and 1
        assert a["track_labels"][a["track_offsets"][:-1]].tolist() == [0, 1]
        steps = np.split(a["track_steps"], a["track_offsets"][1:-1])
        assert steps[1].tolist() == [0, 1]  # overlap winner continues
        assert steps[0].tolist() == [0]  # insertion-order winner loses

    def test_merge_tie_breaks_to_smaller_parent_label(self):
        # both parents share exactly 1 cell
        step0, step1 = map(_labeling, ARBITRATION_CASES["merge_tie"])
        a = track_components({0: step0, 1: step1}).arrays
        assert a["track_labels"][a["track_offsets"][:-1]].tolist() == [0, 1]
        steps = np.split(a["track_steps"], a["track_offsets"][1:-1])
        assert steps[0].tolist() == [0, 1]
        assert steps[1].tolist() == [0]

    def test_split_child_tie_breaks_to_smaller_child_label(self):
        # equal 2-cell overlaps
        step0, step1 = map(_labeling, ARBITRATION_CASES["split_tie"])
        a = track_components({0: step0, 1: step1}).arrays
        lo, hi = a["track_offsets"][:2]  # track 0: the step-0 parent
        assert a["track_steps"][lo:hi].tolist() == [0, 1]
        assert a["track_labels"][lo:hi].tolist() == [0, 0]  # smaller child


class TestBuilderState:
    @pytest.mark.parametrize("volumes", [False, True])
    def test_state_roundtrip_mid_sequence(self, volumes):
        rng = np.random.default_rng(7)
        labelings = {
            s: _random_labeling(rng, int(rng.integers(20, 200)), 5)
            for s in range(5)
        }
        vols = {
            s: rng.uniform(0.5, 2.0, size=lab.num_components)
            for s, lab in labelings.items()
        }

        full = FeatureTreeBuilder()
        resumed = None
        for s in range(5):
            v = vols[s] if volumes else None
            full.push(s, labelings[s], volumes=v)
            if s == 2:
                resumed = FeatureTreeBuilder.from_state(full.state())
            elif s > 2:
                resumed.push(s, labelings[s], volumes=v)
        assert_same_columns(resumed.tree().arrays, full.tree().arrays)
        assert_same_columns(resumed.state(), full.state())
        assert resumed.last_step == full.last_step == 4

    def test_restores_state_written_with_the_dict_kernel(self, tmp_path):
        """``flags[1]`` once named the overlap kernel (1 = dict).  Snapshots
        carrying it still restore, and resume onto the same tree."""
        rng = np.random.default_rng(8)
        labelings = {
            s: _random_labeling(rng, int(rng.integers(20, 200)), 5)
            for s in range(4)
        }
        full = FeatureTreeBuilder(min_overlap=2)
        for s in range(2):
            full.push(s, labelings[s])
        state = full.state()
        assert state["flags"][1] == 0
        state["flags"][1] = 1
        path = tmp_path / "tracking_state_00000001.npz"
        np.savez(path, **state)
        with np.load(path) as data:
            resumed = FeatureTreeBuilder.from_state(
                {k: np.array(data[k]) for k in data.files}
            )
        assert resumed.min_overlap == 2
        for s in range(2, 4):
            full.push(s, labelings[s])
            resumed.push(s, labelings[s])
        assert_same_columns(resumed.state(), full.state())

    def test_rejects_non_monotonic_steps(self):
        builder = FeatureTreeBuilder()
        builder.push(3, _labeling([(0, 1)]))
        with pytest.raises(ValueError, match="strictly increasing"):
            builder.push(3, _labeling([(0, 1)]))

    def test_rejects_inconsistent_volumes(self):
        builder = FeatureTreeBuilder()
        builder.push(0, _labeling([(0, 1)]), volumes=np.array([1.0]))
        with pytest.raises(ValueError, match="every push"):
            builder.push(1, _labeling([(0, 1)]))


class TestMergerTreeFormat:
    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        labelings = {
            s: _random_labeling(rng, int(rng.integers(20, 200)), 5)
            for s in range(4)
        }
        vols = {
            s: rng.uniform(0.5, 2.0, size=lab.num_components)
            for s, lab in labelings.items()
        }
        tree = track_components(labelings, volumes=vols)
        mt = MergerTree.from_tree(tree)
        assert mt is tree

        path = str(tmp_path / "tree.npz")
        mt.save(path)
        loaded = MergerTree.load(path)
        assert_same_columns(loaded.arrays, mt.arrays)
        assert loaded.counts() == tree.counts()

    def test_load_rejects_unknown_format(self, tmp_path):
        path = str(tmp_path / "bad.npz")
        np.savez(path, meta=np.array('{"format": "not-a-tree"}'))
        with pytest.raises(ValueError, match="format"):
            MergerTree.load(path)


# ----------------------------------------------------------------------
# in situ tool on rank-local blocks == serial, bit-identically
# ----------------------------------------------------------------------
class _StubSim:
    """Bare sim stand-in for context-driven tool runs."""

    recovery = None


def _drifting_steps(seed=3, nsteps=4, n=300):
    """Uniform clouds whose particles drift between steps (ids kept)."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, BOX, size=(n, 3))
    steps = {}
    for step in range(nsteps):
        steps[step] = pts
        pts = np.mod(pts + rng.normal(scale=0.3, size=pts.shape), BOX)
    return steps


def _serial_tree(tessellations, vmin_quantile):
    """The tool's tree from the serial library on assembled meshes:
    ``connected_components`` at the tool's threshold, per-label volumes
    summed in ascending site-id order, then ``track_components``."""
    threshold = TrackingTool(vmin_quantile=vmin_quantile)._threshold
    labelings, volumes = {}, {}
    for step, tess in tessellations.items():
        vols = tess.volumes()
        labeling = connected_components(tess, vmin=threshold(vols))
        sids = tess.site_ids()
        order = np.argsort(sids, kind="stable")
        at = np.searchsorted(sids[order], labeling.site_ids)
        volumes[step] = np.zeros(labeling.num_components)
        np.add.at(volumes[step], labeling.labels, vols[order][at])
        labelings[step] = labeling
    return track_components(labelings, volumes=volumes)


def _tool_on_blocks_worker(comm, step_blocks, domain):
    """One rank: hand its block of each step to the tracking tool inside
    the in situ handle, as the tessellation tool does."""
    tool = TrackingTool(vmin_quantile=0.8)
    for step, blocks in step_blocks.items():
        handle = DistributedTessellation.collect(
            comm, domain, blocks[comm.rank], TessTimings(), 0
        )
        tree = tool.run(
            _StubSim(), step, 1.0, comm, context={"tessellation": handle}
        )
    return tree


@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_distributed_matches_serial_bit_identically(nranks):
    """The tool on rank-local blocks == the tool on the same blocks
    assembled: every merger-tree array, volume histories included."""
    domain = Bounds.cube(BOX)
    step_blocks = {
        step: tessellate(pts, domain, nblocks=nranks, ghost=4.0).blocks
        for step, pts in _drifting_steps().items()
    }
    ref = _serial_tree(
        {step: Tessellation(domain, blocks)
         for step, blocks in step_blocks.items()},
        vmin_quantile=0.8,
    )
    assert ref.num_events > 0
    trees = run_parallel(
        nranks, _tool_on_blocks_worker, step_blocks, domain
    )
    for tree in trees:  # identical on every rank, bit for bit
        assert set(tree.arrays) == set(ref.arrays)
        for key in ref.arrays:
            np.testing.assert_array_equal(tree.arrays[key], ref.arrays[key])


# ----------------------------------------------------------------------
# periodic-seam void merging across a step boundary
# ----------------------------------------------------------------------
STRIP_IDS = set(range(800, 810))
MID_IDS = set(range(810, 816))


def _seam_steps(seed=11):
    """Two steps: a void wrapping the periodic x seam merges with a
    mid-box void when a corridor opens through the dense matter.

    Step 0: dense matter fills [1.5, 4] and [6, 8.5]; a sparse strip
    spans the seam ([8.5, 10] + [0, 1.5], wrapping through x=0 — one
    component only if periodic adjacency works) and a second sparse slab
    sits at [4, 6].  Step 1: the dense particles inside a corridor
    window are removed, connecting the two voids — the merge must link
    the seam-wrapping component to the mid one.  Surviving particles
    keep their ids, which is what the overlap join runs on.
    """
    rng = np.random.default_rng(seed)
    dense = np.vstack(
        [
            rng.uniform([1.5, 0, 0], [4.0, BOX, BOX], size=(400, 3)),
            rng.uniform([6.0, 0, 0], [8.5, BOX, BOX], size=(400, 3)),
        ]
    )
    strip = np.vstack(
        [
            rng.uniform([0, 0, 0], [1.5, BOX, BOX], size=(5, 3)),
            rng.uniform([8.5, 0, 0], [BOX, BOX, BOX], size=(5, 3)),
        ]
    )
    mid = rng.uniform([4.0, 0, 0], [6.0, BOX, BOX], size=(6, 3))
    pts = np.clip(np.vstack([dense, strip, mid]), 1e-3, BOX - 1e-3)
    ids = np.arange(len(pts), dtype=np.int64)
    corridor = (
        (pts[:, 0] > 1.5)
        & (pts[:, 0] < 4.0)
        & (np.all((pts[:, 1:] > 3.5) & (pts[:, 1:] < 6.5), axis=1))
        & (ids < 800)
    )
    keep1 = ~corridor
    return {0: (pts, ids), 1: (pts[keep1], ids[keep1])}


@pytest.fixture(scope="module")
def seam_merge_case():
    steps = _seam_steps()
    domain = Bounds.cube(BOX)
    vmins, labelings = {}, {}
    for step, (pts, ids) in steps.items():
        tess = tessellate(pts, domain, nblocks=1, ghost=4.0, ids=ids)
        vmins[step] = float(np.quantile(tess.volumes(), 0.95))
        labelings[step] = connected_components(tess, vmin=vmins[step])
    return steps, vmins, labelings


def _labels_of(labeling, id_set):
    return {
        int(l)
        for s, l in zip(labeling.site_ids, labeling.labels)
        if int(s) in id_set
    }


def test_seam_void_merges_across_step_boundary(seam_merge_case):
    _, _, labelings = seam_merge_case
    strip0 = _labels_of(labelings[0], STRIP_IDS)
    mid0 = _labels_of(labelings[0], MID_IDS)
    # Step 0: one seam-wrapping void, separate from the mid void(s).
    assert len(strip0) == 1 and mid0 and not (strip0 & mid0)
    # Step 1: the corridor joins them into one component.
    strip1 = _labels_of(labelings[1], STRIP_IDS)
    mid1 = _labels_of(labelings[1], MID_IDS)
    assert len(strip1) == 1 and strip1 & mid1

    a = track_components(labelings).arrays
    froms = np.split(a["event_from_labels"], a["event_from_offsets"][1:-1])
    merges = [
        set(f.tolist())
        for f, kind, (_, to) in zip(froms, a["event_kinds"], a["event_steps"])
        if kind == 1 and to == 1  # merges arriving at step 1
    ]
    assert any(
        strip0 <= f and mid0 & f for f in merges
    ), f"no merge linking seam void {strip0} with mid {mid0}: {merges}"


def _seam_tracking_worker(comm, steps, decomp):
    """One rank: tessellate each step in situ and run the tracking tool on
    its block, thresholded at the fixture's 0.95 volume quantile."""
    tool = TrackingTool(vmin_quantile=0.95)
    for step, (pts, ids) in steps.items():
        mine = decomp.locate(pts) == comm.rank
        handle = DistributedTessellation.collect(
            comm,
            decomp.domain,
            *tessellate_distributed(comm, decomp, pts[mine], ids[mine], ghost=4.0),
        )
        tree = tool.run(
            _StubSim(), step, 1.0, comm, context={"tessellation": handle}
        )
    return tree


@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_seam_merge_distributed_matches_serial(
    seam_merge_case, nranks
):
    """The cross-rank seam merge: the tool's tree over blocks cut through
    the seam void has the serial labelings' events and tracks (the tool's
    tracks also carry volume histories, which the serial tree lacks)."""
    steps, _, labelings = seam_merge_case
    ref = track_components(labelings)
    decomp = Decomposition.regular(Bounds.cube(BOX), nranks, periodic=True)
    trees = run_parallel(
        nranks, _seam_tracking_worker, steps, decomp
    )
    for tree in trees:
        assert_same_columns(tree.arrays, ref.arrays, volumes_rtol=None)


# ----------------------------------------------------------------------
# in situ tool: invalid-cell masking, observe counters, kill-and-resume
# ----------------------------------------------------------------------
def test_tool_threshold_masks_invalid_cells(seam_merge_case):
    """Incomplete cells (volume 0/NaN) must not crash or poison the
    quantile-threshold path of the tracking tool."""
    steps, _, _ = seam_merge_case
    pts0, ids0 = steps[0]
    tess = tessellate(pts0, Bounds.cube(BOX), nblocks=1, ghost=4.0, ids=ids0)
    # Corrupt a few cells the way incomplete distributed cells present.
    tess.blocks[0].volumes[0] = np.nan
    tess.blocks[0].volumes[1] = 0.0
    tess.blocks[0].volumes[2] = -1.0

    clean_vols = tess.volumes()[3:]
    expected_vmin = float(np.quantile(clean_vols, 0.9))

    tool = TrackingTool(vmin_quantile=0.9)
    assert tool._threshold(tess.volumes()) == expected_vmin

    comm = Communicator.one_rank()
    handle = DistributedTessellation.collect(
        comm, tess.domain, tess.blocks[0], TessTimings(), 0
    )
    mt = tool.run(_StubSim(), 0, 1.0, comm, context={"tessellation": handle})
    assert mt.num_tracks > 0
    bad = {int(tess.blocks[0].site_ids[i]) for i in range(3)}
    # none of the corrupted cells may have been kept
    kept = set(tool._builder._prev.site_ids.tolist())
    assert not (bad & kept)


def test_tool_threshold_all_invalid_keeps_nothing():
    tool = TrackingTool(vmin_quantile=0.5)
    vols = np.array([np.nan, 0.0, -2.0])
    assert tool._threshold(vols) == float("inf")


def test_tool_emits_observe_counters(seam_merge_case):
    _, _, labelings = seam_merge_case
    observe.enable()
    try:
        tool = TrackingTool(vmin_quantile=0.9)
        builder = tool._get_builder(_StubSim())
        builder.push(0, labelings[0])
        builder.push(1, labelings[1])
        merges = observe.registry().counter("tracking.merges").value
        assert merges >= 1
    finally:
        observe.disable()
        observe.reset_all()


def _tool_tree_runs(cfg, nranks, state_dir, ckpt_dir=None, resume=False):
    from repro.insitu import run_simulation_with_tools

    fw = {
        "tools": [
            {
                "tool": "tracking",
                "every": 2,
                "params": {"vmin_quantile": 0.8, "state_dir": state_dir},
            }
        ]
    }
    kwargs = {}
    if ckpt_dir is not None:
        kwargs = {
            "checkpoint_dir": ckpt_dir,
            "checkpoint_every": 2,
            "resume": resume,
        }
    return run_simulation_with_tools(cfg, fw, nranks=nranks, **kwargs)


def test_tool_kill_and_resume_bit_identical(tmp_path):
    """A rank killed mid-sequence, then resumed from the last checkpoint,
    must reproduce the uninterrupted merger tree bit for bit — including
    the tracking state carried across the restart."""
    from repro.hacc.simulation import SimulationConfig

    cfg = SimulationConfig(np_side=6, nsteps=8, seed=5)
    ref = _tool_tree_runs(cfg, 2, str(tmp_path / "ref_state"))

    state = str(tmp_path / "state")
    ckpt = str(tmp_path / "ckpt")
    faults.install(faults.FaultSpec(kill_rank=1, kill_step=5, kill_mode="raise"))
    with pytest.raises(ParallelError):
        _tool_tree_runs(cfg, 2, state, ckpt_dir=ckpt)
    faults.clear()
    # The tool fired (and snapshotted state) at steps 2 and 4 pre-crash.
    assert any(
        f.startswith("tracking_state_") for f in os.listdir(state)
    )

    resumed = _tool_tree_runs(cfg, 2, state, ckpt_dir=ckpt, resume=True)
    assert resumed.resumed_step == 4
    assert sorted(resumed["tracking"]) == [6, 8]

    final_ref = ref["tracking"][max(ref["tracking"])]
    final_res = resumed["tracking"][max(resumed["tracking"])]
    assert set(final_ref.arrays) == set(final_res.arrays)
    for key in final_ref.arrays:
        np.testing.assert_array_equal(
            final_ref.arrays[key], final_res.arrays[key]
        )


@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_tool_structure_identical_across_rank_counts(tmp_path, nranks):
    """Tool-level cross-rank-count contract: events, track structure and
    sizes are bit-identical; volume histories agree to rounding (cell
    volumes are decomposition-dependent in the last bits)."""
    from repro.hacc.simulation import SimulationConfig

    cfg = SimulationConfig(np_side=6, nsteps=4, seed=3)
    ref = _tool_tree_runs(cfg, 1, str(tmp_path / "s1"))
    got = _tool_tree_runs(cfg, nranks, str(tmp_path / f"s{nranks}"))
    for step in ref["tracking"]:
        assert_same_columns(
            got["tracking"][step].arrays,
            ref["tracking"][step].arrays,
            volumes_rtol=1e-9,
        )
