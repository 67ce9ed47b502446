"""The tess block payload: lossless round trips, narrow dtypes, file size,
bytes independent of the rank count, and hostile block files (foreign or
older payloads, broken CSR)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tessellate
from repro.core.data_model import VoronoiBlock, connectivity_index_dtype
from repro.core.tess_io import (
    block_from_payload,
    read_blocks,
    read_tessellation,
    scan_block_extents,
)
from repro.core.tessellate import Tessellation
from repro.core.timing import TessTimings
from repro.diy.bounds import Bounds
from repro.diy.comm import run_parallel
from repro.diy.mpi_io import (
    BlockFileReader,
    CheckpointError,
    pack_arrays,
    write_blocks,
)
from repro.hacc import HACCSimulation, SimulationConfig
from repro.hacc.checkpoint import write_checkpoint
from repro.serve.store import Snapshot, SnapshotInfo


def _write_payloads(path, payloads):
    """A block file holding ``payloads`` (gid order) as given."""
    blobs = list(enumerate(payloads))
    run_parallel(
        1, lambda comm: write_blocks(str(path), comm, blobs, len(blobs))
    )


def _roundtrip(tmp_path, blocks, domain=Bounds.cube(1.0)):
    path = str(tmp_path / "t.tess")
    Tessellation(domain=domain, blocks=blocks, timings=TessTimings()).write(path)
    back, dom = read_blocks(path)
    assert dom == domain
    return path, back


def _assert_same(got, want):
    for g, w in zip(got, want, strict=True):
        ga, wa = g.to_arrays(), w.to_arrays()
        assert ga.keys() == wa.keys()
        for name in wa:
            assert ga[name].dtype == wa[name].dtype, name
            np.testing.assert_array_equal(ga[name], wa[name], err_msg=name)


def _stored(path, gid=0):
    with BlockFileReader(path) as reader:
        return reader.read_block_arrays(gid)


def _block(pool, faces, cells, site_ids, gid=0):
    """A block from explicit rows: ``faces`` lists vertex cycles and their
    neighbour ids, ``cells`` the face count of each cell.  The pool is
    compacted to the vertices the faces use, in pool order."""
    ncells = len(cells)
    rng = np.random.default_rng(len(pool))
    face_vertices = np.concatenate([f for f, _ in faces]).astype(np.int64)
    used = np.zeros(len(pool), dtype=bool)
    used[face_vertices] = True
    idx = connectivity_index_dtype(max(len(face_vertices), int(used.sum())))

    def offsets(lengths):
        return np.concatenate([[0], np.cumsum(lengths)]).astype(idx)

    return VoronoiBlock(
        gid=gid,
        extents=Bounds.cube(1.0),
        vertices=pool[used],
        face_vertices=(np.cumsum(used) - 1)[face_vertices].astype(idx),
        face_offsets=offsets([len(f) for f, _ in faces]),
        face_neighbors=np.asarray([nb for _, nb in faces], dtype=np.int64),
        cell_face_offsets=offsets(cells),
        sites=rng.uniform(size=(ncells, 3)),
        site_ids=np.asarray(site_ids, dtype=np.int64),
        volumes=rng.uniform(size=ncells),
        areas=rng.uniform(size=ncells),
    )


# ----------------------------------------------------------------------
# lossless round trips
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(20, 300),
    nblocks=st.sampled_from([1, 2, 4]),
    periodic=st.booleans(),
    vmin=st.sampled_from([None, 0.3]),
)
def test_real_blocks_roundtrip_exactly(tmp_path_factory, seed, n, nblocks,
                                       periodic, vmin):
    points = np.random.default_rng(seed).uniform(0.0, 4.0, size=(n, 3))
    tess = tessellate(points, Bounds.cube(4.0), nblocks=nblocks,
                      periodic=periodic, vmin=vmin)
    _, back = _roundtrip(tmp_path_factory.mktemp("rt"), tess.blocks, tess.domain)
    _assert_same(back, tess.blocks)


def test_empty_block(tmp_path):
    empty = VoronoiBlock.empty(0, Bounds.cube(1.0))
    _, back = _roundtrip(tmp_path, [empty])
    _assert_same(back, [empty])
    assert back[0].num_cells == 0


def test_large_pool_stores_uint32_indices(tmp_path):
    pool = np.random.default_rng(0).uniform(size=(70_000, 3))
    faces = [(np.arange(k, k + 7), k) for k in range(0, 70_000, 7)]
    block = _block(pool, faces, [5_000, 5_000], [3, 9])
    path, back = _roundtrip(tmp_path, [block])
    _assert_same(back, [block])
    stored = _stored(path)
    assert stored["face_vertices"].dtype == np.uint32
    assert stored["cell_faces"].dtype == np.uint16
    assert stored["face_lengths"].dtype == np.uint8


def test_wide_faces_and_cells_store_uint16_counts(tmp_path):
    pool = np.random.default_rng(1).uniform(size=(400, 3))
    faces = [(np.arange(300), 1)] + [(np.arange(k, k + 3), 0) for k in range(300)]
    block = _block(pool, faces, [1, 300], [0, 1])
    path, back = _roundtrip(tmp_path, [block])
    _assert_same(back, [block])
    stored = _stored(path)
    assert stored["face_lengths"].dtype == np.uint16
    assert stored["cell_faces"].dtype == np.uint16
    assert stored["face_vertices"].dtype == np.uint16


@pytest.mark.parametrize(
    "site_ids, neighbors, dtype",
    [
        ([2**31 + 5, 2**33], [2**31 + 4, 2**33 - 70_000], np.int32),
        ([2**40, 7], [-1, 2**40], np.int64),
        ([2**62, -(2**62)], [-(2**62), 2**62], np.int64),
        # deltas of +-(2**64 - 1) wrap to -+1 and still round-trip
        ([2**63 - 1, -(2**63)], [-(2**63), 2**63 - 1], np.int8),
    ],
)
def test_wide_ids_and_sentinels_roundtrip(tmp_path, site_ids, neighbors, dtype):
    pool = np.random.default_rng(2).uniform(size=(6, 3))
    faces = [(np.arange(3), neighbors[0]), (np.arange(3, 6), neighbors[1])]
    block = _block(pool, faces, [1, 1], site_ids)
    path, back = _roundtrip(tmp_path, [block])
    _assert_same(back, [block])
    assert _stored(path)["neighbor_deltas"].dtype == dtype


def test_connectivity_is_stored_narrow(tmp_path):
    points = np.random.default_rng(5).uniform(0.0, 4.0, size=(400, 3))
    tess = tessellate(points, Bounds.cube(4.0), nblocks=2)
    path, _ = _roundtrip(tmp_path, tess.blocks, tess.domain)
    stored = _stored(path)
    assert stored["face_vertices"].dtype == np.uint16
    assert stored["face_lengths"].dtype == np.uint8
    assert stored["cell_faces"].dtype == np.uint8
    assert stored["neighbor_deltas"].dtype == np.int16
    for name in ("vertices", "sites", "volumes", "areas"):
        assert stored[name].dtype == np.float64


@pytest.mark.parametrize("nranks", (2, 8))
def test_file_bytes_do_not_depend_on_the_rank_count(tmp_path, nranks):
    """Blocks sit in gid order, whichever rank held them: 8 blocks on 2
    ranks (4 each, round-robin) write the 1-rank file byte for byte."""
    points = np.random.default_rng(9).uniform(0.0, 4.0, size=(600, 3))
    paths = {r: str(tmp_path / f"r{r}.tess") for r in (1, nranks)}
    for r, path in paths.items():
        tessellate(points, Bounds.cube(4.0), nblocks=8, nranks=r,
                   output_path=path)
    with open(paths[1], "rb") as one, open(paths[nranks], "rb") as many:
        assert one.read() == many.read()


def test_v2_payload_is_refused(tmp_path):
    """A payload holding the in-memory offset arrays (the layout before the
    narrow payload) is not a tess payload any more."""
    points = np.random.default_rng(6).uniform(0.0, 4.0, size=(300, 3))
    tess = tessellate(points, Bounds.cube(4.0), nblocks=2)
    lo, hi = tess.domain.as_arrays()
    payloads = []
    for block in tess.blocks:
        arrays = block.to_arrays()
        arrays["domain"] = np.stack([lo, hi])
        payloads.append(pack_arrays(arrays))
    path = tmp_path / "v2.tess"
    _write_payloads(path, payloads)
    for read in _readers(path):
        with pytest.raises(
            CheckpointError,
            match=r"v2\.tess: block 0: not a tess payload \(arrays \[.*"
                  r"'cell_face_offsets'.*\]\)",
        ):
            read()


@pytest.fixture(scope="module")
def evolved_16():
    cfg = SimulationConfig(np_side=16, nsteps=12, seed=3)
    snap = {}

    def capture(sim, step, a):
        snap["pos"], snap["ids"] = sim.positions_mpc().copy(), sim.local.ids.copy()

    HACCSimulation(cfg).run(hooks={12: [capture]})
    return tessellate(snap["pos"], cfg.domain(), nblocks=4, ghost=4.0,
                      ids=snap["ids"])


def test_evolved_16_cubed_file_is_under_470_bytes_per_cell(tmp_path, evolved_16):
    nbytes = evolved_16.write(str(tmp_path / "e.tess"))
    assert evolved_16.num_cells == 16**3
    assert nbytes / evolved_16.num_cells <= 470
    _assert_same(read_tessellation(str(tmp_path / "e.tess")).blocks,
                 evolved_16.blocks)


# ----------------------------------------------------------------------
# hostile block files
# ----------------------------------------------------------------------
def _readers(path, gid=0):
    """Every reader of a block file, each decoding block ``gid``."""

    def load_block():
        with BlockFileReader(str(path)) as reader:
            tag, nblocks = reader.content_tag, reader.nblocks
        snap = Snapshot(SnapshotInfo(0, path.name, tag, nblocks), str(path))
        try:
            return snap.load_block(gid)
        finally:
            snap.close()

    return [
        lambda: read_tessellation(str(path)),
        lambda: read_blocks(str(path), [gid]),
        load_block,
    ]


def test_hacc_checkpoint_is_not_a_tess_file(tmp_path):
    path = tmp_path / "c.ckpt"
    sim = HACCSimulation(SimulationConfig(np_side=4, nsteps=1, seed=1))
    write_checkpoint(str(path), None, sim)
    for read in _readers(path):
        with pytest.raises(CheckpointError, match=r"c\.ckpt: block 0: not a tess"):
            read()
    with BlockFileReader(str(path)) as reader:
        with pytest.raises(CheckpointError, match="block 0: not a tess"):
            scan_block_extents(reader)


def test_foreign_arrays_are_not_a_tess_file(tmp_path):
    path = tmp_path / "x.tess"
    _write_payloads(path, [pack_arrays({"x": np.arange(5.0)})])
    for read in _readers(path):
        with pytest.raises(CheckpointError, match=r"block 0: not a tess payload"):
            read()
    with pytest.raises(CheckpointError, match="not a tess payload"):
        block_from_payload(b"\x00garbage")


def _tampered(tmp_path, edit):
    """A two-block file whose block 1 payload went through ``edit``."""
    points = np.random.default_rng(8).uniform(0.0, 4.0, size=(200, 3))
    tess = tessellate(points, Bounds.cube(4.0), nblocks=2)
    path = tmp_path / "t.tess"
    tess.write(str(path))
    with BlockFileReader(str(path)) as reader:
        stored = [reader.read_block_arrays(g) for g in range(2)]
    edit(stored[1])
    _write_payloads(path, [pack_arrays(a) for a in stored])
    return path


def _bump_last(name, by=1):
    def edit(arrays):
        arrays[name] = arrays[name].copy()
        arrays[name][-1] += by

    return edit


def _set_first(name, value):
    def edit(arrays):
        arrays[name] = arrays[name].astype(np.int64)
        arrays[name][0] = value

    return edit


def _drop_last(name):
    def edit(arrays):
        arrays[name] = arrays[name][:-1]

    return edit


def _as_float(name):
    def edit(arrays):
        arrays[name] = arrays[name].astype(np.float64)

    return edit


def _wrap_counts(name):
    """Counts that still sum to the right length modulo 2**64."""

    def edit(arrays):
        arrays[name] = arrays[name].astype(np.uint64)
        arrays[name][:2] += np.uint64(2**63)

    return edit


# Case numbers start at 7: cases 0-6 broke the v2 payload, which is no
# longer read (test_v2_payload_is_refused).
_HOSTILE = [
    (_bump_last("face_lengths"), "face_lengths"),
    (_bump_last("cell_faces"), "cell_faces"),
    (_drop_last("cell_faces"), "cell_faces"),
    (_wrap_counts("cell_faces"), "cell_faces"),
    (_wrap_counts("face_lengths"), "face_lengths"),
    (_drop_last("neighbor_deltas"), "face_lengths"),
    (_set_first("face_vertices", 10**6), "face_vertices"),
    (_drop_last("sites"), "sites"),
    (_drop_last("areas"), "areas"),
    (_set_first("face_vertices", -1), "face_vertices"),
    (_drop_last("volumes"), "volumes"),
    (_as_float("neighbor_deltas"), "neighbor_deltas"),
]


@pytest.mark.parametrize(
    "edit, array", _HOSTILE,
    ids=[f"v3-{i}-{a}" for i, (_, a) in enumerate(_HOSTILE, start=7)],
)
def test_inconsistent_payload_is_rejected(tmp_path, edit, array):
    path = _tampered(tmp_path, edit)
    read_blocks(str(path), [0])  # block 0 is intact
    for read in _readers(path, gid=1):
        with pytest.raises(CheckpointError, match=rf"t\.tess: block 1: {array}"):
            read()
