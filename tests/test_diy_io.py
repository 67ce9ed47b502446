"""Tests for the blocked single-file I/O (repro.diy.mpi_io)."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diy.comm import run_parallel
from repro.diy.mpi_io import (
    BlockFileReader,
    CheckpointError,
    pack_arrays,
    unpack_arrays,
    write_blocks,
)


class TestArrayContainer:
    def test_roundtrip_mixed_dtypes(self):
        arrays = {
            "pos": np.random.default_rng(0).normal(size=(17, 3)),
            "ids": np.arange(17, dtype=np.int64),
            "flags": np.array([True, False, True]),
            "empty": np.empty((0, 3), dtype=np.float32),
        }
        out = unpack_arrays(pack_arrays(arrays))
        assert set(out) == set(arrays)
        for k in arrays:
            assert out[k].dtype == arrays[k].dtype
            assert out[k].shape == arrays[k].shape
            np.testing.assert_array_equal(out[k], arrays[k])

    def test_empty_container(self):
        assert unpack_arrays(pack_arrays({})) == {}

    def test_deterministic_bytes(self):
        a = {"b": np.arange(4), "a": np.ones(2)}
        assert pack_arrays(a) == pack_arrays(dict(reversed(list(a.items()))))

    def test_no_pickle_in_format(self):
        # Object arrays require pickling and must be rejected.
        with pytest.raises(Exception):
            pack_arrays({"o": np.array([{"a": 1}], dtype=object)})

    @settings(max_examples=30, deadline=None)
    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=10),
            st.integers(min_value=0, max_value=20),
            max_size=5,
        )
    )
    def test_roundtrip_property(self, spec):
        arrays = {k: np.arange(n, dtype=np.float64) for k, n in spec.items()}
        out = unpack_arrays(pack_arrays(arrays))
        assert set(out) == set(arrays)
        for k in arrays:
            np.testing.assert_array_equal(out[k], arrays[k])


# Module-level workers: picklable by reference, so they lease the rank pool.
def _write_filled(comm, path, nblocks):
    gids = list(range(comm.rank, nblocks, comm.size))
    blocks = [(g, pack_arrays({"data": np.full(g + 1, float(g))})) for g in gids]
    return write_blocks(path, comm, blocks, nblocks_total=nblocks)


def _write_with_gap(comm, path):
    blocks = [(0, b"x"), (2, b"y")]  # gid 1 missing
    return write_blocks(path, comm, blocks, nblocks_total=3)


def _write_random(comm, path, nblocks):
    gids = list(range(comm.rank, nblocks, comm.size))
    blocks = [
        (g, pack_arrays({"v": np.random.default_rng(g).normal(size=1000)}))
        for g in gids
    ]
    return write_blocks(path, comm, blocks, nblocks_total=nblocks)


def _read_own_blocks(comm, path, nblocks):
    with BlockFileReader(path) as r:
        return {
            g: float(r.read_block_arrays(g)["data"][0])
            for g in range(comm.rank, nblocks, comm.size)
        }


class TestBlockFile:
    def _write(self, path, nranks, nblocks):
        return run_parallel(nranks, _write_filled, path, nblocks)

    @pytest.mark.parametrize("nranks,nblocks", [(1, 1), (1, 4), (2, 4), (4, 4), (3, 7)])
    def test_write_read_roundtrip(self, tmp_path, nranks, nblocks):
        path = tmp_path / "blocks.diy"
        sizes = self._write(path, nranks, nblocks)
        assert len(set(sizes)) == 1  # total size agreed on all ranks
        assert path.stat().st_size == sizes[0]

        with BlockFileReader(path) as r:
            assert r.nblocks == nblocks
            for g in range(nblocks):
                arrs = r.read_block_arrays(g)
                np.testing.assert_allclose(arrs["data"], np.full(g + 1, float(g)))

    def test_missing_block_raises(self, tmp_path):
        path = tmp_path / "b.diy"
        self._write(path, 1, 2)
        with BlockFileReader(path) as r:
            with pytest.raises(KeyError):
                r.read_block(5)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.diy"
        path.write_bytes(b"NOTAFILE" + b"\0" * 64)
        with pytest.raises(ValueError, match="magic"):
            BlockFileReader(path)

    def test_version_1_file_rejected(self, tmp_path):
        """Version 1 (no CRCs, 8-byte trailer) is not read: every payload
        a reader hands out has been CRC-checked."""
        payload = pack_arrays({"data": np.arange(3.0)})
        header = struct.pack("<4sIQ", b"DIYB", 1, 1)
        footer_offset = len(header) + len(payload)
        path = tmp_path / "v1.diy"
        path.write_bytes(
            header
            + payload
            + struct.pack("<QQQ", 0, len(header), len(payload))
            + struct.pack("<Q", footer_offset)
        )
        with pytest.raises(CheckpointError, match=r"v1\.diy: unsupported version 1"):
            BlockFileReader(path)

    def test_incomplete_gid_coverage_rejected(self, tmp_path):
        with pytest.raises(Exception):
            run_parallel(1, _write_with_gap, tmp_path / "gap.diy")

    def test_concurrent_block_payloads_do_not_overlap(self, tmp_path):
        path = tmp_path / "big.diy"
        nblocks = 8
        run_parallel(4, _write_random, path, nblocks)
        with BlockFileReader(path) as r:
            for g in range(nblocks):
                expect = np.random.default_rng(g).normal(size=1000)
                np.testing.assert_array_equal(r.read_block_arrays(g)["v"], expect)

    def test_subset_read(self, tmp_path):
        """The postprocessing reader can pull any subset of blocks."""
        path = tmp_path / "s.diy"
        self._write(path, 2, 6)
        with BlockFileReader(path) as r:
            arrs = [r.read_block_arrays(g)["data"] for g in (5, 1, 3)]
        assert [a[0] for a in arrs] == [5.0, 1.0, 3.0]

    def test_parallel_read_from_ranks(self, tmp_path):
        path = tmp_path / "p.diy"
        self._write(path, 2, 4)
        out = run_parallel(2, _read_own_blocks, path, 4)
        merged = {**out[0], **out[1]}
        assert merged == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
