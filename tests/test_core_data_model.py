"""Direct tests of the block data model (repro.core.data_model)."""

import numpy as np
import pytest

from repro.diy.bounds import Bounds
from repro.core import tessellate
from repro.core.cell import VoronoiCell
from repro.core.data_model import (
    BlockSizeReport,
    VoronoiBlock,
    connectivity_index_dtype,
    index_in_sorted,
    isin_sorted,
)

from .clip_polyhedron import ConvexPolyhedron
from .clip_reference import cell_from_geometry
from .clip_voronoi import VoronoiCellGeometry


def cube_cell(site_id: int, origin: float, size: float = 1.0) -> VoronoiCell:
    poly = ConvexPolyhedron.from_bounds(Bounds.cube(size, origin=origin))
    return VoronoiCell(
        site_id=site_id,
        site=np.full(3, origin + size / 2),
        vertices=poly.vertices,
        faces=poly.faces,
        neighbor_ids=np.arange(6, dtype=np.int64) + 100,
        volume=size**3,
        area=6 * size**2,
    )


class TestFromCells:
    def test_empty(self):
        b = VoronoiBlock.from_cells(0, Bounds.cube(1.0), [])
        assert b.num_cells == 0
        assert b.num_faces == 0
        assert b.num_vertices == 0
        assert b.faces_per_cell() == 0.0
        assert b.vertices_per_face() == 0.0
        assert b.vertex_sharing() == 0.0

    def test_single_cube(self):
        b = VoronoiBlock.from_cells(0, Bounds.cube(2.0), [cube_cell(7, 0.0)])
        assert b.num_cells == 1
        assert b.num_faces == 6
        assert b.num_vertices == 8
        assert b.faces_per_cell() == 6.0
        assert b.vertices_per_face() == 4.0
        assert b.vertex_sharing() == pytest.approx(24 / 8)
        np.testing.assert_array_equal(b.site_ids, [7])
        np.testing.assert_array_equal(
            np.sort(b.neighbors_of_cell(0)), np.arange(6) + 100
        )

    def test_adjacent_cubes_share_vertices(self):
        """Two unit cubes sharing a face pool their common 4 vertices."""
        cells = [cube_cell(1, 0.0), cube_cell(2, 1.0)]
        b = VoronoiBlock.from_cells(0, Bounds.cube(3.0), cells)
        # 8 + 8 corners with 4 shared (the cubes touch at one corner-face?
        # origin 0 cube spans [0,1]^3, origin 1 spans [1,2]^3: they share
        # exactly one corner point (1,1,1).
        assert b.num_vertices == 15
        assert b.num_cells == 2

    def test_cells_roundtrip(self):
        cells = [cube_cell(3, 0.0), cube_cell(9, 2.0)]
        b = VoronoiBlock.from_cells(1, Bounds.cube(4.0), cells)
        back = b.cells()
        assert [c.site_id for c in back] == [3, 9]
        for orig, rec in zip(cells, back):
            assert rec.volume == pytest.approx(orig.volume)
            assert rec.area == pytest.approx(orig.area)
            assert rec.num_faces == orig.num_faces
            np.testing.assert_array_equal(
                np.sort(rec.neighbor_ids), np.sort(orig.neighbor_ids)
            )
            # Same vertex sets (order may change through the pool).
            a = {tuple(np.round(v, 9)) for v in orig.vertices}
            z = {tuple(np.round(v, 9)) for v in rec.vertices}
            assert a == z

    def test_to_from_arrays_roundtrip(self):
        cells = [cube_cell(5, 0.0)]
        b = VoronoiBlock.from_cells(2, Bounds.cube(2.0), cells)
        back = VoronoiBlock.from_arrays(b.to_arrays())
        assert back.gid == 2
        assert back.extents == b.extents
        np.testing.assert_array_equal(back.face_vertices, b.face_vertices)
        np.testing.assert_array_equal(back.volumes, b.volumes)


class TestConnectivityDtype:
    def test_small_blocks_stay_int32(self):
        b = VoronoiBlock.from_cells(0, Bounds.cube(2.0), [cube_cell(7, 0.0)])
        assert b.face_vertices.dtype == np.int32
        assert b.face_offsets.dtype == np.int32
        assert b.cell_face_offsets.dtype == np.int32

    def test_dtype_selection_boundary(self):
        """int32 holds values up to 2**31 - 1; one past that widens."""
        assert connectivity_index_dtype(2**31 - 1) == np.int32
        assert connectivity_index_dtype(2**31) == np.int64
        assert connectivity_index_dtype(0) == np.int32

    def test_from_arrays_roundtrips_wide_dtype(self):
        """A block assembled with int64 connectivity must survive the
        to_arrays/from_arrays cycle without silent renarrowing."""
        b = VoronoiBlock.from_cells(0, Bounds.cube(2.0), [cube_cell(7, 0.0)])
        arrays = b.to_arrays()
        for name in ("face_vertices", "face_offsets", "cell_face_offsets"):
            arrays[name] = arrays[name].astype(np.int64)
        back = VoronoiBlock.from_arrays(arrays)
        assert back.face_vertices.dtype == np.int64
        assert back.face_offsets.dtype == np.int64
        assert back.cell_face_offsets.dtype == np.int64
        again = VoronoiBlock.from_arrays(back.to_arrays())
        assert again.face_vertices.dtype == np.int64


class TestTake:
    @staticmethod
    def cells_by_id(block):
        return {c.site_id: c for c in block.cells()}

    @staticmethod
    def assert_cell_equal(a, b):
        np.testing.assert_array_equal(a.site, b.site)
        np.testing.assert_array_equal(a.neighbor_ids, b.neighbor_ids)
        assert a.volume == b.volume and a.area == b.area
        assert len(a.faces) == len(b.faces)
        for fa, fb in zip(a.faces, b.faces):
            np.testing.assert_array_equal(a.vertices[fa], b.vertices[fb])

    def real_block(self):
        pts = np.random.default_rng(5).uniform(0, 6.0, size=(120, 3))
        return tessellate(pts, Bounds.cube(6.0), nblocks=1, ghost=3.0).blocks[0]

    def test_take_selects_reorders_and_compacts(self):
        block = self.real_block()
        picked = np.array([17, 3, 88, 4])
        sub = block.take(picked)
        np.testing.assert_array_equal(sub.site_ids, block.site_ids[picked])
        np.testing.assert_array_equal(sub.volumes, block.volumes[picked])
        assert sub.num_vertices == len(np.unique(sub.face_vertices))
        assert sub.num_vertices < block.num_vertices
        assert sub.face_vertices.dtype == np.int32
        want = self.cells_by_id(block)
        for cell in sub.cells():
            self.assert_cell_equal(cell, want[cell.site_id])

    def test_take_nothing_and_everything(self):
        block = self.real_block()
        assert block.take(np.empty(0, dtype=np.int64)).num_cells == 0
        same = block.take(np.arange(block.num_cells))
        for name, arr in block.to_arrays().items():
            np.testing.assert_array_equal(same.to_arrays()[name], arr)


class TestIsinSorted:
    def test_basic_membership(self):
        kept = np.array([2, 5, 9], dtype=np.int64)
        values = np.array([-1, 2, 3, 5, 9, 10], dtype=np.int64)
        np.testing.assert_array_equal(
            isin_sorted(values, kept),
            [False, True, False, True, True, False],
        )

    def test_empty_sets(self):
        assert isin_sorted(np.array([1, 2]), np.empty(0, np.int64)).sum() == 0
        assert len(isin_sorted(np.empty(0, np.int64), np.array([1]))) == 0


class TestIndexInSorted:
    def check(self, values, kept):
        """Both strategies must agree with the obvious per-element answer."""
        pos, mask = index_in_sorted(values, kept)
        lookup = {int(v): i for i, v in enumerate(kept)}
        for v, p, m in zip(values.tolist(), pos.tolist(), mask.tolist()):
            assert m == (v in lookup)
            if m:
                assert p == lookup[v]
            else:
                assert p == 0  # clamped, safe for fancy indexing

    def test_dense_table_branch(self):
        kept = np.array([3, 4, 6, 9], dtype=np.int64)  # span 7 <= 4 * len
        values = np.array([-5, 2, 3, 5, 6, 9, 10, 1000], dtype=np.int64)
        self.check(values, kept)

    def test_sparse_searchsorted_branch(self):
        kept = np.array([0, 2**40, 2**62], dtype=np.int64)  # huge span
        values = np.array([-1, 0, 5, 2**40, 2**62, 2**62 + 1], dtype=np.int64)
        self.check(values, kept)

    def test_branches_agree_randomly(self):
        rng = np.random.default_rng(0)
        kept_dense = np.unique(rng.integers(0, 300, size=100))
        kept_sparse = np.unique(rng.integers(0, 2**60, size=100))
        for kept in (kept_dense, kept_sparse):
            lo, hi = int(kept[0]) - 5, int(kept[-1]) + 5
            values = rng.integers(lo, hi, size=500)
            values[:50] = rng.choice(kept, size=50)  # guarantee some hits
            self.check(values, kept)
            pos, mask = index_in_sorted(values, kept)
            np.testing.assert_array_equal(mask, isin_sorted(values, kept))
            np.testing.assert_array_equal(kept[pos[mask]], values[mask])

    def test_empty(self):
        pos, mask = index_in_sorted(np.array([1, 2]), np.empty(0, np.int64))
        assert mask.sum() == 0 and len(pos) == 2
        pos, mask = index_in_sorted(np.empty(0, np.int64), np.array([1]))
        assert len(pos) == 0 and len(mask) == 0


class TestSizeReport:
    def test_breakdown_sums(self):
        pts = np.random.default_rng(0).uniform(0, 8, (300, 3))
        tess = tessellate(pts, Bounds.cube(8.0), nblocks=1, ghost=3.0)
        rep = tess.blocks[0].size_report()
        assert rep.total_bytes == rep.geometry_bytes + rep.connectivity_bytes
        assert 0.0 < rep.geometry_fraction < 1.0

    def test_empty_report(self):
        rep = BlockSizeReport(0, 0)
        assert rep.total_bytes == 0
        assert rep.geometry_fraction == 0.0

    def test_connectivity_dominates_realistic_blocks(self):
        pts = np.random.default_rng(1).uniform(0, 10, (500, 3))
        tess = tessellate(pts, Bounds.cube(10.0), nblocks=2, ghost=3.5)
        for b in tess.blocks:
            assert b.size_report().geometry_fraction < 0.5


class TestCellProperties:
    def test_density_and_neighbors(self):
        c = cube_cell(1, 0.0, size=2.0)
        assert c.density == pytest.approx(1.0 / 8.0)
        np.testing.assert_array_equal(c.real_neighbors(), c.neighbor_ids)

    def test_wall_neighbors_filtered(self):
        c = cube_cell(1, 0.0)
        c.neighbor_ids = np.array([5, -1, 7, -2, 9, -3], dtype=np.int64)
        np.testing.assert_array_equal(c.real_neighbors(), [5, 7, 9])

    def test_degenerate_geometry_rejected(self):
        geom = VoronoiCellGeometry(site=0, polyhedron=None, complete=False)
        with pytest.raises(ValueError):
            cell_from_geometry(geom, np.zeros(3), np.arange(1), 0)

    def test_zero_volume_density_inf(self):
        c = cube_cell(1, 0.0)
        c.volume = 0.0
        assert c.density == np.inf
