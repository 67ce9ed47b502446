"""Tests for the clip Voronoi reference and Delaunay duality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diy.bounds import Bounds
from repro.geometry.delaunay import delaunay

from .clip_voronoi import voronoi_cells_clip
from .voronoi_cells_reference import circumcenters


def grid_points(n: int, size: float, jitter: float, seed: int = 0) -> np.ndarray:
    """n^3 points on a jittered grid in [0, size)^3 — the HACC IC layout."""
    rng = np.random.default_rng(seed)
    spacing = size / n
    base = (np.mgrid[0:n, 0:n, 0:n].reshape(3, -1).T + 0.5) * spacing
    return base + rng.uniform(-jitter, jitter, size=base.shape) * spacing


class TestClipBackendBasics:
    def test_two_sites_split_box(self):
        box = Bounds.cube(2.0)
        pts = np.array([[0.5, 1.0, 1.0], [1.5, 1.0, 1.0]])
        cells = voronoi_cells_clip(pts, box)
        assert len(cells) == 2
        for c in cells:
            assert not c.complete  # both touch the box walls
            assert c.volume == pytest.approx(4.0)  # half the 2^3 box each
        # The shared bisector face references the other site.
        assert 1 in cells[0].neighbors
        assert 0 in cells[1].neighbors

    def test_volumes_partition_box(self):
        box = Bounds.cube(10.0)
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 10, size=(40, 3))
        cells = voronoi_cells_clip(pts, box)
        assert sum(c.volume for c in cells) == pytest.approx(box.volume, rel=1e-8)

    def test_sites_inside_own_cells(self):
        box = Bounds.cube(5.0)
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 5, size=(30, 3))
        for c in voronoi_cells_clip(pts, box):
            assert c.polyhedron.contains(pts[c.site], rel_eps=1e-7)

    def test_interior_cells_complete(self):
        pts = grid_points(5, 10.0, jitter=0.2, seed=3)
        box = Bounds.cube(10.0)
        cells = voronoi_cells_clip(pts, box)
        complete = [c for c in cells if c.complete]
        # Interior 3^3 sites (of 5^3) should all be complete.
        assert len(complete) >= 27
        for c in complete:
            assert not c.polyhedron.wall_face_mask().any()

    def test_sites_subset(self):
        box = Bounds.cube(5.0)
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 5, size=(30, 3))
        subset = np.array([3, 17, 29])
        cells = voronoi_cells_clip(pts, box, sites=subset)
        assert [c.site for c in cells] == [3, 17, 29]

    def test_coincident_sites_degenerate(self):
        box = Bounds.cube(2.0)
        pts = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5]])
        cells = voronoi_cells_clip(pts, box)
        assert not cells[0].complete and cells[0].polyhedron is None
        assert cells[0].volume == 0.0

    def test_empty_points(self):
        assert voronoi_cells_clip(np.empty((0, 3)), Bounds.cube(1.0)) == []

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            voronoi_cells_clip(np.zeros((5, 2)), Bounds.cube(1.0))

    def test_single_site_is_box(self):
        box = Bounds.cube(3.0)
        cells = voronoi_cells_clip(np.array([[1.0, 1.0, 1.0]]), box)
        assert cells[0].volume == pytest.approx(27.0)
        assert not cells[0].complete

    def test_neighbor_symmetry(self):
        box = Bounds.cube(8.0)
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 8, size=(60, 3))
        cells = voronoi_cells_clip(pts, box)
        by_site = {c.site: c for c in cells}
        for c in cells:
            for nb in c.neighbors:
                assert c.site in by_site[int(nb)].neighbors


class TestPaperCellStatistics:
    """Paper §III-C2: evolved-universe cells average ~15 faces and ~5
    vertices per face.  A Poisson (random) point process is the standard
    model for which those numbers are known analytically (15.54 faces/cell);
    the reference must land close."""

    def test_average_faces_per_cell(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(0, 10, size=(600, 3))
        box = Bounds.cube(10.0)
        cells = [c for c in voronoi_cells_clip(pts, box) if c.complete]
        assert len(cells) > 100
        faces = np.mean([c.polyhedron.num_faces for c in cells])
        assert 13.0 < faces < 17.5  # Poisson-Voronoi expectation 15.54

    def test_average_vertices_per_face(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(0, 10, size=(600, 3))
        box = Bounds.cube(10.0)
        cells = [c for c in voronoi_cells_clip(pts, box) if c.complete]
        vpf = np.mean(
            [len(f) for c in cells for f in c.polyhedron.faces]
        )
        assert 4.5 < vpf < 6.0  # Poisson-Voronoi expectation ~5.23


class TestDelaunayDuality:
    def test_circumcenters_are_voronoi_vertices(self):
        pts = grid_points(4, 8.0, jitter=0.3, seed=9)
        box = Bounds.cube(8.0)
        mesh = delaunay(pts)
        centers = circumcenters(pts, mesh.tetrahedra)
        cells = [c for c in voronoi_cells_clip(pts, box) if c.complete]
        # Every vertex of a complete Voronoi cell is some circumcenter.
        some = cells[: min(10, len(cells))]
        for c in some:
            for v in c.polyhedron.vertices:
                d = np.linalg.norm(centers - v, axis=1)
                assert d.min() < 1e-6

    def test_circumradius_equidistance(self):
        pts = np.random.default_rng(10).uniform(0, 5, size=(50, 3))
        mesh = delaunay(pts)
        centers = circumcenters(pts, mesh.tetrahedra)
        radii = np.linalg.norm(centers - pts[mesh.tetrahedra[:, 0]], axis=1)
        for t in range(0, mesh.num_tetrahedra, 7):
            for k in range(4):
                d = np.linalg.norm(pts[mesh.tetrahedra[t, k]] - centers[t])
                assert d == pytest.approx(radii[t], rel=1e-6)

    def test_delaunay_volume_fills_hull(self):
        pts = np.random.default_rng(11).uniform(0, 4, size=(80, 3))
        mesh = delaunay(pts)
        from scipy.spatial import ConvexHull

        hull = ConvexHull(pts)
        assert mesh.volumes().sum() == pytest.approx(hull.volume, rel=1e-9)

    def test_star_volumes_positive(self):
        pts = np.random.default_rng(14).uniform(0, 4, size=(60, 3))
        mesh = delaunay(pts)
        sv = mesh.vertex_star_volumes()
        assert np.all(sv > 0)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_partition_property(seed):
    """Voronoi cells always partition the container volume exactly."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    box = Bounds.cube(7.0)
    pts = rng.uniform(0, 7.0, size=(n, 3))
    cells = voronoi_cells_clip(pts, box)
    assert sum(c.volume for c in cells) == pytest.approx(box.volume, rel=1e-7)
