"""Tests for ConvexPolyhedron (tests.clip_polyhedron)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diy.bounds import Bounds
from .clip_polyhedron import WALL_IDS, ConvexPolyhedron


def unit_cube() -> ConvexPolyhedron:
    return ConvexPolyhedron.from_bounds(Bounds.cube(1.0))


class TestBoxConstruction:
    def test_box_metrics(self):
        p = ConvexPolyhedron.from_bounds(Bounds((0, 0, 0), (2, 3, 4)))
        assert p.volume() == pytest.approx(24.0)
        assert p.surface_area() == pytest.approx(2 * (2 * 3 + 3 * 4 + 2 * 4))
        np.testing.assert_allclose(p.centroid(), [1.0, 1.5, 2.0])

    def test_box_is_valid(self):
        unit_cube().validate()

    def test_box_face_ids_are_walls(self):
        p = unit_cube()
        assert tuple(p.face_ids) == WALL_IDS
        assert p.wall_face_mask().all()
        assert len(p.neighbor_ids()) == 0

    def test_requires_3d(self):
        with pytest.raises(ValueError):
            ConvexPolyhedron.from_bounds(Bounds.cube(1.0, dim=2))

    def test_contains(self):
        p = unit_cube()
        assert p.contains([0.5, 0.5, 0.5])
        assert p.contains([1.0, 1.0, 1.0])  # boundary, tolerant
        assert not p.contains([1.1, 0.5, 0.5])

    def test_counts(self):
        p = unit_cube()
        assert p.num_vertices == 8
        assert p.num_faces == 6
        assert p.num_face_vertices == 24

    def test_max_distances(self):
        p = unit_cube()
        assert p.max_vertex_distance([0.0, 0.0, 0.0]) == pytest.approx(np.sqrt(3))
        assert p.max_pairwise_vertex_distance() == pytest.approx(np.sqrt(3))

    def test_face_plane_outward(self):
        p = unit_cube()
        normals = [p.face_plane(i)[0] for i in range(6)]
        # One outward normal per axis direction.
        dirs = {tuple(np.round(n).astype(int)) for n in normals}
        assert dirs == {
            (-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)
        }


class TestClipping:
    def test_clip_misses_returns_self(self):
        p = unit_cube()
        q = p.clip_halfspace(np.array([1.0, 0, 0]), 5.0, generator_id=9)
        assert q is p

    def test_clip_everything_returns_none(self):
        p = unit_cube()
        assert p.clip_halfspace(np.array([1.0, 0, 0]), -1.0, generator_id=9) is None

    def test_half_cube(self):
        p = unit_cube().clip_halfspace(np.array([1.0, 0, 0]), 0.5, generator_id=42)
        assert p.volume() == pytest.approx(0.5)
        # Two 1x1 end faces plus four 0.5x1 side faces.
        assert p.surface_area() == pytest.approx(2 * 1.0 + 4 * 0.5)
        p.validate()
        assert 42 in p.face_ids
        assert list(p.face_ids).count(42) == 1

    def test_cap_face_replaces_wall(self):
        p = unit_cube().clip_halfspace(np.array([1.0, 0, 0]), 0.5, generator_id=42)
        # +x wall (-2) must be gone; the other five walls remain.
        assert -2 not in p.face_ids
        assert sorted(i for i in p.face_ids if i < 0) == [-6, -5, -4, -3, -1]

    def test_corner_cut(self):
        n = np.array([1.0, 1.0, 1.0])
        p = unit_cube().clip_halfspace(n, 0.5, generator_id=1)
        # Cuts off everything except the tetrahedron at the origin corner
        # with legs 0.5: volume = 0.5^3/6.
        assert p.volume() == pytest.approx(0.5**3 / 6.0)
        assert p.num_faces == 4
        p.validate()

    def test_oblique_cut_volume_conservation(self):
        n = np.array([1.0, 2.0, 3.0])
        d = float(n @ np.array([0.5, 0.5, 0.5]))
        kept = unit_cube().clip_halfspace(n, d, generator_id=1)
        other = unit_cube().clip_halfspace(-n, -d, generator_id=2)
        assert kept.volume() + other.volume() == pytest.approx(1.0)
        kept.validate()
        other.validate()

    def test_plane_through_vertex_grazing(self):
        # Plane exactly through a corner, barely grazing: keeps everything.
        n = np.array([1.0, 1.0, 1.0])
        p = unit_cube().clip_halfspace(n, 3.0, generator_id=1)
        assert p.volume() == pytest.approx(1.0)

    def test_plane_through_diagonal(self):
        # Cut exactly through the main diagonal plane x = y.
        n = np.array([1.0, -1.0, 0.0])
        p = unit_cube().clip_halfspace(n, 0.0, generator_id=1)
        assert p.volume() == pytest.approx(0.5)
        p.validate()

    def test_repeated_clips_idempotent(self):
        n = np.array([1.0, 0.0, 0.0])
        p1 = unit_cube().clip_halfspace(n, 0.5, generator_id=1)
        p2 = p1.clip_halfspace(n, 0.5, generator_id=1)
        assert p2.volume() == pytest.approx(p1.volume())

    def test_sequential_clips_commute_in_volume(self):
        n1, d1 = np.array([1.0, 0.5, 0.0]), 0.7
        n2, d2 = np.array([0.0, 1.0, -0.5]), 0.3
        a = unit_cube().clip_halfspace(n1, d1, 1).clip_halfspace(n2, d2, 2)
        b = unit_cube().clip_halfspace(n2, d2, 2).clip_halfspace(n1, d1, 1)
        assert a.volume() == pytest.approx(b.volume())

    def test_original_unmodified(self):
        p = unit_cube()
        v0 = p.vertices.copy()
        p.clip_halfspace(np.array([1.0, 0, 0]), 0.5, generator_id=1)
        np.testing.assert_array_equal(p.vertices, v0)
        assert p.num_faces == 6

    def test_tetrahedron_from_clips(self):
        # Carve a tetrahedron out of a big box with 4 planes.
        p = ConvexPolyhedron.from_bounds(Bounds.cube(10.0, origin=-5.0))
        planes = [
            (np.array([-1.0, 0, 0]), 0.0),
            (np.array([0, -1.0, 0]), 0.0),
            (np.array([0, 0, -1.0]), 0.0),
            (np.array([1.0, 1.0, 1.0]), 1.0),
        ]
        for i, (n, d) in enumerate(planes):
            p = p.clip_halfspace(n, d, generator_id=i)
        assert p.volume() == pytest.approx(1.0 / 6.0)
        assert p.num_faces == 4
        assert p.num_vertices == 4
        assert not p.wall_face_mask().any()
        p.validate()


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=3,
        max_size=3,
    ).filter(lambda v: np.linalg.norm(v) > 1e-3),
    st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
)
def test_clip_invariants_random_planes(normal, offset):
    """Clipping never increases volume, and results stay valid and convex."""
    p = ConvexPolyhedron.from_bounds(Bounds.cube(2.0, origin=-1.0))
    v0 = p.volume()
    q = p.clip_halfspace(np.array(normal), offset, generator_id=7)
    if q is None:
        return
    assert q.volume() <= v0 + 1e-9
    assert q.surface_area() > 0
    if q is not p:
        q.validate()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_clip_sequences_stay_closed(seed):
    """Random sequences of cutting planes through the box keep a closed poly."""
    rng = np.random.default_rng(seed)
    p = ConvexPolyhedron.from_bounds(Bounds.cube(2.0, origin=-1.0))
    for i in range(6):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        d = float(n @ rng.uniform(-0.6, 0.6, size=3))
        q = p.clip_halfspace(n, d, generator_id=i)
        if q is None:
            break
        p = q
        p.validate()
        # Volume of two complementary halves adds up (within tolerance).
    assert p.volume() >= 0.0
