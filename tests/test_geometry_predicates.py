"""Tests for the geometric predicates and tolerance policy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .clip_predicates import (
    DEFAULT_REL_EPS,
    INSIDE,
    ON,
    OUTSIDE,
    classify_against_plane,
    orient3d,
    scale_eps,
)


class TestScaleEps:
    def test_scales_with_magnitude(self):
        assert scale_eps(100.0) == pytest.approx(100.0 * DEFAULT_REL_EPS)
        assert scale_eps(-100.0) == pytest.approx(100.0 * DEFAULT_REL_EPS)

    def test_floor_at_unity(self):
        # Tiny objects still get the unit-scale tolerance (no underflow).
        assert scale_eps(1e-30) == pytest.approx(DEFAULT_REL_EPS)

    def test_custom_rel(self):
        assert scale_eps(10.0, rel_eps=1e-3) == pytest.approx(1e-2)


class TestOrient3D:
    def test_positive_orientation(self):
        a, b, c = np.eye(3)
        d = np.zeros(3)
        # d below plane abc: the tetra (a, b, c, d) as defined has a
        # definite sign; its mirror flips it.
        v = orient3d(a, b, c, d)
        assert v != 0
        assert orient3d(b, a, c, d) == pytest.approx(-v)

    def test_coplanar_is_zero(self):
        a = np.array([0.0, 0, 0])
        b = np.array([1.0, 0, 0])
        c = np.array([0.0, 1, 0])
        d = np.array([0.3, 0.4, 0.0])
        assert orient3d(a, b, c, d) == pytest.approx(0.0, abs=1e-15)

    def test_volume_relationship(self):
        # |orient3d| = 6 * tetrahedron volume.
        a = np.zeros(3)
        b = np.array([2.0, 0, 0])
        c = np.array([0.0, 3, 0])
        d = np.array([0.0, 0, 4])
        assert abs(orient3d(a, b, c, d)) == pytest.approx(6.0 * 4.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_antisymmetry_property(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c, d = rng.normal(size=(4, 3))
        v = orient3d(a, b, c, d)
        # Swapping any two of the first three arguments flips the sign.
        assert orient3d(a, c, b, d) == pytest.approx(-v, rel=1e-9, abs=1e-12)
        assert orient3d(c, b, a, d) == pytest.approx(-v, rel=1e-9, abs=1e-12)


class TestClassify:
    def test_three_way_split(self):
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [1.0, 0, 0]])
        out = classify_against_plane(pts, np.array([1.0, 0, 0]), 1.0, eps=1e-9)
        np.testing.assert_array_equal(out, [INSIDE, OUTSIDE, ON])

    def test_eps_widens_on_band(self):
        pts = np.array([[0.95, 0, 0], [1.05, 0, 0]])
        n = np.array([1.0, 0, 0])
        strict = classify_against_plane(pts, n, 1.0, eps=1e-3)
        loose = classify_against_plane(pts, n, 1.0, eps=0.1)
        np.testing.assert_array_equal(strict, [INSIDE, OUTSIDE])
        np.testing.assert_array_equal(loose, [ON, ON])

    def test_unnormalized_normal(self):
        # The plane is n.x = d with n unnormalized — classification must
        # follow the algebraic sign regardless of |n|.
        pts = np.array([[1.0, 1.0, 0.0]])
        out = classify_against_plane(pts, np.array([2.0, 2.0, 0.0]), 5.0, 1e-9)
        assert out[0] == INSIDE  # 2+2=4 < 5
