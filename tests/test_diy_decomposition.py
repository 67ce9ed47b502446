"""Unit and property tests for repro.diy.decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diy.bounds import Bounds
from repro.diy.decomposition import Decomposition, factor_into_grid


class TestFactorIntoGrid:
    def test_small_counts(self):
        assert factor_into_grid(1) == (1, 1, 1)
        assert factor_into_grid(2) == (2, 1, 1)
        assert factor_into_grid(8) == (2, 2, 2)
        assert factor_into_grid(64) == (4, 4, 4)

    def test_non_cube_counts(self):
        assert np.prod(factor_into_grid(12)) == 12
        assert factor_into_grid(12) == (3, 2, 2)

    def test_prime(self):
        assert factor_into_grid(7) == (7, 1, 1)

    def test_2d(self):
        assert factor_into_grid(4, dim=2) == (2, 2)
        assert factor_into_grid(6, dim=2) == (3, 2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            factor_into_grid(0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=256))
    def test_product_preserved(self, n):
        grid = factor_into_grid(n)
        assert int(np.prod(grid)) == n
        assert len(grid) == 3


class TestDecompositionStructure:
    def test_block_count_and_bounds_partition(self):
        d = Decomposition(Bounds.cube(8.0), (2, 2, 2))
        assert d.nblocks == 8
        total = sum(b.core.volume for b in d.blocks())
        assert total == pytest.approx(8.0**3)

    def test_gid_coords_roundtrip(self):
        d = Decomposition(Bounds.cube(6.0), (3, 2, 1))
        for gid in range(d.nblocks):
            assert d.gid_of_coords(d.coords_of_gid(gid)) == gid

    def test_regular_constructor(self):
        d = Decomposition.regular(Bounds.cube(8.0), 8)
        assert d.grid == (2, 2, 2)

    def test_mismatched_grid_raises(self):
        with pytest.raises(ValueError):
            Decomposition(Bounds.cube(1.0), (2, 2))

    def test_single_block_periodic_has_self_links(self):
        # A 1x1x1 periodic decomposition links the block to itself through
        # every periodic wrap (needed to ghost across the seam in serial).
        d = Decomposition(Bounds.cube(4.0), (1, 1, 1), periodic=True)
        links = d.block(0).links
        assert len(links) == 26
        assert all(link.gid == 0 and link.is_periodic for link in links)

    def test_single_block_nonperiodic_has_no_links(self):
        d = Decomposition(Bounds.cube(4.0), (1, 1, 1), periodic=False)
        assert d.block(0).links == ()

    def test_interior_block_has_26_neighbors(self):
        d = Decomposition(Bounds.cube(9.0), (3, 3, 3), periodic=False)
        center = d.gid_of_coords((1, 1, 1))
        assert len(d.block(center).links) == 26

    def test_corner_block_nonperiodic(self):
        d = Decomposition(Bounds.cube(9.0), (3, 3, 3), periodic=False)
        corner = d.gid_of_coords((0, 0, 0))
        assert len(d.block(corner).links) == 7  # 2^3 - 1 octant

    def test_corner_block_periodic_sees_26_links(self):
        d = Decomposition(Bounds.cube(9.0), (3, 3, 3), periodic=True)
        corner = d.gid_of_coords((0, 0, 0))
        assert len(d.block(corner).links) == 26

    def test_periodic_wrap_flags(self):
        d = Decomposition(Bounds.cube(4.0), (2, 1, 1), periodic=True)
        b0 = d.block(0)
        wraps = {(l.gid, l.wrap) for l in b0.links}
        # Block 0's +x neighbor is block 1 directly (no wrap) AND block 1
        # through the -x periodic seam.
        assert (1, (0, 0, 0)) in wraps
        assert any(g == 1 and w[0] == -1 for g, w in wraps)

    def test_links_are_symmetric(self):
        d = Decomposition(Bounds.cube(8.0), (2, 2, 2), periodic=True)
        for b in d.blocks():
            for link in b.links:
                back = [
                    l
                    for l in d.block(link.gid).links
                    if l.gid == b.gid
                    and l.wrap == tuple(-w for w in link.wrap)
                ]
                assert back, f"no reverse link for {b.gid}->{link}"


class TestLocate:
    def test_locate_simple(self):
        d = Decomposition(Bounds.cube(8.0), (2, 2, 2))
        gids = d.locate(np.array([[1.0, 1.0, 1.0], [5.0, 5.0, 5.0]]))
        assert gids[0] == d.gid_of_coords((0, 0, 0))
        assert gids[1] == d.gid_of_coords((1, 1, 1))

    def test_locate_on_internal_face(self):
        d = Decomposition(Bounds.cube(8.0), (2, 1, 1))
        # Half-open: x=4 belongs to the upper block.
        assert d.locate(np.array([[4.0, 0.0, 0.0]]))[0] == d.gid_of_coords((1, 0, 0))

    def test_locate_on_domain_upper_face_wraps_when_periodic(self):
        # x = 8.0 is the periodic image of x = 0.0: it belongs to the
        # *first* block, exactly like a particle that drifted across the
        # seam.  (It used to be clamped into the last block, which put
        # seam-straddling particles one block off.)
        d = Decomposition(Bounds.cube(8.0), (2, 1, 1), periodic=True)
        assert d.locate(np.array([[8.0, 0.0, 0.0]]))[0] == d.gid_of_coords((0, 0, 0))

    def test_locate_on_domain_upper_face_clamps_when_nonperiodic(self):
        # A bounded domain is closed at the top: x = 8.0 is still inside
        # and lands in the last block.
        d = Decomposition(Bounds.cube(8.0), (2, 1, 1), periodic=False)
        assert d.locate(np.array([[8.0, 0.0, 0.0]]))[0] == d.gid_of_coords((1, 0, 0))

    def test_locate_wraps_beyond_domain_when_periodic(self):
        # Regression: hi + eps and lo - eps must wrap, not clamp.
        box = 8.0
        d = Decomposition(Bounds.cube(box), (2, 1, 1), periodic=True)
        eps = 1e-9
        hi_plus = d.locate(np.array([[box + eps, 1.0, 1.0]]))[0]
        lo_minus = d.locate(np.array([[-eps, 1.0, 1.0]]))[0]
        assert hi_plus == d.gid_of_coords((0, 0, 0))
        assert lo_minus == d.gid_of_coords((1, 0, 0))
        # Per-axis flags: only the periodic axis wraps.
        d2 = Decomposition(
            Bounds.cube(box), (2, 1, 1), periodic=(True, False, False)
        )
        assert d2.locate(np.array([[box + eps, 1.0, 1.0]]))[0] == 0

    def test_locate_rejects_outside_nonperiodic_domain(self):
        d = Decomposition(Bounds.cube(8.0), (2, 1, 1), periodic=False)
        with pytest.raises(ValueError, match="outside the non-periodic"):
            d.locate(np.array([[8.5, 1.0, 1.0]]))
        with pytest.raises(ValueError, match="outside the non-periodic"):
            d.locate(np.array([[-0.5, 1.0, 1.0]]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=27))
    def test_locate_agrees_with_contains(self, nblocks):
        d = Decomposition.regular(Bounds.cube(10.0), nblocks)
        rng = np.random.default_rng(nblocks)
        pts = rng.uniform(0.0, 10.0, size=(50, 3))
        gids = d.locate(pts)
        for p, g in zip(pts, gids):
            assert d.block(int(g)).core.contains(p)


def _face_points(d):
    """Coordinates on, and one ulp either side of, every block face of
    ``d`` (domain faces included), plus just outside the domain, crossed
    over the three axes."""
    lo, hi = d.domain.as_arrays()
    per_axis = []
    for axis, g in enumerate(d.grid):
        faces = lo[axis] + d.domain.sizes[axis] / g * np.arange(g + 1)
        faces[-1] = hi[axis]
        near = np.concatenate(
            [faces, np.nextafter(faces, -np.inf), np.nextafter(faces, np.inf),
             [lo[axis] - 1e-300, -0.0 + lo[axis], hi[axis] + 1e-9]]
        )
        if not d.periodic[axis]:  # locate refuses points outside
            near = near[(near >= lo[axis]) & (near <= hi[axis])]
        per_axis.append(near)
    return np.stack(np.meshgrid(*per_axis, indexing="ij"), axis=-1).reshape(-1, 3)


class TestLocateFrom:
    """``locate_from(gid, points)`` is ``locate(points)`` bit for bit, for
    every block, on every face and one ulp either side of it."""

    @pytest.mark.parametrize(
        "box, grid, periodic",
        [
            (8.0, (2, 2, 2), True),
            (10.0, (3, 2, 1), (True, False, True)),
            (7.3, (3, 3, 3), False),
            # inexact cells: (p - lo) / cell rounds across a face one ulp
            # before it (1.0 / 6, 7.3 / 7) or one ulp after it (0.7 / 4,
            # 1.0 / 9), and 7.3 / (7.3 / 7) rounds below 7, so a point at
            # the periodic upper face has a grid coordinate inside block 6
            (7.3, (7, 1, 1), True),
            (1.0, (6, 9, 1), True),
            (0.7, (4, 8, 1), False),
        ],
    )
    def test_equals_locate_on_block_faces(self, box, grid, periodic):
        d = Decomposition(Bounds.cube(box), grid, periodic=periodic)
        pts = _face_points(d)
        want = d.locate(pts)
        for gid in range(d.nblocks):
            np.testing.assert_array_equal(d.locate_from(gid, pts), want)

    def test_equals_locate_on_random_and_wrapped_points(self):
        d = Decomposition(Bounds.cube(5.0, origin=-2.0), (2, 3, 2))
        pts = np.random.default_rng(1).uniform(-7.0, 8.0, size=(2000, 3))
        want = d.locate(pts)
        for gid in range(d.nblocks):
            np.testing.assert_array_equal(d.locate_from(gid, pts), want)

    def test_rejects_outside_nonperiodic_domain_like_locate(self):
        d = Decomposition(Bounds.cube(8.0), (2, 1, 1), periodic=False)
        with pytest.raises(ValueError, match="outside the non-periodic"):
            d.locate_from(0, np.array([[1.0, 1.0, 1.0], [8.5, 1.0, 1.0]]))


class TestGidValidation:
    def test_block_rejects_bad_gid(self):
        d = Decomposition(Bounds.cube(8.0), (2, 2, 2))
        with pytest.raises(ValueError, match=r"gid 8 .*\(2, 2, 2\)"):
            d.block(8)
        with pytest.raises(ValueError, match="gid -1"):
            d.block(-1)

    def test_coords_of_gid_rejects_bad_gid(self):
        d = Decomposition(Bounds.cube(8.0), (2, 2, 2))
        with pytest.raises(ValueError, match="gid 99"):
            d.coords_of_gid(99)

    def test_neighbors_near_point_rejects_bad_gid(self):
        d = Decomposition(Bounds.cube(8.0), (2, 2, 2))
        with pytest.raises(ValueError, match="gid 12"):
            d.neighbors_near_point(12, np.zeros(3), radius=1.0)
        with pytest.raises(ValueError, match="gid 12"):
            d.neighbors_near_points(12, np.zeros((1, 3)), radius=1.0)


class TestNearPointTargeting:
    def test_interior_point_reaches_no_neighbor(self):
        d = Decomposition(Bounds.cube(8.0), (2, 2, 2), periodic=True)
        links = d.neighbors_near_point(0, np.array([2.0, 2.0, 2.0]), radius=1.0)
        assert links == []

    def test_point_near_face_reaches_face_neighbor(self):
        d = Decomposition(Bounds.cube(8.0), (2, 1, 1), periodic=False)
        links = d.neighbors_near_point(0, np.array([3.5, 4.0, 4.0]), radius=1.0)
        assert [l.gid for l in links] == [1]

    def test_point_near_periodic_seam(self):
        d = Decomposition(Bounds.cube(8.0), (2, 1, 1), periodic=True)
        # Block 0 core is [0,4); a point at x=0.5 is near the -x seam, behind
        # which (periodically) lies block 1.
        links = d.neighbors_near_point(0, np.array([0.5, 2.0, 2.0]), radius=1.0)
        assert len(links) == 1
        assert links[0].gid == 1 and links[0].wrap[0] == -1

    def test_corner_point_reaches_multiple(self):
        d = Decomposition(Bounds.cube(8.0), (2, 2, 2), periodic=False)
        links = d.neighbors_near_point(0, np.array([3.9, 3.9, 3.9]), radius=0.5)
        assert len(links) == 7  # face x3, edge x3, corner x1

    def test_vectorized_matches_scalar(self):
        d = Decomposition(Bounds.cube(8.0), (2, 2, 2), periodic=True)
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 4.0, size=(100, 3))
        bulk = d.neighbors_near_points(0, pts, radius=1.2)
        for link, mask in bulk:
            for i, p in enumerate(pts):
                scalar = d.neighbors_near_point(0, p, radius=1.2)
                hit = any(
                    l.gid == link.gid and l.wrap == link.wrap for l in scalar
                )
                assert hit == bool(mask[i])
