"""The native Bowyer–Watson kernel against an exact rational oracle.

``repro._native.delaunay`` triangulates with exact predicates and breaks
cospherical ties by index-order Simulation of Simplicity.  The oracle
(``tests/delaunay_reference.py``) re-decides every orientation and
insphere test over fractions: each tet positive, each perturbed sphere
empty, neighbours reciprocal, the hull closed and convex.  On input
without ties the tet set is qhull's.  The kernel's output does not
depend on the run, the thread, or (without ties) the input order;
input with no four affinely independent points is refused.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native
from repro.diy.bounds import Bounds
from repro.geometry import DelaunayVoronoi

from .clustered import clustered_points
from .delaunay_reference import violations

pytestmark = pytest.mark.skipif(
    not _native.available(), reason="native kernels not built"
)


def tet_set(tets):
    return set(map(tuple, np.sort(tets, axis=1).tolist()))


def lattice(side, jitter=0.0, seed=0):
    """A ``side**3`` unit lattice listed in a shuffled order (a
    lexicographic one would make index order a linear order of space)."""
    g = np.arange(side, dtype=np.float64)
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
    rng = np.random.default_rng(seed)
    pts = pts[rng.permutation(len(pts))]
    if jitter:
        pts = pts + rng.uniform(-jitter, jitter, pts.shape)
    return pts


def ulp_lattice(side, seed=0):
    """A lattice far from the origin, each coordinate moved by up to two
    units in the last place: a float determinant gets ties wrong here."""
    pts = lattice(side, seed=seed) * 0.5 + 1000.0
    steps = np.random.default_rng(seed).integers(-2, 3, pts.shape)
    for _ in range(2):
        pts = np.where(steps > 0, np.nextafter(pts, np.inf), pts)
        pts = np.where(steps < 0, np.nextafter(pts, -np.inf), pts)
        steps -= np.sign(steps)
    return pts


def cospherical():
    """The 30 integer points at distance 5 from the origin, all on one
    sphere, and the origin at its centre."""
    r = [(5, 0, 0), (3, 4, 0), (4, 3, 0), (0, 3, 4), (0, 4, 3), (3, 0, 4),
         (4, 0, 3)]
    pts = {(0, 0, 0)}
    for p in r:
        for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            for signs in np.ndindex(2, 2, 2):
                q = tuple((-1) ** s * p[i] for s, i in zip(signs, perm))
                pts.add(q)
    return np.array(sorted(pts), dtype=np.float64)


def assert_delaunay(pts):
    out = _native.delaunay(pts)
    assert out is not None
    tets, nbrs, dups = out
    assert tets.dtype == nbrs.dtype == dups.dtype == np.int64
    assert violations(pts, tets, nbrs, skip=dups[:, 0]) == []
    return tets, nbrs, dups


class TestAgainstOracle:
    @pytest.mark.parametrize("n", [5, 12, 60])
    def test_random(self, n):
        assert_delaunay(np.random.default_rng(n).random((n, 3)))

    def test_clustered(self):
        assert_delaunay(clustered_points(80, 10.0, seed=4))

    def test_lattice(self):
        assert_delaunay(lattice(4))

    def test_perturbed_lattice(self):
        # 1e-12 jitter: the float filter cannot decide, expansions must
        assert_delaunay(lattice(3, jitter=1e-12, seed=2))

    def test_ulp_lattice(self):
        assert_delaunay(ulp_lattice(3, seed=5))

    def test_cospherical(self):
        pts = cospherical()
        assert_delaunay(pts[np.random.default_rng(2).permutation(len(pts))])

    def test_on_hull_planes(self):
        # a lattice's faces: coplanar hull facets, cocircular on them
        pts = lattice(3)
        assert_delaunay(np.concatenate([pts, pts[:9] + [0.5, 0.25, 0.0]]))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.integers(0, 3)] * 3), min_size=5, max_size=24
        )
    )
    def test_small_integer_grids(self, coords):
        # few distinct values: duplicates, collinear and cospherical ties
        pts = np.array(coords, dtype=np.float64)
        if _native.delaunay(pts) is None:
            _, s, _ = np.linalg.svd(pts - pts[0])
            assert s[2] < 1e-9  # refused: no four independent points
            return
        assert_delaunay(pts)


class TestDuplicates:
    def test_left_out_with_lowest_copy(self):
        base = np.random.default_rng(8).random((20, 3))
        pts = np.concatenate([base, base[[3, 7, 3]], base[:2]])
        order = np.random.default_rng(1).permutation(len(pts))
        pts = pts[order]
        tets, _, dups = assert_delaunay(pts)
        key = [tuple(p) for p in pts]
        lowest = {}
        for i, k in enumerate(key):
            lowest.setdefault(k, i)
        assert sorted(dups[:, 0]) == [i for i, k in enumerate(key) if lowest[k] != i]
        assert (dups[:, 1] == -1).all()
        assert all(lowest[key[d]] == r for d, _, r in dups)
        assert not np.isin(tets, dups[:, 0]).any()


class TestInvariance:
    @pytest.mark.parametrize(
        "pts",
        [np.random.default_rng(5).random((2000, 3)),
         clustered_points(3000, 20.0, seed=6)],
        ids=["uniform", "clustered"],
    )
    def test_equals_qhull(self, pts):
        from scipy.spatial import Delaunay

        tets, nbrs, dups = _native.delaunay(pts)
        assert len(dups) == 0
        assert tet_set(tets) == tet_set(Delaunay(pts).simplices)

    def test_permutation(self):
        pts = clustered_points(1500, 10.0, seed=9)
        perm = np.random.default_rng(3).permutation(len(pts))
        a = _native.delaunay(pts)[0]
        b = _native.delaunay(pts[perm])[0]
        assert tet_set(a) == tet_set(perm[b])

    @pytest.mark.parametrize("jitter", [0.0, 1e-12])
    def test_repeated_runs(self, jitter):
        pts = lattice(6, jitter=jitter, seed=1)
        first = _native.delaunay(pts)
        for _ in range(3):
            again = _native.delaunay(pts)
            for x, y in zip(first, again):
                np.testing.assert_array_equal(x, y)

    def test_concurrent_threads(self):
        pts = [clustered_points(4000, 10.0, seed=s) for s in (1, 2)]
        want = [_native.delaunay(p) for p in pts]
        got = [None, None]
        start = threading.Barrier(2)

        def run(i):
            start.wait()
            got[i] = _native.delaunay(pts[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for w, g in zip(want, got):
            for x, y in zip(w, g):
                np.testing.assert_array_equal(x, y)


class TestRefused:
    @pytest.mark.parametrize(
        "pts",
        [
            np.c_[np.random.default_rng(1).random((30, 2)), np.zeros(30)],
            np.outer(np.arange(10.0), [1.0, 2.0, 3.0]),
            np.ones((6, 3)),
        ],
        ids=["coplanar", "collinear", "one-point"],
    )
    def test_no_four_independent_points(self, pts):
        assert _native.delaunay(pts) is None
        dv = DelaunayVoronoi(pts, Bounds.cube(40.0, origin=-1.0))
        assert dv.num_tets == 0 and not dv.complete.any()


class TestEngineOnTies:
    """Through the engine and ``tessellate``: exact ties are decided, not
    joggled, and decided the same way every time."""

    @pytest.mark.parametrize(
        "pts", [lattice(5) + 0.5, cospherical() + 6.0], ids=["lattice", "cospherical"]
    )
    def test_no_fallback_and_repeatable(self, pts):
        box = Bounds.cube(12.0)
        a, b = DelaunayVoronoi(pts, box), DelaunayVoronoi(pts, box)
        assert not a.used_fallback and a.complete.any()
        for name in ("vertices", "ridge_sites", "ridge_flat", "ridge_offsets",
                     "volumes", "areas", "complete"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_periodic_lattice_counts_no_fallback(self):
        from repro import observe
        from repro.core import tessellate

        g = np.arange(8) + 0.5
        pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
        observe.enable()
        try:
            observe.registry().reset()
            tess = tessellate(pts, Bounds.cube(8.0), nblocks=2, nranks=1, ghost=2.5)
            counters = observe.registry().as_dict()["counters"]
        finally:
            observe.disable()
            observe.registry().reset()
        assert tess.num_cells == len(pts)
        np.testing.assert_allclose(tess.volumes(), 1.0, rtol=1e-9)
        assert not any(k.startswith("geom.degenerate_fallbacks") for k in counters)
