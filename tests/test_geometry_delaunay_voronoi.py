"""Tests for the Delaunay-direct flat Voronoi engine (PR 7).

The engine (:class:`repro.geometry.voronoi_delaunay.DelaunayVoronoi`)
must be indistinguishable from the scipy-Voronoi flat engine
(:class:`repro.geometry.voronoi_flat.FlatVoronoi`) at its interface:
identical complete masks, identical adjacency edge sets, and
volumes/areas matching to 1e-9 relative — on clean Poisson inputs, on
degenerate inputs (lattices, cocircular rings, coplanar/collinear sets,
duplicates), with and without the native C kernels, and end-to-end
through :func:`repro.core.tessellate.tessellate` at several rank counts
on both execution backends.
"""

import numpy as np
import pytest

from repro import _native
from repro.diy.bounds import Bounds
from repro.diy.comm import run_parallel
from repro.diy.decomposition import Decomposition
from repro.core.delaunay_mode import dual_distributed, tessellate_delaunay
from repro.core.tessellate import tessellate
from repro.geometry.voronoi_cells import voronoi_cells_clip
from repro.geometry.voronoi_delaunay import DelaunayVoronoi, tet_circumcenters
from repro.geometry.voronoi_flat import FlatVoronoi


def poisson(n, size, seed):
    return np.random.default_rng(seed).uniform(0, size, size=(n, 3))


def edge_set(engine):
    return set(map(tuple, np.sort(engine.ridge_sites, axis=1).tolist()))


def assert_engines_agree(pts, box):
    """Full interface parity between the two flat engines."""
    dv = DelaunayVoronoi(pts, box)
    fv = FlatVoronoi(pts, box)
    np.testing.assert_array_equal(dv.complete, fv.complete)
    assert edge_set(dv) == edge_set(fv)
    done = dv.complete
    np.testing.assert_allclose(dv.volumes[done], fv.volumes[done], rtol=1e-9)
    np.testing.assert_allclose(dv.areas[done], fv.areas[done], rtol=1e-9)
    # Per-cell ridge sets (ids differ between engines; compare by the
    # site pair each ridge separates).
    for s in np.flatnonzero(done)[::7]:
        got = sorted(
            tuple(np.sort(dv.ridge_sites[r]).tolist())
            for r in dv.cell_ridge_ids(int(s))
        )
        want = sorted(
            tuple(np.sort(fv.ridge_sites[r]).tolist())
            for r in fv.cell_ridge_ids(int(s))
        )
        assert got == want
    return dv, fv


class TestStructure:
    def test_csr_consistency(self):
        pts = poisson(200, 10.0, 0)
        dv = DelaunayVoronoi(pts, Bounds.cube(10.0))
        assert np.all(np.diff(dv.ridge_offsets) >= 3)
        assert dv.ridge_offsets[-1] == len(dv.ridge_flat)
        assert len(dv.ridge_sites) == dv.num_ridges
        assert len(dv.ridge_areas) == dv.num_ridges
        assert dv.ridge_sites.dtype == np.int64
        assert dv.ridge_flat.dtype == np.int64

    def test_cell_ridges_index_both_sides(self):
        pts = poisson(150, 8.0, 1)
        dv = DelaunayVoronoi(pts, Bounds.cube(8.0))
        seen = {}
        for s in range(dv.num_sites):
            for r in dv.cell_ridge_ids(s):
                seen.setdefault(int(r), []).append(s)
        for r, sites in seen.items():
            assert sorted(sites) == sorted(dv.ridge_sites[r].tolist())

    def test_ridge_cycles_lie_on_bisectors(self):
        pts = poisson(100, 8.0, 2)
        dv = DelaunayVoronoi(pts, Bounds.cube(8.0))
        for r in range(0, dv.num_ridges, 50):
            cyc = dv.ridge_cycle(r)
            assert len(cyc) >= 3
            v = dv.vertices[cyc]
            p, q = dv.ridge_sites[r]
            axis = pts[q] - pts[p]
            axis = axis / np.linalg.norm(axis)
            mid = 0.5 * (pts[p] + pts[q])
            d = (v - mid) @ axis
            assert np.max(np.abs(d)) < 1e-8

    def test_circumcenters_equidistant(self):
        pts = poisson(120, 6.0, 3)
        from scipy.spatial import Delaunay

        tri = Delaunay(pts)
        tets = tri.simplices.astype(np.int64)
        centers = tet_circumcenters(pts, tets)
        for k in range(4):
            d = pts[tets[:, k]] - centers
            r = np.sqrt(np.einsum("ij,ij->i", d, d))
            if k == 0:
                r0 = r
            else:
                np.testing.assert_allclose(r, r0, rtol=1e-6)

    def test_mesh_property_roundtrip(self):
        pts = poisson(200, 8.0, 4)
        dv = DelaunayVoronoi(pts, Bounds.cube(8.0))
        mesh = dv.mesh
        assert mesh.tetrahedra.shape == (dv.num_tets, 4)
        assert mesh.neighbors.shape == (dv.num_tets, 4)
        # Tets tile the convex hull: volumes all positive at generic sites.
        assert np.all(mesh.volumes() > 0)


class TestParity:
    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_poisson_parity(self, seed):
        pts = poisson(250, 10.0, seed)
        assert_engines_agree(pts, Bounds.cube(10.0))

    @pytest.mark.parametrize("seed", (0, 5))
    def test_agrees_with_clip_oracle(self, seed):
        pts = poisson(180, 9.0, seed)
        box = Bounds.cube(9.0)
        dv = DelaunayVoronoi(pts, box)
        cells = voronoi_cells_clip(pts, box)
        for s, cell in enumerate(cells):
            if dv.complete[s] and cell.complete:
                assert dv.volumes[s] == pytest.approx(cell.volume, rel=1e-9)


class TestDegenerate:
    """Property tests on inputs that stress qhull's degeneracy handling."""

    def test_lattice(self):
        # Perfect cubic lattice: every site cospherical with its
        # neighbors, maximally degenerate circumspheres.
        side = np.arange(6, dtype=float) + 0.5
        g = np.meshgrid(side, side, side, indexing="ij")
        pts = np.column_stack([a.ravel() for a in g])
        assert_engines_agree(pts, Bounds.cube(6.0))

    def test_cocircular_ring(self):
        rng = np.random.default_rng(11)
        t = np.linspace(0, 2 * np.pi, 24, endpoint=False)
        ring = np.column_stack(
            [2 + np.cos(t), 2 + np.sin(t), np.full_like(t, 2.0)]
        )
        poles = np.array([[2.0, 2.0, 0.5], [2.0, 2.0, 3.5]])
        extra = rng.uniform(0, 4, size=(40, 3))
        pts = np.concatenate([ring, poles, extra])
        assert_engines_agree(pts, Bounds.cube(4.0))

    def test_duplicates(self):
        rng = np.random.default_rng(12)
        base = rng.uniform(0, 8, size=(100, 3))
        pts = np.concatenate([base, base[::10]])  # 10 exact duplicates
        # Which member of a coincident pair qhull keeps is its choice;
        # the contract is only that both engines make the *same* choice
        # (assert_engines_agree compares the full complete masks).
        dv, fv = assert_engines_agree(pts, Bounds.cube(8.0))
        np.testing.assert_allclose(dv.volumes, fv.volumes, rtol=1e-9)

    def test_coplanar_all_incomplete(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(0, 5, size=(80, 3))
        pts[:, 2] = 2.5
        dv = DelaunayVoronoi(pts, Bounds.cube(5.0))
        fv = FlatVoronoi(pts, Bounds.cube(5.0))
        assert not dv.complete.any()
        assert not fv.complete.any()
        assert dv.used_fallback

    def test_collinear_all_incomplete(self):
        pts = np.column_stack([
            np.linspace(0.5, 4.5, 40),
            np.full(40, 2.0),
            np.full(40, 2.0),
        ])
        dv = DelaunayVoronoi(pts, Bounds.cube(5.0))
        assert not dv.complete.any()

    def test_tiny_inputs(self):
        box = Bounds.cube(4.0)
        for n in (1, 2, 4):
            pts = poisson(n, 4.0, n)
            dv = DelaunayVoronoi(pts, box)
            assert dv.num_sites == n
            assert dv.num_ridges == 0
            assert not dv.complete.any()


class TestNativeFallback:
    def test_loader_reports_state(self):
        # Whichever way this host resolved, the two accessors agree.
        if _native.available():
            assert _native.build_error() is None
        else:
            assert _native.build_error()

    def test_numpy_fallback_parity(self, monkeypatch):
        pts = poisson(300, 10.0, 21)
        box = Bounds.cube(10.0)
        with_native = DelaunayVoronoi(pts, box)
        monkeypatch.setattr(_native, "_lib", None)
        monkeypatch.setattr(_native, "_tried", True)
        assert not _native.available()
        without = DelaunayVoronoi(pts, box)
        np.testing.assert_array_equal(with_native.complete, without.complete)
        np.testing.assert_array_equal(
            with_native.ridge_offsets, without.ridge_offsets
        )
        np.testing.assert_array_equal(
            with_native.ridge_flat, without.ridge_flat
        )
        # Native and NumPy paths sum ring areas in different orders, so
        # bitwise equality is not expected — 1e-9 relative is the contract.
        np.testing.assert_allclose(
            with_native.ridge_areas, without.ridge_areas, rtol=1e-9
        )
        np.testing.assert_allclose(
            with_native.volumes, without.volumes, rtol=1e-9
        )


class TestOwnedOnly:
    """``n_owned=`` drops ghost-ghost ridges and nothing an owned cell
    reads — with the native kernels and on the NumPy fallback."""

    @pytest.fixture(params=("native", "numpy"))
    def kernels(self, request, monkeypatch):
        if request.param == "numpy":
            monkeypatch.setattr(_native, "_lib", None)
            monkeypatch.setattr(_native, "_tried", True)
        elif not _native.available():
            pytest.skip("native kernels unavailable")

    @pytest.mark.parametrize("n_owned", (1, 120, 399, 400))
    def test_owned_rows_identical(self, kernels, n_owned):
        pts = poisson(400, 10.0, 61)
        box = Bounds.cube(10.0)
        full = DelaunayVoronoi(pts, box)
        part = DelaunayVoronoi(pts, box, n_owned=n_owned)
        # the triangulation and the dual-mode contract are untouched
        np.testing.assert_array_equal(part.mesh.tetrahedra, full.mesh.tetrahedra)
        np.testing.assert_array_equal(part.vertices, full.vertices)
        np.testing.assert_array_equal(part.tet_circumcenters, full.vertices)
        # every ridge kept has an owned side; none of the owned ones is lost
        assert (part.ridge_sites.min(axis=1) < n_owned).all()
        owned_ridges = full.ridge_sites.min(axis=1) < n_owned
        np.testing.assert_array_equal(
            part.ridge_sites, full.ridge_sites[owned_ridges]
        )
        np.testing.assert_array_equal(
            part.ridge_areas, full.ridge_areas[owned_ridges]
        )
        own = slice(0, n_owned)
        np.testing.assert_array_equal(part.complete[own], full.complete[own])
        np.testing.assert_array_equal(part.volumes[own], full.volumes[own])
        np.testing.assert_array_equal(part.areas[own], full.areas[own])
        for s in range(0, n_owned, 13):
            np.testing.assert_array_equal(
                part.cell_neighbors(s), full.cell_neighbors(s)
            )
            for rp, rf in zip(part.cell_ridge_ids(s), full.cell_ridge_ids(s)):
                np.testing.assert_array_equal(
                    part.ridge_cycle(rp), full.ridge_cycle(rf)
                )

    def test_no_owned_edge_left(self, kernels):
        # every site "owned" is the plain call; none owned leaves no ridge
        pts = poisson(50, 4.0, 62)
        dv = DelaunayVoronoi(pts, Bounds.cube(4.0), n_owned=0)
        assert dv.num_ridges == 0 and dv.num_tets > 0
        assert dv.cell_ridges_offsets[-1] == 0


class TestTessellateParity:
    @pytest.mark.parametrize("nblocks", (1, 2, 4))
    @pytest.mark.parametrize("exec_backend", ("thread", "process"))
    def test_delaunay_matches_qhull(self, nblocks, exec_backend):
        pts = poisson(400, 10.0, 31)
        domain = Bounds.cube(10.0)
        kw = dict(nblocks=nblocks, exec_backend=exec_backend)
        a = tessellate(pts, domain, backend="delaunay", **kw)
        b = tessellate(pts, domain, backend="qhull", **kw)
        assert a.num_cells == b.num_cells
        ia = np.argsort(a.site_ids())
        ib = np.argsort(b.site_ids())
        np.testing.assert_array_equal(a.site_ids()[ia], b.site_ids()[ib])
        np.testing.assert_allclose(
            a.volumes()[ia], b.volumes()[ib], rtol=1e-9
        )
        np.testing.assert_allclose(a.areas()[ia], b.areas()[ib], rtol=1e-9)

    def test_culling_parity(self):
        pts = poisson(500, 10.0, 32)
        domain = Bounds.cube(10.0)
        vmin = 1000.0 / 500.0 * 0.5
        a = tessellate(pts, domain, nblocks=2, backend="delaunay", vmin=vmin)
        b = tessellate(pts, domain, nblocks=2, backend="qhull", vmin=vmin)
        assert a.num_cells == b.num_cells
        np.testing.assert_array_equal(
            np.sort(a.site_ids()), np.sort(b.site_ids())
        )


class TestObserveCounters:
    def test_geom_counters_recorded(self):
        from repro import observe

        observe.enable()
        try:
            observe.registry().reset()
            pts = poisson(300, 10.0, 51)
            tessellate(pts, Bounds.cube(10.0), nblocks=2)
            counters = observe.registry().as_dict()["counters"]
            assert counters["geom.tets"] > 0
            assert counters["geom.finite_ridges"] > 0
            assert counters["geom.complete_cells"] == 300
        finally:
            observe.disable()
            observe.registry().reset()

    def test_degenerate_counters_recorded(self):
        from repro import observe
        from repro.core.tessellate import _observe_geometry

        observe.enable()
        try:
            observe.registry().reset()
            # A coplanar slab *through tessellate* gains periodic ghost
            # images and becomes 3D, so qhull succeeds but emits many
            # cospherical slivers — the dropped-ridge counter fires.
            pts = poisson(60, 5.0, 52)
            pts[:, 2] = 2.5
            tessellate(pts, Bounds.cube(5.0), nblocks=1)
            counters = observe.registry().as_dict()["counters"]
            assert counters.get("geom.degenerate_ridges_dropped", 0) > 0
            # The raw engine on the same slab (no ghosts) has no 3D hull
            # at all and takes the joggle fallback.
            dv = DelaunayVoronoi(pts, Bounds.cube(5.0))
            assert dv.used_fallback
            _observe_geometry(dv, len(pts))
            counters = observe.registry().as_dict()["counters"]
            assert counters.get("geom.degenerate_fallbacks", 0) >= 1
        finally:
            observe.disable()
            observe.registry().reset()


class TestDualDistributed:
    @pytest.mark.parametrize("nblocks", (1, 2))
    def test_one_triangulation_both_outputs(self, nblocks):
        pts = poisson(350, 10.0, 41)
        domain = Bounds.cube(10.0)
        decomp = Decomposition.regular(domain, nblocks, periodic=True)
        ids = np.arange(len(pts), dtype=np.int64)

        def worker(comm):
            mine = decomp.locate(pts) == comm.rank
            return dual_distributed(
                comm, decomp, pts[mine], ids[mine], ghost=4.0
            )

        results = run_parallel(nblocks, worker)
        vcells = sum(b.num_cells for b, _ in results)
        assert vcells == len(pts)
        vol = sum(float(b.volumes.sum()) for b, _ in results)
        assert vol == pytest.approx(domain.volume, rel=1e-9)

        # The dual tet soup matches the standalone Delaunay mode exactly.
        ref = tessellate_delaunay(pts, domain, nblocks=nblocks, ghost=4.0)
        tets = np.concatenate([d.tetrahedra for _, d in results])
        tets = np.sort(tets, axis=1)
        tets = tets[np.lexsort(tets.T[::-1])]
        np.testing.assert_array_equal(tets, ref.all_tetrahedra())
