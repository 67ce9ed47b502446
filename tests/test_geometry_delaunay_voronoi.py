"""Tests for the production Voronoi engine.

The engine (:class:`repro.geometry.voronoi_delaunay.DelaunayVoronoi`)
is held to the independent reference
(:func:`tests.clip_voronoi.voronoi_cells_clip` — KD-tree +
halfspace clipping, no qhull): identical complete masks, identical
per-cell neighbor sets, and volumes/areas matching to 1e-9 relative — on
clean Poisson inputs, on the jittered grid of the simulation's initial
conditions and on degenerate inputs (lattices, cocircular rings,
coplanar/collinear sets, duplicates).  ``TestKernelCells`` holds the
kernel's cells pass to the NumPy oracle
(``tests/voronoi_cells_reference.py``) on the same triangulation, and
``TestQhullOracle`` the engine to the oracle on qhull's.
``tests/test_clip_reference.py`` does the same end to end through
:func:`repro.core.tessellate.tessellate`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native
from repro.diy.bounds import Bounds
from repro.core.tessellate import tessellate
from repro.geometry.voronoi_delaunay import DelaunayVoronoi

from .clip_reference import CLIP_VOL_RTOL
from .clip_voronoi import voronoi_cells_clip
from .voronoi_cells_reference import reference_diagram


def poisson(n, size, seed):
    return np.random.default_rng(seed).uniform(0, size, size=(n, 3))


def assert_agrees_with_clip(pts, box):
    """The engine against the reference, cell by cell: completeness,
    volume, surface area and the set of face neighbors."""
    dv = DelaunayVoronoi(pts, box)
    cells = voronoi_cells_clip(pts, box)
    np.testing.assert_array_equal(dv.complete, [c.complete for c in cells])
    done = np.flatnonzero(dv.complete)
    np.testing.assert_allclose(
        dv.volumes[done], [cells[s].volume for s in done], rtol=CLIP_VOL_RTOL
    )
    np.testing.assert_allclose(
        dv.areas[done], [cells[s].surface_area for s in done], rtol=CLIP_VOL_RTOL
    )
    for s in done:
        assert set(dv.cell_neighbors(int(s)).tolist()) == set(
            cells[s].neighbors.tolist()
        )
    return dv, cells


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

    def test_cell_neighbors(self):
        pts = poisson(120, 8.0, 3)
        dv = DelaunayVoronoi(pts, Bounds.cube(8.0))
        for s in range(0, 120, 17):
            nbs = dv.cell_neighbors(s)
            assert s not in nbs
            assert len(nbs) == len(dv.cell_ridge_ids(s))

    def test_bisector_volume_identity(self):
        """V_cell = (1/6) sum A_r d_r over the cell's ridges."""
        pts = poisson(150, 8.0, 6)
        dv = DelaunayVoronoi(pts, Bounds.cube(8.0))
        for s in np.flatnonzero(dv.complete)[:10]:
            rids = dv.cell_ridge_ids(int(s))
            d = np.linalg.norm(
                pts[dv.ridge_sites[rids, 0]] - pts[dv.ridge_sites[rids, 1]],
                axis=1,
            )
            v = float((dv.ridge_areas[rids] * d).sum() / 6.0)
            assert v == pytest.approx(dv.volumes[s], rel=1e-12)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            DelaunayVoronoi(np.zeros((5, 2)), Bounds.cube(1.0))

    def test_circumcenters_equidistant(self):
        pts = poisson(120, 6.0, 3)
        dv = DelaunayVoronoi(pts, Bounds.cube(6.0))
        tets, centers = dv.mesh.tetrahedra, dv.vertices
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
        dv, _ = assert_agrees_with_clip(pts, Bounds.cube(10.0))
        assert 0 < dv.complete.sum() < len(pts) and not dv.degenerate

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_jittered_grid_parity(self, seed):
        # n^3 points on a jittered grid: the HACC initial-condition layout
        n, size = 6, 12.0
        rng = np.random.default_rng(seed)
        base = (np.mgrid[0:n, 0:n, 0:n].reshape(3, -1).T + 0.5) * size / n
        pts = base + rng.uniform(-0.3, 0.3, size=base.shape) * size / n
        dv, _ = assert_agrees_with_clip(pts, Bounds.cube(size))
        assert dv.complete.sum() >= 4**3  # the deep interior

    def test_cell_diameters_match_clip_polyhedra(self):
        # the early-cull quantity, against the reference's own vertices
        pts = poisson(120, 6.0, 5)
        box = Bounds.cube(6.0)
        dv = DelaunayVoronoi(pts, box)
        done = np.flatnonzero(dv.complete)
        cells = voronoi_cells_clip(pts, box, sites=done)
        np.testing.assert_allclose(
            dv.max_vertex_separations(done),
            [c.polyhedron.max_pairwise_vertex_distance() for c in cells],
            rtol=CLIP_VOL_RTOL,
        )
        assert len(done) > 10


class TestDegenerate:
    """Property tests on inputs that stress qhull's degeneracy handling."""

    def test_lattice(self):
        # Perfect cubic lattice: every site cospherical with its
        # neighbors, maximally degenerate circumspheres.
        side = np.arange(6, dtype=float) + 0.5
        g = np.meshgrid(side, side, side, indexing="ij")
        pts = np.column_stack([a.ravel() for a in g])
        dv, _ = assert_agrees_with_clip(pts, Bounds.cube(6.0))
        assert dv.degenerate and dv.degenerate_ridges_dropped > 0
        assert dv.complete.sum() == 4**3

    def test_cocircular_ring(self):
        rng = np.random.default_rng(11)
        t = np.linspace(0, 2 * np.pi, 24, endpoint=False)
        ring = np.column_stack(
            [2 + np.cos(t), 2 + np.sin(t), np.full_like(t, 2.0)]
        )
        poles = np.array([[2.0, 2.0, 0.5], [2.0, 2.0, 3.5]])
        extra = rng.uniform(0, 4, size=(40, 3))
        pts = np.concatenate([ring, poles, extra])
        dv, _ = assert_agrees_with_clip(pts, Bounds.cube(4.0))
        assert dv.complete.any()

    def test_duplicates(self):
        # The reference declines coincident sites (a degenerate cell for
        # both twins), so the oracle is clip on the *deduplicated* set:
        # each coincident pair must carry exactly that one cell — on
        # whichever twin qhull kept — and every other cell is unchanged.
        rng = np.random.default_rng(12)
        base = rng.uniform(0, 8, size=(100, 3))
        pts = np.concatenate([base, base[::10]])  # 10 exact duplicates
        original = np.concatenate([np.arange(100), np.arange(0, 100, 10)])
        box = Bounds.cube(8.0)
        dv = DelaunayVoronoi(pts, box)
        assert dv.degenerate and dv.merged_sites == 10
        cells = voronoi_cells_clip(base, box)
        for c in voronoi_cells_clip(pts, box)[::10][:10]:
            assert not c.complete and c.polyhedron is None
        has_ridges = np.diff(dv.cell_ridges_offsets) > 0
        for s, want in enumerate(cells):
            twins = np.flatnonzero(original == s)
            # one twin is in the triangulation; the other has no ridges
            # and no volume
            assert has_ridges[twins].sum() == 1
            keeper = int(twins[has_ridges[twins]][0])
            assert np.all(dv.volumes[twins[twins != keeper]] == 0)
            assert dv.complete[keeper] == want.complete
            if not want.complete:
                continue
            assert dv.volumes[keeper] == pytest.approx(
                want.volume, rel=CLIP_VOL_RTOL
            )
            got = set(original[dv.cell_neighbors(keeper)].tolist())
            assert got - {s} == set(want.neighbors.tolist())
        # reciprocity survives the merge: a ridge sits in both its cells
        for r in range(0, dv.num_ridges, 9):
            for site in dv.ridge_sites[r]:
                assert r in dv.cell_ridge_ids(int(site))

    def test_duplicates_through_tessellate_still_tile_the_box(self):
        pts = poisson(300, 8.0, 3)
        pts[17] = pts[4]
        tess = tessellate(pts, Bounds.cube(8.0), nblocks=2, ghost=3.0)
        assert tess.total_volume() == pytest.approx(8.0**3, rel=1e-9)
        twins = tess.volumes()[np.isin(tess.site_ids(), (4, 17))]
        assert sorted(twins > 0) == [False, True]

    def test_coplanar_all_incomplete(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(0, 5, size=(80, 3))
        pts[:, 2] = 2.5
        dv, _ = assert_agrees_with_clip(pts, Bounds.cube(5.0))
        # joggled output is never certified
        assert dv.used_fallback and dv.degenerate
        assert not dv.complete.any()

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
            assert np.all(dv.volumes == 0)


class TestNativeLoader:
    def test_loader_reports_state(self):
        # Whichever way this host resolved, the two accessors agree.
        if _native.available():
            assert _native.build_error() is None
        else:
            assert _native.build_error()

    def test_concurrent_first_use_gets_one_answer(self, monkeypatch):
        # Slabs and several ranks may reach the loader together; a thread
        # that saw the first one start must wait for its answer, not find
        # no kernel and raise meanwhile.
        import threading

        want = _native.lib()
        monkeypatch.setattr(_native, "_lib", None)
        monkeypatch.setattr(_native, "_tried", False)
        start = threading.Barrier(8)
        got = []

        def first_use():
            start.wait()
            got.append(_native.lib())

        threads = [threading.Thread(target=first_use) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(got) == 8
        assert all((lib is None) == (want is None) for lib in got)
        assert len({id(lib) for lib in got}) == 1

    def test_without_a_compiler_the_first_geometry_call_says_why(self, tmp_path):
        # CC names a "compiler" that fails and the cache is empty: the
        # import still works, and the first geometry call raises the one
        # error naming the compiler, CC and the cache directory.
        import os
        import pathlib
        import subprocess
        import sys

        cache = tmp_path / "cache"
        script = """
import numpy as np
import repro.geometry
from repro import _native
from repro.core.tessellate import tessellate
from repro.diy.bounds import Bounds
from repro.geometry import DelaunayVoronoi
assert not _native.available() and _native.build_error()
pts = np.random.default_rng(0).uniform(0, 4.0, size=(50, 3))
for call in (DelaunayVoronoi, tessellate):
    try:
        call(pts, Bounds.cube(4.0))
    except RuntimeError as exc:
        assert str(exc) == _native.build_error(), exc
        print("raised by", call.__name__)
print(_native.build_error())
"""
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = dict(os.environ, CC="false", REPRO_NATIVE_CACHE=str(cache),
                   PYTHONPATH=os.pathsep.join(path))
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        raised = run.stdout.splitlines()[:2]
        assert raised == ["raised by DelaunayVoronoi", "raised by tessellate"]
        assert list(cache.iterdir()) == []  # no half-built file left
        said = run.stdout
        assert "compiler tried: false" in said
        assert "CC='false'" in said
        assert f"cache directory: {cache}" in said
        assert "REPRO_NATIVE_CACHE" in said
        assert "returned non-zero exit status" in said
        assert "ctypes" not in said


class TestQhullOracle:
    def test_engine_matches_oracle_on_qhull_triangulation(self):
        # The NumPy oracle on qhull's triangulation: cells cross-checked
        # against an independent triangulator.
        from scipy.spatial import Delaunay

        pts = poisson(300, 10.0, 21)
        box = Bounds.cube(10.0)
        engine = DelaunayVoronoi(pts, box)
        qhull = Delaunay(pts)
        ref = reference_diagram(
            pts, box, triangulation=(qhull.simplices, qhull.neighbors,
                                     qhull.coplanar),
        )
        np.testing.assert_array_equal(engine.complete, ref.complete)
        np.testing.assert_array_equal(engine.ridge_offsets, ref.ridge_offsets)
        np.testing.assert_array_equal(engine.ridge_sites, ref.ridge_sites)
        # The two triangulations number their tets (so the Voronoi
        # vertices) each their own way: every ring's circumcenters, in
        # ring order, agree to 1e-9.
        np.testing.assert_allclose(
            engine.vertices[engine.ridge_flat],
            ref.vertices[ref.ridge_flat],
            rtol=1e-9,
        )
        # The kernel and the oracle sum ring areas in different orders, so
        # bitwise equality is not expected — 1e-9 relative is the contract.
        np.testing.assert_allclose(engine.ridge_areas, ref.ridge_areas, rtol=1e-9)
        np.testing.assert_allclose(engine.volumes, ref.volumes, rtol=1e-9)


class TestKernelCells:
    """The kernel's one pass over its triangulation (``dt_cells``) against
    the NumPy oracle (``tests/voronoi_cells_reference.py``) run on the
    *same* triangulation: equal integer arrays (numbering, ring order,
    merges, CSR), floats within 1e-12 (the two sum ring areas in
    different orders)."""

    INTS = ("_tets", "_neighbors", "ridge_sites", "ridge_offsets",
            "ridge_flat", "cell_ridges_offsets", "cell_ridges_flat",
            "complete", "num_tets", "merged_sites",
            "degenerate_ridges_dropped")
    FLOATS = ("vertices", "ridge_areas", "volumes", "areas")

    @classmethod
    def check(cls, pts, box, owned=None):
        fused = DelaunayVoronoi(pts, box, owned=owned)
        ref = reference_diagram(pts, box, owned)
        for name in cls.INTS:
            got, want = getattr(fused, name), getattr(ref, name)
            np.testing.assert_array_equal(got, want, err_msg=name)
            assert np.asarray(got).dtype == np.asarray(want).dtype, name
        for name in cls.FLOATS:
            np.testing.assert_allclose(
                getattr(fused, name), getattr(ref, name), rtol=1e-12,
                atol=0, err_msg=name,
            )
        return fused

    @pytest.mark.parametrize("owned", ("none", "scattered", "all"))
    def test_owned_subsets(self, owned):
        pts = poisson(300, 10.0, 71)
        mask = {
            "none": np.zeros(300, dtype=bool),
            "scattered": np.arange(300) % 3 == 1,
            "all": np.ones(300, dtype=bool),
        }[owned]
        dv = self.check(pts, Bounds.cube(10.0), mask)
        assert (dv.num_ridges > 0) == mask.any()

    def test_hull_sites(self):
        # the sites of an open point set's hull have unbounded cells, and
        # the box cuts off more
        pts = poisson(200, 8.0, 72)
        dv = self.check(pts, Bounds.cube(8.0))
        assert 0 < dv.complete.sum() < len(pts) - len(np.unique(dv._hull_faces()))

    def test_exact_duplicates(self):
        base = poisson(120, 6.0, 73)
        pts = np.concatenate([base, base[::12]])
        dv = self.check(pts, Bounds.cube(6.0))
        assert dv.merged_sites == 10

    def test_lattice_rings_with_coincident_circumcenters(self):
        side = np.arange(5, dtype=float) + 0.5
        g = np.meshgrid(side, side, side, indexing="ij")
        pts = np.column_stack([a.ravel() for a in g])
        dv = self.check(pts, Bounds.cube(5.0))
        # coincident circumcenters were merged within rings, and whole
        # rings of them dropped
        assert dv.degenerate_ridges_dropped > 0
        assert len(np.unique(dv.vertices, axis=0)) < dv.num_tets

    def test_singular_circumcenter_is_refit(self, monkeypatch):
        # a square with one corner lifted by a subnormal height: the
        # sliver's Cramer determinant has no finite reciprocal, so the
        # kernel hands its circumcenter to the least-squares fixup once
        from repro.geometry import voronoi_delaunay

        refits, fixup = [], voronoi_delaunay._lstsq_fixup

        def counted(centers, pts, tets, bad):
            refits.append(int(bad.sum()))
            fixup(centers, pts, tets, bad)

        monkeypatch.setattr(voronoi_delaunay, "_lstsq_fixup", counted)
        pts = np.array(
            [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 1e-310], [0.5, 0.5, 0.8],
             [0.5, 0.5, -0.8], [0.5, -0.7, 0], [1.7, 0.5, 0], [0.5, 1.7, 0],
             [-0.7, 0.5, 0]],
        )
        box = Bounds.from_arrays(np.full(3, -2.0), np.full(3, 3.0))
        dv = self.check(pts, box)
        assert refits[0] == 1 and np.isfinite(dv.vertices).all()

    def test_ring_longer_than_the_stack_buffer(self):
        # 80 sites around the axis through two poles: the poles' ridge is
        # one ring of 80 tets, each with its own circumcenter
        rng = np.random.default_rng(74)
        t = np.linspace(0, 2 * np.pi, 80, endpoint=False)
        r = 1.5 + rng.uniform(-1e-4, 1e-4, 80)
        ring = np.column_stack([3 + r * np.cos(t), 3 + r * np.sin(t), np.full(80, 3.0)])
        poles = np.array([[3.0, 3.0, 2.7], [3.0, 3.0, 3.3]])
        extra = rng.uniform(0, 6, size=(400, 3))
        extra = extra[np.hypot(extra[:, 0] - 3, extra[:, 1] - 3) > 2.0][:60]
        pts = np.concatenate([poles, ring, extra])
        dv = self.check(pts, Bounds.cube(6.0))
        poles_ridge = np.flatnonzero((dv.ridge_sites == [0, 1]).all(axis=1))
        assert len(poles_ridge) == 1
        assert len(dv.ridge_cycle(int(poles_ridge[0]))) == 80


class TestOwnedOnly:
    """``owned=`` drops ghost-ghost ridges and nothing an owned cell
    reads — in the engine and in the NumPy oracle."""

    @pytest.fixture(params=("native", "numpy"))
    def diagram(self, request):
        return {"native": DelaunayVoronoi, "numpy": reference_diagram}[
            request.param
        ]

    @staticmethod
    def check_owned_rows(diagram, owned):
        pts = poisson(400, 10.0, 61)
        box = Bounds.cube(10.0)
        full = diagram(pts, box)
        part = diagram(pts, box, owned=owned)
        # the triangulation and its circumcenters are untouched
        np.testing.assert_array_equal(part.mesh.tetrahedra, full.mesh.tetrahedra)
        np.testing.assert_array_equal(part.vertices, full.vertices)
        # every ridge kept has an owned side; none of the owned ones is lost
        assert owned[part.ridge_sites].any(axis=1).all()
        owned_ridges = owned[full.ridge_sites].any(axis=1)
        np.testing.assert_array_equal(
            part.ridge_sites, full.ridge_sites[owned_ridges]
        )
        np.testing.assert_array_equal(
            part.ridge_areas, full.ridge_areas[owned_ridges]
        )
        own = np.flatnonzero(owned)
        np.testing.assert_array_equal(part.complete[own], full.complete[own])
        np.testing.assert_array_equal(part.volumes[own], full.volumes[own])
        np.testing.assert_array_equal(part.areas[own], full.areas[own])
        for s in own[::13]:
            np.testing.assert_array_equal(
                part.cell_neighbors(s), full.cell_neighbors(s)
            )
            for rp, rf in zip(part.cell_ridge_ids(s), full.cell_ridge_ids(s)):
                np.testing.assert_array_equal(
                    part.ridge_cycle(rp), full.ridge_cycle(rf)
                )

    @pytest.mark.parametrize("n_owned", (1, 120, 399, 400))
    def test_owned_rows_identical(self, diagram, n_owned):
        self.check_owned_rows(diagram, np.arange(400) < n_owned)

    def test_scattered_owned_rows_identical(self, diagram):
        # a slab of a block owns sites interleaved with its shell's
        self.check_owned_rows(diagram, np.arange(400) % 3 == 1)

    def test_no_owned_edge_left(self, diagram):
        # every site "owned" is the plain call; none owned leaves no ridge
        pts = poisson(50, 4.0, 62)
        dv = diagram(pts, Bounds.cube(4.0), owned=np.zeros(50, bool))
        assert dv.num_ridges == 0 and dv.num_tets > 0
        assert dv.cell_ridges_offsets[-1] == 0


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


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=500), st.integers(min_value=20, max_value=150)
)
def test_complete_cells_volumes_positive(seed, n):
    pts = poisson(n, 8.0, seed)
    dv = DelaunayVoronoi(pts, Bounds.cube(8.0))
    assert np.all(dv.volumes[dv.complete] > 0)
    # Complete cells' volumes cannot exceed the box volume.
    assert dv.volumes[dv.complete].sum() <= 8.0**3 + 1e-6
