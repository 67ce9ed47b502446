"""The lazy ghost path returns the cells of the fixed-ghost path.

``_tessellate_block_flat`` triangulates owned points plus a thin shell of
ghosts, certifies every owned star against the withheld ghosts with the
exact empty-circumsphere criterion, and re-derives the few failing cells
from one local patch (DESIGN.md §11).  The oracle here is the same
function with nothing withheld (a huge ``_START_SPACINGS``), with every
block on one inline rank: that rank reads the patched module, while pool
ranks keep the constant they were forked with, which is what makes them
the code under test.
"""

import importlib

import numpy as np
import pytest

from repro import observe
from repro.core import match_tessellations, tessellate
from repro.diy.bounds import Bounds
from repro.geometry.voronoi_delaunay import DelaunayVoronoi

from .clustered import clustered_points

# ``repro.core.tessellate`` the attribute is the function; this is the module.
TESS = importlib.import_module("repro.core.tessellate")


def eager(*args, **kwargs):
    """The oracle: the production function with nothing withheld."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TESS, "_START_SPACINGS", 1e9)
        return tessellate(*args, **{"nranks": 1, **kwargs})


def geom_counters(fn):
    """``fn()``'s result and the ``geom.*`` counters it published."""
    observe.enable()
    try:
        observe.registry().reset()
        out = fn()
        counters = observe.registry().as_dict()["counters"]
    finally:
        observe.disable()
        observe.registry().reset()
    return out, {
        k[len("geom."):]: v for k, v in counters.items() if k.startswith("geom.")
    }


def cell_neighbors(block):
    """Per-cell sorted neighbor ids, flattened in cell order."""
    cell = np.repeat(np.arange(block.num_cells), np.diff(block.cell_face_offsets))
    return block.face_neighbors[np.lexsort((block.face_neighbors, cell))]


def assert_same_cells(got, want):
    assert [b.gid for b in got.blocks] == [b.gid for b in want.blocks]
    for a, b in zip(got.blocks, want.blocks):
        np.testing.assert_array_equal(a.site_ids, b.site_ids)
        np.testing.assert_array_equal(
            np.diff(a.cell_face_offsets), np.diff(b.cell_face_offsets)
        )
        np.testing.assert_array_equal(cell_neighbors(a), cell_neighbors(b))
        np.testing.assert_allclose(a.volumes, b.volumes, rtol=1e-12)
        np.testing.assert_allclose(a.areas, b.areas, rtol=1e-12)
        # the same vertex pool, each vertex listed once (seams are welded)
        assert a.num_vertices == b.num_vertices
        np.testing.assert_allclose(
            a.vertices[np.lexsort(a.vertices.T)],
            b.vertices[np.lexsort(b.vertices.T)],
            rtol=1e-12,
            atol=1e-12,
        )


@pytest.fixture(scope="module")
def evolved():
    """16^3 particles at steps 4 (still near-uniform) and 12 (voids have
    opened): ``{step: (positions, ids)}`` and the domain."""
    from repro.hacc import HACCSimulation, SimulationConfig

    cfg = SimulationConfig(np_side=16, nsteps=12, seed=3000)
    snaps = {}

    def capture(sim, step, a):
        snaps[step] = (sim.positions_mpc().copy(), sim.local.ids.copy())

    HACCSimulation(cfg).run(hooks={4: [capture], 12: [capture]})
    return snaps, cfg.domain()


@pytest.fixture
def one_slab(monkeypatch):
    """Pin each block's thin pass to one slab, so the shell and certificate
    counters below do not depend on this machine's core count (the slabs
    have their own suite, tests/test_core_slabs.py).  Only an inline rank
    sees the patch, so the tests using it run their blocks on one rank."""
    monkeypatch.setattr(TESS, "_slab_count", lambda ranks: 1)


# ----------------------------------------------------------------------
# (a) cell-for-cell equality across decompositions, rank counts, ghosts
# ----------------------------------------------------------------------
BOX = 10.0
CLUSTERED = clustered_points(600, BOX, seed=4)
SPACING = BOX / len(CLUSTERED) ** (1.0 / 3.0)


@pytest.mark.parametrize("ghost", (1, 2, 3, 4, 6))
@pytest.mark.parametrize("periodic", (True, False))
# ``<nblocks>-False`` ids: the regular (unbalanced) layout, named as these
# cases always have been so their ids stay stable.
@pytest.mark.parametrize("nblocks", (1, 2, 4, 8), ids="{}-False".format)
def test_equals_eager_oracle(nblocks, periodic, ghost):
    # (without periodic images no block of <= 8 is enclosed by ghosts, so
    # those cases pin the withhold-nothing branch; see the 27-block test)
    kw = dict(nblocks=nblocks, ghost=ghost * SPACING, periodic=periodic)
    domain = Bounds.cube(BOX)
    inline = tessellate(CLUSTERED, domain, nranks=1, **kw)
    on_processes = tessellate(CLUSTERED, domain, **kw)
    want = eager(CLUSTERED, domain, **kw)
    assert_same_cells(inline, want)
    assert_same_cells(on_processes, want)


def test_enclosed_block_of_a_non_periodic_domain():
    # Only the center block of 3x3x3 has ghosts on all six sides.  What
    # matters is the block geometry, not one rank per block: 3 ranks hold
    # 9 blocks each.
    domain = Bounds.cube(BOX)
    pts = np.random.default_rng(11).uniform(0.0, BOX, size=(2000, 3))
    kw = dict(nblocks=27, ghost=3 * BOX / 2000 ** (1.0 / 3.0), periodic=False)
    lazy, counters = geom_counters(lambda: tessellate(pts, domain, nranks=3, **kw))
    assert counters["ghosts_withheld"] > 0
    assert_same_cells(lazy, eager(pts, domain, **kw))


# ----------------------------------------------------------------------
# (b) the certificate fires where voids opened, and only there
# ----------------------------------------------------------------------
def test_certificate_fires_on_evolved_voids(evolved, one_slab):
    snaps, domain = evolved
    pos, ids = snaps[12]
    run = lambda: tessellate(pos, domain, nblocks=1, ghost=4.0, ids=ids)
    lazy, counters = geom_counters(run)
    assert counters["cells_repaired"] > 0
    assert counters["certificate_violations"] >= counters["cells_repaired"]
    assert 0 < counters["patch_points"] < len(pos)
    assert counters["ghosts_withheld"] > 0
    # the acceptance bound: at most 2.5 points triangulated per owned point
    assert counters["points_triangulated"] <= 2.5 * len(pos)
    assert lazy.num_cells == len(pos)
    assert_same_cells(lazy, eager(pos, domain, nblocks=1, ghost=4.0, ids=ids))


def test_trace_shows_where_compute_went(evolved):
    snaps, domain = evolved
    pos, ids = snaps[12]
    observe.enable()
    try:
        observe.reset_all()
        tessellate(pos, domain, nblocks=2, ghost=4.0, ids=ids)
        spans = {}
        for name, rank, t0, t1, *_ in observe.trace.raw_events():
            spans.setdefault(name, []).append((rank, t0, t1))
    finally:
        observe.disable()
        observe.reset_all()
    for name in ("thin-pass", "certificate"):
        assert {rank for rank, _, _ in spans[name]} == {0, 1}, name
    assert spans["repair"] and "full-pass" not in spans
    # each stage sits inside its rank's compute phase
    compute = {rank: (t0, t1) for rank, t0, t1 in spans["compute"]}
    for name in ("thin-pass", "certificate", "repair"):
        for rank, t0, t1 in spans[name]:
            assert compute[rank][0] <= t0 <= t1 <= compute[rank][1]


def test_certificate_silent_on_near_uniform_field(evolved, one_slab):
    snaps, domain = evolved
    pos, ids = snaps[4]
    run = lambda: tessellate(pos, domain, nblocks=2, nranks=1, ghost=4.0, ids=ids)
    lazy, counters = geom_counters(run)
    assert counters["ghosts_withheld"] > 0
    assert counters["certificate_violations"] == 0
    assert counters["cells_repaired"] == 0
    assert counters["patch_points"] == 0
    assert_same_cells(lazy, eager(pos, domain, nblocks=2, ghost=4.0, ids=ids))


# ----------------------------------------------------------------------
# (c) the certificate's two tests, on hand-built cases
# ----------------------------------------------------------------------
def first(pts):
    """Owned mask of the hand-built cases: site 0 only."""
    return np.arange(len(pts)) < 1


class TestStarViolations:
    def test_point_just_inside_and_just_outside_a_circumsphere(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 4.0, size=(60, 3))
        # site 0 is the one owned site, well inside the cloud
        pts[0] = (2.0, 2.0, 2.0)
        dv = DelaunayVoronoi(pts, Bounds.cube(4.0), owned=first(pts))
        mesh = dv.mesh
        star = np.flatnonzero((mesh.tetrahedra == 0).any(axis=1))
        centers = dv.vertices[star]
        radii = np.linalg.norm(centers - pts[0], axis=1)
        # Site 0 lies on every star sphere, so a ray from it leaves sphere
        # i at s_i = 2 (c_i - p0).u; just past the last exit is outside
        # them all, just before it is inside that one sphere.
        for u in rng.normal(size=(200, 3)):
            u /= np.linalg.norm(u)
            last_exit = (2.0 * (centers - pts[0]) @ u).max()
            outside = pts[0] + last_exit * (1.0 + 1e-6) * u
            inside = pts[0] + last_exit * (1.0 - 1e-6) * u
            clear = np.linalg.norm(outside - centers, axis=1) / radii - 1.0
            if clear.min() > 1e-8:
                break
        else:
            pytest.fail("no probing direction found")

        sites, hits = dv.star_violations(first(pts), outside[None])
        assert len(sites) == 0 and hits == 0
        sites, hits = dv.star_violations(first(pts), inside[None])
        assert sites.tolist() == [0] and hits >= 1
        # a box that holds no candidate prefilters without changing answers
        safe = Bounds.from_arrays(pts[0] - 1e-3, pts[0] + 1e-3)
        assert dv.star_violations(first(pts), inside[None], safe_box=safe)[0].tolist() == [0]
        # the repair patch: the star's own circumspheres
        c, r = dv.star_spheres(sites)
        order = np.lexsort(c.T)
        np.testing.assert_allclose(c[order], centers[np.lexsort(centers.T)])
        np.testing.assert_allclose(np.sort(r), np.sort(radii))

    def test_surviving_vertex_outside_the_box_dooms_the_cell(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 4.0, size=(60, 3))
        pts[0] = (2.0, 2.0, 2.0)
        wide = DelaunayVoronoi(pts, Bounds.cube(4.0), owned=first(pts))
        assert wide.complete[0]
        star = (wide.mesh.tetrahedra == 0).any(axis=1)
        centers = wide.vertices[star]
        # a box that leaves one star vertex out, and a candidate that
        # violates the sphere around another one
        far = np.argmax(np.abs(centers - pts[0]).max(axis=1))
        half = 0.5 * (np.abs(centers[far] - pts[0]).max()
                      + np.sort(np.abs(centers - pts[0]).max(axis=1))[-2])
        tight = Bounds.from_arrays(pts[0] - half, pts[0] + half)
        dv = DelaunayVoronoi(pts, tight, owned=first(pts))
        assert not dv.complete[0]
        other = (far + 1) % len(centers)
        candidate = centers[other][None]
        assert wide.star_violations(first(pts), candidate)[0].tolist() == [0]
        if np.linalg.norm(candidate[0] - centers[far]) > np.linalg.norm(
            pts[0] - centers[far]
        ):
            # the far vertex survives and lies outside: nothing to repair
            assert len(dv.star_violations(first(pts), candidate)[0]) == 0

    def test_point_just_beyond_and_just_behind_hull_facets(self):
        # an apex over a ring over a floor: the apex's hull facets all
        # pass through it with upward normals
        ring = [(np.cos(a), np.sin(a), 0.0) for a in np.arange(6) * np.pi / 3]
        pts = np.array(
            [(0.0, 0.0, 1.0), *ring, (0.0, 0.0, -1.0), (0.1, 0.05, 0.2),
             (-0.2, 0.1, -0.3)]
        )
        box = Bounds.from_arrays(np.full(3, -10.0), np.full(3, 10.0))
        dv = DelaunayVoronoi(pts, box, owned=first(pts))
        assert not dv.degenerate and not dv.complete[0]

        # beyond every facet of the apex: it leaves the hull, its cell
        # closes, and no bounded patch holds its new neighbors
        beyond = np.array([[0.0, 0.0, 1.0 + 1e-6]])
        sites, hits = dv.star_violations(first(pts), beyond)
        assert sites.tolist() == [0] and hits >= 1
        assert np.isinf(dv.star_spheres(sites)[1]).any()

        # behind them (inside the hull), or beyond only some of them: the
        # apex stays on the hull, unbounded either way — nothing to fix
        for candidate in ([0.0, 0.0, 1.0 - 1e-6], [2.0, 0.0, 0.9]):
            assert len(dv.star_violations(first(pts), np.array([candidate]))[0]) == 0


# ----------------------------------------------------------------------
# (d) degenerate input withholds nothing
# ----------------------------------------------------------------------
class TestDegenerateInputWithholdsNothing:
    def check(self, pts, domain, **kw):
        lazy, counters = geom_counters(lambda: tessellate(pts, domain, **kw))
        assert counters.get("ghosts_withheld", 0) == 0
        assert counters.get("cells_repaired", 0) == 0
        assert_same_cells(lazy, eager(pts, domain, **kw))
        return lazy, counters

    def test_lattice(self):
        g = np.arange(6) + 0.5
        pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        lazy, counters = self.check(pts, Bounds.cube(6.0), nblocks=1, ghost=2.5)
        assert lazy.num_cells == len(pts)
        np.testing.assert_allclose(lazy.volumes(), 1.0, rtol=1e-9)
        # the abandoned thin pass is still accounted for
        assert counters["points_triangulated"] > len(pts) + 26 * len(pts) // 8

    def test_duplicate_site(self):
        pts = np.random.default_rng(3).uniform(0, 8.0, size=(300, 3))
        pts[17] = pts[4]
        self.check(pts, Bounds.cube(8.0), nblocks=2, ghost=3.0)

    @pytest.mark.parametrize("n", (1, 3, 4))
    def test_fewer_than_five_points(self, n):
        pts = np.random.default_rng(n).uniform(0, 2.0, size=(n, 3))
        self.check(pts, Bounds.cube(2.0), nblocks=1, ghost=0.9, periodic=False)
        self.check(pts, Bounds.cube(2.0), nblocks=1, ghost=0.9)


# ----------------------------------------------------------------------
# (e) Table I: under-ghosted rows reproduce exactly
# ----------------------------------------------------------------------
def test_table1_rows_unchanged(evolved):
    snaps, domain = evolved
    pos, ids = snaps[12]
    pos, ids = pos[::2], ids[::2]  # spacing 1.26: ghost 4.0 is still ample
    serial = eager(pos, domain, nblocks=1, ghost=4.0, ids=ids)
    for ghost in (0.0, 1.0, 2.0, 3.0, 4.0):
        for nblocks in (2, 4, 8):
            kw = dict(nblocks=nblocks, ghost=ghost, ids=ids)
            got = match_tessellations(tessellate(pos, domain, **kw), serial)
            want = match_tessellations(eager(pos, domain, **kw), serial)
            assert got == want, (ghost, nblocks)
            if ghost == 4.0:
                assert got.accuracy_percent == 100.0
