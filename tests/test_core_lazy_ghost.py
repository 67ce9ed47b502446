"""The lazy ghost path returns the cells of the fixed-ghost path.

``_tessellate_block_flat`` triangulates owned points plus a thin shell of
ghosts, tests every withheld ghost against the owned stars with the
kernel's exact conflict predicate, and inserts the few that would change
an owned cell into the same triangulation (DESIGN.md §11).  The oracle here is the same
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


def assert_same_cells(got, want, welded=True):
    """The same cells.  ``welded=False``: where tets share a circumcenter
    (a lattice), a pool may list it once per tet, so compare the pools'
    distinct vertices instead."""
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
        pa, pb = a.vertices, b.vertices
        if welded:
            assert a.num_vertices == b.num_vertices
        else:
            pa, pb = np.unique(pa, axis=0), np.unique(pb, axis=0)
        np.testing.assert_allclose(
            pa[np.lexsort(pa.T)], pb[np.lexsort(pb.T)], rtol=1e-12, atol=1e-12,
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
    assert 0 < counters["points_inserted"] < counters["ghosts_withheld"]
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
    # the certificate inserts into the thin pass's own triangulation
    assert "repair" not in spans and "full-pass" not in spans
    # each stage sits inside its rank's compute phase
    compute = {rank: (t0, t1) for rank, t0, t1 in spans["compute"]}
    for name in ("thin-pass", "certificate"):
        for rank, t0, t1 in spans[name]:
            assert compute[rank][0] <= t0 <= t1 <= compute[rank][1]


def test_certificate_silent_on_near_uniform_field(evolved, one_slab):
    snaps, domain = evolved
    pos, ids = snaps[4]
    run = lambda: tessellate(pos, domain, nblocks=2, nranks=1, ghost=4.0, ids=ids)
    lazy, counters = geom_counters(run)
    assert counters["ghosts_withheld"] > 0
    assert counters["points_inserted"] == 0
    assert counters["cells_repaired"] == 0
    assert_same_cells(lazy, eager(pos, domain, nblocks=2, ghost=4.0, ids=ids))


# ----------------------------------------------------------------------
# (c) the certificate on hand-built cases: the owned cell of a thin
# triangulation plus what it inserts is the owned cell of all points
# ----------------------------------------------------------------------
def first(pts):
    """Owned mask of the hand-built cases: site 0 only."""
    return np.arange(len(pts)) < 1


def owned_cell(dv, site=0):
    """Site's completeness, volume, area, sorted neighbors and sorted
    cell vertices."""
    rids = dv.cell_ridge_ids(site)
    verts = dv.vertices[np.concatenate([dv.ridge_cycle(r) for r in rids])]
    return (bool(dv.complete[site]), dv.volumes[site], dv.areas[site],
            np.sort(dv.cell_neighbors(site)), np.unique(verts, axis=0))


def certified(pts, box, candidates):
    """Site 0's cell with ``candidates`` appended to ``pts`` as points the
    thin triangulation leaves out, against the triangulation of all of
    them; and how many candidates were inserted."""
    every = np.concatenate([pts, candidates])
    thin = DelaunayVoronoi(every, box, owned=first(every), subset=np.arange(len(pts)))
    full = DelaunayVoronoi(every, box, owned=first(every))
    assert not thin.degenerate or thin.degenerate_ridges_dropped
    got, want = owned_cell(thin), owned_cell(full)
    assert got[0] == want[0]
    if want[0]:
        np.testing.assert_allclose(got[1:3], want[1:3], rtol=1e-12)
        np.testing.assert_array_equal(got[3], want[3])
        np.testing.assert_allclose(got[4], want[4], rtol=1e-12, atol=1e-12)
    return thin.points_inserted, got, want


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

        inserted, got, _ = certified(pts, Bounds.cube(4.0), outside[None])
        assert inserted == 0 and got[0]
        inserted, got, _ = certified(pts, Bounds.cube(4.0), inside[None])
        assert inserted == 1 and got[0]

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
        assert not DelaunayVoronoi(pts, tight, owned=first(pts)).complete[0]
        candidate = centers[(far + 1) % len(centers)][None]
        inserted, got, want = certified(pts, tight, candidate)
        # inserted whether or not the cell ends up complete, and the cell
        # is the full triangulation's either way
        assert inserted == 1
        assert certified(pts, Bounds.cube(4.0), candidate)[0] == 1

    def test_point_just_beyond_and_just_behind_hull_facets(self):
        # an apex over a ring over a floor: the apex's hull facets all
        # pass through it with upward normals
        pts = apex_over_ring()
        box = Bounds.from_arrays(np.full(3, -10.0), np.full(3, 10.0))
        dv = DelaunayVoronoi(pts, box, owned=first(pts))
        assert not dv.degenerate and not dv.complete[0]

        # beyond every facet of the apex: it leaves the hull and its cell
        # closes, from the one triangulation the candidate joins
        inserted, got, _ = certified(pts, box, np.array([[0.0, 0.0, 1.0 + 1e-6]]))
        assert inserted == 1 and got[0]

        # behind them (inside the hull), or beyond only some of them: the
        # apex stays on the hull, unbounded either way, and what the
        # candidate changes around it is the full triangulation's
        for candidate in ([0.0, 0.0, 1.0 - 1e-6], [2.0, 0.0, 0.9]):
            inserted, got, _ = certified(pts, box, np.array([candidate]))
            assert inserted in (0, 1) and not got[0]

    def test_candidate_exactly_on_a_star_sphere(self):
        # every lattice point around the owned center lies exactly on the
        # spheres of the cubes it closes: the kernel breaks those ties by
        # index, as the triangulation of everything does, bit for bit
        g = np.arange(5.0)
        pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        center = np.flatnonzero((pts == 2.0).all(axis=1))[0]
        pts[[0, center]] = pts[[center, 0]]
        box = Bounds.cube(4.0)
        full = owned_cell(DelaunayVoronoi(pts, box, owned=first(pts)))
        assert full[0]
        inserted = set()
        for corner in ((3.0, 3.0, 3.0), (1.0, 1.0, 1.0), (1.0, 3.0, 2.0),
                       (3.0, 2.0, 2.0), (2.0, 1.0, 2.0)):
            at = np.flatnonzero((pts == corner).all(axis=1))[0]
            thin = DelaunayVoronoi(pts, box, owned=first(pts),
                                   subset=np.delete(np.arange(len(pts)), at))
            inserted.add(thin.points_inserted)
            for a, b in zip(owned_cell(thin), full):
                np.testing.assert_array_equal(a, b)
        # a face neighbor always changes the cell; some corner tie falls
        # the other way
        assert inserted == {0, 1}


def apex_over_ring():
    """Site 0 is an apex over a hexagonal ring over a floor point, with
    two points inside."""
    ring = [(np.cos(a), np.sin(a), 0.0) for a in np.arange(6) * np.pi / 3]
    return np.array(
        [(0.0, 0.0, 1.0), *ring, (0.0, 0.0, -1.0), (0.1, 0.05, 0.2),
         (-0.2, 0.1, -0.3)]
    )


def test_owned_hull_site_is_repaired_not_abandoned():
    # A block without ghosts but one above its apex: the apex is on the
    # thin pass's hull and the ghost, withheld, lies beyond all of its
    # hull facets.  The kernel inserts it; no full pass runs.
    from repro.core.tessellate import _tessellate_block_flat
    from repro.diy.decomposition import Decomposition

    decomp = Decomposition.regular(Bounds.cube(3.0, origin=-1.5), 1, periodic=False)
    pts = apex_over_ring()
    ghost = np.array([[0.0, 0.0, 5.0]])
    args = (decomp, 0, pts, np.arange(len(pts)), ghost, np.array([99]), 4.0,
            None, None)
    observe.enable()
    try:
        observe.reset_all()
        block = _tessellate_block_flat(*args)
        names = {name for name, *_ in observe.trace.raw_events()}
        counters = observe.registry().as_dict()["counters"]
    finally:
        observe.disable()
        observe.reset_all()
    assert "thin-pass" in names and "full-pass" not in names
    assert counters["geom.ghosts_withheld"] == counters["geom.points_inserted"] == 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TESS, "_START_SPACINGS", 1e9)
        want = _tessellate_block_flat(*args)
    assert 0 in block.site_ids
    holder = type("T", (), {})
    got_t, want_t = holder(), holder()
    got_t.blocks, want_t.blocks = [block], [want]
    assert_same_cells(got_t, want_t)


# ----------------------------------------------------------------------
# (d) degenerate input: duplicate sites and empty diagrams withhold
# nothing; a lattice's cospherical ties do not stop the thin pass
# ----------------------------------------------------------------------
def test_lattice_runs_the_thin_pass():
    g = np.arange(6) + 0.5
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    kw = dict(nblocks=1, ghost=2.5)
    lazy, counters = geom_counters(lambda: tessellate(pts, Bounds.cube(6.0), **kw))
    assert counters["ghosts_withheld"] > 0 and counters["cells_repaired"] == 0
    assert "degenerate_fallbacks" not in counters
    # the thin pass holds the owned points and their shell
    assert counters["points_triangulated"] > len(pts)
    assert lazy.num_cells == len(pts)
    np.testing.assert_allclose(lazy.volumes(), 1.0, rtol=1e-9)
    assert_same_cells(lazy, eager(pts, Bounds.cube(6.0), **kw), welded=False)


class TestDegenerateInputWithholdsNothing:
    def check(self, pts, domain, **kw):
        lazy, counters = geom_counters(lambda: tessellate(pts, domain, **kw))
        assert counters.get("ghosts_withheld", 0) == 0
        assert counters.get("cells_repaired", 0) == 0
        assert_same_cells(lazy, eager(pts, domain, **kw))
        return lazy, counters

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
