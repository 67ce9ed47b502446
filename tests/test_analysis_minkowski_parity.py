"""The flat Minkowski kernel against the dict reference, and the seam.

:func:`repro.analysis.minkowski.minkowski_functionals` must reproduce
:func:`tests.minkowski_reference.minkowski_reference` — V, S and C to
rel 1e-12, chi, cell and boundary-face counts exactly — on every input
shape the kernel has special cases for: block counts, hand-built
cells, a percolating component, empty and foreign labelings, zero-area
faces and a lattice full of coplanar faces.

The same kernel runs in situ: each rank cuts its block's sub-mesh and
the root joins them, on the seam-percolating sponge and the lattice at
1/2/4/8 ranks.

The seam tests pin the periodic welding: functionals do not change under
a periodic shift of the input, and where no seam is involved (a
non-periodic box, or a component that stays clear of the box faces) the
values are those of the kernel before the seam rule existed, i.e. the
reference with ``periodic`` forced off.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observe
from repro.analysis.components import ComponentLabeling, connected_components
from repro.analysis.minkowski import minkowski_functionals
from repro.analysis.voids import find_voids, find_voids_distributed
from repro.core import (
    DistributedTessellation,
    Tessellation,
    tessellate,
    tessellate_distributed,
)
from repro.diy.bounds import Bounds
from repro.diy.comm import run_parallel
from repro.diy.decomposition import Decomposition

from .cell_reference import VoronoiCell, from_cells, neighbors_of_cell
from .clip_polyhedron import ConvexPolyhedron
from .minkowski_reference import minkowski_reference

#: Flat vs reference.  Both evaluate the same per-face and per-edge
#: expressions; only the order of the per-component sums can differ.
PARITY_RTOL = 1e-12
#: Between decompositions or under a shift the vertices themselves move
#: by rounding (different ghost sets, coordinates offset by a box length).
INVARIANCE_RTOL = 1e-9
NO_SEAM = (False, False, False)
BOX = 10.0


def assert_parity(flat, ref, rtol=PARITY_RTOL):
    assert len(flat) == len(ref)
    for a, b in zip(flat, ref):
        assert a.label == b.label
        assert (a.num_cells, a.num_boundary_faces, a.euler_characteristic) == (
            b.num_cells, b.num_boundary_faces, b.euler_characteristic
        )
        for name in ("volume", "surface_area", "mean_curvature"):
            x, y = getattr(a, name), getattr(b, name)
            assert math.isclose(x, y, rel_tol=rtol), (a.label, name, x, y)


def check(tess, labeling):
    flat = minkowski_functionals(tess, labeling)
    assert_parity(flat, minkowski_reference(tess, labeling))
    return flat


def at_quantile(tess, q):
    return connected_components(tess, vmin=float(np.quantile(tess.volumes(), q)))


def poisson_points(n=400, seed=7):
    return np.random.default_rng(seed).uniform(0.0, BOX, size=(n, 3))


@functools.cache
def poisson(n=400, seed=7, nblocks=1, shift=0.0, periodic=True):
    return tessellate(
        np.mod(poisson_points(n, seed) + shift, BOX), Bounds.cube(BOX),
        nblocks=nblocks, ghost=4.0, periodic=periodic,
    )


LATTICE_SIDE = 7


def lattice_points():
    """The phd-code fixture of SNIPPETS.md in 3D: a cubic lattice with a
    perturbed interior -- exact cosphericity outside, coplanar faces
    everywhere on it."""
    n = LATTICE_SIDE
    g = np.arange(n) + 0.5
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    inner = np.all((pts > 0.25 * n) & (pts < 0.75 * n), axis=1)
    pts[inner] += 0.2 * np.random.default_rng(5).uniform(-1, 1, (inner.sum(), 3))
    return pts


def lattice():
    return tessellate(
        lattice_points(), Bounds.cube(float(LATTICE_SIDE)), nblocks=2, ghost=2.5
    )


def cube_cell(site_id, lo, side, extra_faces=()):
    box = Bounds(np.asarray(lo, float), np.asarray(lo, float) + side)
    poly = ConvexPolyhedron.from_bounds(box)
    vertices = np.concatenate([poly.vertices, *[f for f in extra_faces]]) if extra_faces else poly.vertices
    faces = list(poly.faces)
    start = len(poly.vertices)
    for f in extra_faces:
        faces.append(np.arange(start, start + len(f)))
        start += len(f)
    return VoronoiCell(
        site_id=site_id, site=box.center, vertices=vertices, faces=faces,
        neighbor_ids=np.full(len(faces), -1, dtype=np.int64),
        volume=side**3, area=6.0 * side**2,
    )


def hand_built(cells, domain):
    return Tessellation(domain=domain, blocks=[from_cells(0, domain, cells)])


class TestParity:
    @settings(max_examples=12, deadline=None)
    @given(q=st.floats(0.3, 0.98))
    def test_random_thresholds(self, q):
        tess = poisson()
        check(tess, at_quantile(tess, q))

    # ``<nblocks>-False`` ids: the regular (unbalanced) layout, named as
    # these cases always have been so their ids stay stable.
    @pytest.mark.parametrize("nblocks", (1, 2, 4, 8), ids="{}-False".format)
    def test_block_counts(self, nblocks):
        tess = poisson(nblocks=nblocks)
        check(tess, at_quantile(tess, 0.85))

    def test_cube(self):
        tess = hand_built([cube_cell(0, (0, 0, 0), 2.0)], Bounds.cube(2.0))
        (mk,) = check(tess, ComponentLabeling(np.array([0]), np.array([0])))
        assert mk.mean_curvature == pytest.approx(6.0 * np.pi, rel=1e-12)
        assert mk.euler_characteristic == 2 and mk.num_boundary_faces == 6

    def test_two_cells(self):
        tess = poisson()
        block = tess.blocks[0]
        a = int(block.site_ids[0])
        b = int(next(n for n in neighbors_of_cell(block, 0) if n >= 0))
        (mk,) = check(
            tess, ComponentLabeling(np.array(sorted([a, b])), np.array([0, 0]))
        )
        assert mk.num_cells == 2 and mk.euler_characteristic == 2

    def test_percolating_component(self):
        tess = poisson()
        labeling = at_quantile(tess, 0.5)
        flat = check(tess, labeling)
        big = max(flat, key=lambda m: m.num_cells)
        # a sponge spanning the torus: far from a topological ball
        assert big.num_cells > 0.4 * tess.num_cells
        assert big.euler_characteristic < 0

    def test_empty_labeling(self):
        empty = np.empty(0, dtype=np.int64)
        assert check(poisson(), ComponentLabeling(empty, empty)) == []

    def test_labeling_with_absent_ids(self):
        tess = poisson()
        labeling = at_quantile(tess, 0.9)
        foreign = 10_000 + np.arange(3)
        labeling = ComponentLabeling(
            np.concatenate([labeling.site_ids, foreign]),
            np.concatenate([labeling.labels, [0, 0, labeling.num_components]]),
        )
        flat = check(tess, labeling)
        assert flat[-1].num_cells == 0 and flat[-1].num_boundary_faces == 0

    def test_zero_area_sliver_face(self):
        # a seventh face whose vertices are collinear along a cube edge
        sliver = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        tess = hand_built(
            [cube_cell(0, (0, 0, 0), 2.0, extra_faces=[sliver])], Bounds.cube(2.0)
        )
        (mk,) = check(tess, ComponentLabeling(np.array([0]), np.array([0])))
        assert mk.num_boundary_faces == 6
        assert mk.surface_area == pytest.approx(24.0, rel=1e-12)

    @pytest.mark.parametrize("q", (0.3, 0.6, 0.9))
    def test_lattice_with_perturbed_interior(self, q):
        tess = lattice()
        check(tess, at_quantile(tess, q))


def by_smallest_member(labeling, functionals):
    return {int(labeling.members(m.label).min()): m for m in functionals}


def assert_same_shapes(a, b):
    assert a.keys() == b.keys()
    for k in a:
        assert a[k].euler_characteristic == b[k].euler_characteristic
        for name in ("surface_area", "mean_curvature"):
            x, y = getattr(a[k], name), getattr(b[k], name)
            assert math.isclose(x, y, rel_tol=INVARIANCE_RTOL), (k, name, x, y)


def shapes(tess, q):
    labeling = at_quantile(tess, q)
    return by_smallest_member(labeling, minkowski_functionals(tess, labeling))


@pytest.mark.parametrize("q", (0.6, 0.95))
def test_block_count_invariance(q):
    assert_same_shapes(shapes(poisson(600), q), shapes(poisson(600, nblocks=8), q))


class TestPeriodicSeam:
    @pytest.mark.parametrize("q", (0.6, 0.95))
    def test_invariant_under_periodic_shift(self, q):
        # 600 points at the 0.95 quantile: 4 of 5 components straddle the
        # seam in one of the two placements; at 0.6 one sponge percolates.
        assert_same_shapes(
            shapes(poisson(600), q), shapes(poisson(600, shift=BOX / 2), q)
        )

    def test_reference_is_shift_invariant_too(self):
        a, b = poisson(600), poisson(600, shift=BOX / 2)
        la, lb = at_quantile(a, 0.95), at_quantile(b, 0.95)
        assert_same_shapes(
            by_smallest_member(la, minkowski_reference(a, la)),
            by_smallest_member(lb, minkowski_reference(b, lb)),
        )

    def test_non_periodic_tessellation_unchanged(self):
        tess = poisson(periodic=False)
        labeling = at_quantile(tess, 0.7)
        assert_parity(
            minkowski_functionals(tess, labeling),
            minkowski_reference(tess, labeling, periodic=NO_SEAM),
        )

    def test_components_clear_of_the_seam_unchanged(self):
        tess = poisson(600)
        labeling = at_quantile(tess, 0.95)
        flat = minkowski_functionals(tess, labeling)
        before = minkowski_reference(tess, labeling, periodic=NO_SEAM)
        clear = [m.label for m in flat if not straddles(tess, labeling.members(m.label))]
        assert 0 < len(clear) < len(flat)
        assert_parity([flat[c] for c in clear], [before[c] for c in clear])


def straddles(tess, members):
    """Whether two face-adjacent cells among ``members`` sit on opposite
    sides of the box."""
    ids = tess.site_ids()
    sites = np.concatenate([b.sites for b in tess.blocks])
    pos = {int(s): i for i, s in enumerate(ids)}
    for block in tess.blocks:
        for i, sid in enumerate(block.site_ids):
            if sid not in members:
                continue
            for nb in neighbors_of_cell(block, i):
                if nb in members and (
                    np.abs(sites[pos[int(nb)]] - block.sites[i]) > BOX / 2
                ).any():
                    return True
    return False


def _distributed_voids_worker(comm, pts, domain, ghost, vmin):
    """One rank of :func:`find_voids_distributed` with Minkowski
    functionals, on block ``gid == rank`` of ``pts``."""
    decomp = Decomposition.regular(domain, comm.size, periodic=True)
    mine = decomp.locate(pts) == comm.rank
    handle = DistributedTessellation.collect(
        comm,
        domain,
        *tessellate_distributed(
            comm, decomp, pts[mine], np.flatnonzero(mine), ghost=ghost
        ),
    )
    catalog = find_voids_distributed(
        comm, handle, vmin=vmin, compute_minkowski=True
    )
    return catalog, handle.block


#: (points, box side, ghost, volume quantile): the sponge percolating
#: across the seam of ``test_percolating_component``, and the lattice.
DISTRIBUTED_CASES = {
    "sponge": (poisson_points, BOX, 4.0, 0.5),
    "lattice": (lattice_points, float(LATTICE_SIDE), 2.5, 0.6),
}


@pytest.mark.parametrize("nranks", (1, 2, 4, 8))
@pytest.mark.parametrize("case", sorted(DISTRIBUTED_CASES))
def test_distributed_voids_match_reference(case, nranks):
    """In situ functionals — each rank cuts its block's sub-mesh, the root
    joins them — equal ``find_voids`` on the joined blocks bit for bit,
    and the dict reference to ``PARITY_RTOL``."""
    points, side, ghost, q = DISTRIBUTED_CASES[case]
    pts, domain = points(), Bounds.cube(side)
    vmin = float(
        np.quantile(tessellate(pts, domain, ghost=ghost).volumes(), q)
    )
    per_rank = run_parallel(
        nranks, _distributed_voids_worker, pts, domain, ghost, vmin
    )
    joined = Tessellation(
        domain=domain,
        blocks=sorted((b for _, b in per_rank), key=lambda b: b.gid),
    )
    want = find_voids(joined, vmin=vmin, compute_minkowski=True)
    ref = minkowski_reference(joined, connected_components(joined, vmin=vmin))
    for got, _ in per_rank:
        assert [v.minkowski for v in got.voids] == [
            v.minkowski for v in want.voids
        ]
    voids = sorted(per_rank[0][0].voids, key=lambda v: v.label)
    assert_parity([v.minkowski for v in voids], [ref[v.label] for v in voids])
    if case == "sponge":
        big = max(voids, key=lambda v: v.num_cells).minkowski
        assert big.num_cells > 0.4 * joined.num_cells
        assert big.euler_characteristic < 0


def test_counters_and_span():
    observe.reset_all()
    observe.enable()
    try:
        tess = poisson()
        find_voids(tess, vmin=float(np.quantile(tess.volumes(), 0.9)),
                   compute_minkowski=True)
        report = observe.metrics_report()
        counters, spans = report["metrics"]["counters"], report["spans"]
    finally:
        observe.disable()
        observe.reset_all()
    assert "minkowski" in spans
    for name in ("boundary_faces", "welded_vertices"):
        assert counters[f"analysis.minkowski.{name}"] > 0
    assert "analysis.minkowski.nonmanifold_edges" in counters
