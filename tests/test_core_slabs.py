"""A block's thin pass cut into slabs returns the cells of the uncut pass.

``_tessellate_block_flat`` cuts the thin pass of a block with enough owned
sites into slabs across its longest axis and triangulates each slab on its
own thread (DESIGN.md §11).  A slab's seam is certified like the ghost
shell, a violated seam cell goes to the one repair patch, and the slabs'
cells are welded on bit-identical circumcenters.  The oracle is the same
function at one slab, and "identical" means bit for bit, face by face.
"""

import importlib
import os
import threading

import numpy as np
import pytest

from repro import observe
from repro.core import tessellate
from repro.diy.bounds import Bounds
from repro.diy.decomposition import Decomposition

from .clustered import clustered_points

# ``repro.core.tessellate`` the attribute is the function; this is the module.
TESS = importlib.import_module("repro.core.tessellate")


def slabbed(count, *args, **kwargs):
    """``tessellate`` with every block's thin pass given ``count`` slabs,
    all blocks on one inline rank: it reads the patched module, which pool
    ranks forked before the patch never see."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TESS, "_slab_count", lambda ranks: count)
        return tessellate(*args, **{"nranks": 1, **kwargs})


def slabbed_counters(count, *args, **kwargs):
    """``slabbed``'s result and the ``geom.*`` counters it published."""
    observe.enable()
    try:
        observe.registry().reset()
        out = slabbed(count, *args, **kwargs)
        counters = observe.registry().as_dict()["counters"]
    finally:
        observe.disable()
        observe.registry().reset()
    return out, {
        k[len("geom."):]: v for k, v in counters.items() if k.startswith("geom.")
    }


def assert_identical(got, want):
    assert [b.gid for b in got.blocks] == [b.gid for b in want.blocks]
    for a, b in zip(got.blocks, want.blocks):
        for name in (
            "site_ids", "sites", "volumes", "areas", "face_neighbors",
            "face_offsets", "cell_face_offsets",
        ):
            np.testing.assert_array_equal(
                getattr(a, name), getattr(b, name), err_msg=name
            )
        # every face's vertex cycle, coordinate for coordinate, from a pool
        # that lists each vertex once (the seams are welded)
        np.testing.assert_array_equal(
            a.vertices[a.face_vertices], b.vertices[b.face_vertices]
        )
        assert a.num_vertices == b.num_vertices


@pytest.fixture(scope="module")
def evolved():
    """16^3 particles at steps 4 (near-uniform) and 12 (voids opened)."""
    from repro.hacc import HACCSimulation, SimulationConfig

    cfg = SimulationConfig(np_side=16, nsteps=12, seed=3000)
    snaps = {}

    def capture(sim, step, a):
        snaps[step] = (sim.positions_mpc().copy(), sim.local.ids.copy())

    HACCSimulation(cfg).run(hooks={4: [capture], 12: [capture]})
    return snaps, cfg.domain()


@pytest.mark.parametrize("nblocks", (1, 2))
@pytest.mark.parametrize("step", (4, 12))
def test_cells_identical_for_any_slab_count(evolved, step, nblocks):
    snaps, domain = evolved
    pos, ids = snaps[step]
    kw = dict(nblocks=nblocks, ghost=4.0, ids=ids)
    want = slabbed(1, pos, domain, **kw)
    owned = np.bincount(
        Decomposition.regular(domain, nblocks, periodic=True).locate(pos)
    )
    for count in (2, 3, 4):
        got, counters = slabbed_counters(count, pos, domain, **kw)
        assert counters["slabs"] == sum(
            min(count, n // TESS._MIN_SLAB_SITES) for n in owned
        )
        assert got.num_cells == len(pos)
        assert_identical(got, want)


def test_seam_cells_are_certified_and_repaired(evolved):
    # The seams add certificate work the one-slab pass does not have: the
    # repairs they cause must still give the cells of the uncut pass.
    snaps, domain = evolved
    pos, ids = snaps[12]
    kw = dict(nblocks=1, ghost=4.0, ids=ids)
    want, one = slabbed_counters(1, pos, domain, **kw)
    got, four = slabbed_counters(4, pos, domain, **kw)
    assert four["cells_repaired"] > one["cells_repaired"]
    assert four["certificate_violations"] > one["certificate_violations"]
    assert four["ghosts_withheld"] == one["ghosts_withheld"]
    assert_identical(got, want)


def test_seam_shell_bound(evolved):
    # Each seam adds a shell of ``_START_SPACINGS`` on both of its sides:
    # at most half a point per owned point on top of the uncut 2.5.
    snaps, domain = evolved
    pos, ids = snaps[12]
    for count in (1, 2, 3, 4):
        _, counters = slabbed_counters(
            count, pos, domain, nblocks=1, ghost=4.0, ids=ids
        )
        bound = (2.5 + 0.5 * (count - 1)) * len(pos)
        assert counters["points_triangulated"] <= bound, count


BOX = 10.0
CLUSTERED = clustered_points(3000, BOX, seed=4)


@pytest.mark.parametrize("periodic", (True, False))
def test_clustered_blocks(periodic):
    kw = dict(
        nblocks=2, ghost=4.0 * BOX / len(CLUSTERED) ** (1.0 / 3.0),
        periodic=periodic,
    )
    want = slabbed(1, CLUSTERED, Bounds.cube(BOX), **kw)
    got, counters = slabbed_counters(3, CLUSTERED, Bounds.cube(BOX), **kw)
    # a periodic block is cut (a block too small for two slabs adds
    # nothing to the counter); a non-periodic domain face leaves a block
    # unenclosed, and the full pass, which is never cut, runs there
    if periodic:
        assert counters["slabs"] >= 2
    else:
        assert "slabs" not in counters
    assert_identical(got, want)


def test_volume_thresholds_and_fewer_ranks_than_blocks():
    spacing = BOX / len(CLUSTERED) ** (1.0 / 3.0)
    vols = slabbed(1, CLUSTERED, Bounds.cube(BOX), ghost=4 * spacing).volumes()
    vmin, vmax = np.quantile(vols, [0.2, 0.9])
    kw = dict(nblocks=2, nranks=1, ghost=4 * spacing, vmin=vmin, vmax=vmax)
    want = slabbed(1, CLUSTERED, Bounds.cube(BOX), **kw)
    assert 0 < want.num_cells < len(CLUSTERED)
    got, counters = slabbed_counters(2, CLUSTERED, Bounds.cube(BOX), **kw)
    assert counters["slabs"] >= 2
    assert_identical(got, want)


def test_slabs_hold_a_minimum_of_owned_sites():
    pts = np.random.default_rng(8).uniform(0.0, BOX, size=(1500, 3))
    _, counters = slabbed_counters(8, pts, Bounds.cube(BOX), ghost=2.5)
    assert counters["slabs"] == 1500 // TESS._MIN_SLAB_SITES


def test_lattice_abandons_every_slab_for_the_full_pass():
    g = np.arange(12) + 0.5
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    got, counters = slabbed_counters(3, pts, Bounds.cube(12.0), ghost=2.5)
    assert "slabs" not in counters and "ghosts_withheld" not in counters
    assert got.num_cells == len(pts)
    np.testing.assert_allclose(got.volumes(), 1.0, rtol=1e-9)
    assert_identical(got, slabbed(1, pts, Bounds.cube(12.0), ghost=2.5))


def test_each_slab_runs_on_its_own_thread(evolved, monkeypatch):
    snaps, domain = evolved
    pos, ids = snaps[4]
    engine = TESS.DelaunayVoronoi
    threads = []

    def spy(points, box, owned=None):
        if owned is not None and not owned.all():  # a thin-pass slab
            threads.append(threading.get_ident())
        return engine(points, box, owned=owned)

    monkeypatch.setattr(TESS, "DelaunayVoronoi", spy)
    slabbed(3, pos, domain, nblocks=1, ghost=4.0, ids=ids)
    # the rank's own thread takes one slab, two pool threads the others
    assert len(threads) == 3 and len(set(threads)) == 3


def test_rank_cpu_counts_its_slab_threads(evolved):
    # ``compute_cpu`` is the CPU the rank spent, whichever thread spent it:
    # at least every slab's traced thin pass and certificate.
    snaps, domain = evolved
    pos, ids = snaps[4]
    observe.enable()
    try:
        observe.reset_all()
        tess = slabbed(3, pos, domain, nblocks=1, ghost=4.0, ids=ids)
        slab_cpu = sum(
            cpu for name, _, _, _, cpu, *_ in observe.trace.raw_events()
            if name in ("thin-pass", "certificate")
        )
    finally:
        observe.disable()
        observe.reset_all()
    assert tess.timings.compute_cpu >= slab_cpu > 0


def test_credited_cpu_lands_in_the_open_phase():
    from repro.core.timing import PhaseTimer, credit_cpu

    timer = PhaseTimer()
    with timer.phase("compute"):
        credit_cpu(5.0)
    with timer.phase("output"):
        pass
    assert 5.0 <= timer.cpu("compute") < 6.0
    assert timer.cpu("output") < 1.0


def test_slab_count_shares_the_cores_among_ranks(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    assert [TESS._slab_count(r) for r in (1, 2, 3, 8, 16)] == [8, 4, 2, 1, 1]
    # without an affinity API, every core of the machine counts
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert [TESS._slab_count(r) for r in (1, 2, 4, 7)] == [6, 3, 1, 1]
