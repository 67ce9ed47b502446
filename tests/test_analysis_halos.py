"""Tests for the friends-of-friends halo finder.

Serial and distributed FOF share one body (rows -> root merge -> catalog),
so besides comparing them with each other both are held bit for bit —
members and centre bits — to the kd-tree + dict finder in
``tests/halos_reference.py``, at 1/2/4/8 ranks on both execution backends.
"""

import numpy as np
import pytest

from repro.diy.bounds import Bounds
from repro.diy.comm import ParallelError, run_parallel
from repro.diy.decomposition import Decomposition
from repro.analysis.halos import fof_halos, fof_halos_distributed

from .halos_reference import fof_halos_dict


def clustered_points(seed=0, size=10.0):
    """Three compact groups + sparse background, inside a periodic box."""
    rng = np.random.default_rng(seed)
    centers = np.array([[2, 2, 2], [8, 8, 8], [2, 8, 5]], dtype=float)
    groups = [rng.normal(c, 0.12, size=(30, 3)) for c in centers]
    bg = rng.uniform(0, size, size=(25, 3))
    pts = np.vstack(groups + [bg]) % size
    return pts


class TestSerialFOF:
    def test_finds_planted_groups(self):
        pts = clustered_points(1)
        cat = fof_halos(pts, linking_length=0.4, domain=Bounds.cube(10.0),
                        min_members=10)
        assert cat.num_halos == 3
        assert all(h.mass >= 25 for h in cat.halos)

    def test_masses_sorted_descending(self):
        pts = clustered_points(2)
        cat = fof_halos(pts, 0.4, Bounds.cube(10.0), min_members=5)
        m = cat.masses()
        assert np.all(m[:-1] >= m[1:])

    def test_min_members_threshold(self):
        pts = clustered_points(3)
        few = fof_halos(pts, 0.4, Bounds.cube(10.0), min_members=40)
        assert few.num_halos == 0

    def test_linking_length_controls_merging(self):
        pts = clustered_points(4)
        small = fof_halos(pts, 0.2, Bounds.cube(10.0), min_members=5)
        huge = fof_halos(pts, 8.0, Bounds.cube(10.0), min_members=5)
        assert huge.num_halos == 1  # everything links up
        assert huge.halos[0].mass == len(pts)
        assert small.num_halos >= 3

    def test_periodic_group_across_seam(self):
        """A group straddling the periodic boundary is one halo."""
        rng = np.random.default_rng(5)
        pts = (rng.normal(0.0, 0.1, size=(40, 3))) % 10.0  # wraps the corner
        cat = fof_halos(pts, 0.5, Bounds.cube(10.0), min_members=10)
        assert cat.num_halos == 1
        assert cat.halos[0].mass == 40
        # The center must sit near the corner (mod 10), not at box center.
        c = cat.halos[0].center
        dist_corner = np.linalg.norm((c + 5.0) % 10.0 - 5.0)
        assert dist_corner < 0.5

    def test_without_domain_open_boundaries(self):
        rng = np.random.default_rng(6)
        pts = np.vstack([
            rng.normal(0.0, 0.1, size=(20, 3)),
            rng.normal(5.0, 0.1, size=(20, 3)),
        ])
        cat = fof_halos(pts, 0.5, domain=None, min_members=10)
        assert cat.num_halos == 2

    def test_invalid_inputs(self):
        pts = clustered_points(0)
        with pytest.raises(ValueError, match="positions"):
            fof_halos(np.zeros((3, 2)), 0.2)
        for length in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="linking_length"):
                fof_halos(pts, length)
        for ids in (np.arange(len(pts) - 1), np.arange(len(pts) + 1),
                    np.arange(len(pts)).reshape(-1, 5)):
            with pytest.raises(ValueError, match="ids must hold one id"):
                fof_halos(pts, 0.4, Bounds.cube(10.0), ids=ids)
        for min_members in (0, -3):
            with pytest.raises(ValueError, match="min_members"):
                fof_halos(pts, 0.4, Bounds.cube(10.0), min_members=min_members)
        twice = np.arange(len(pts)) % (len(pts) - 1)
        with pytest.raises(ValueError, match="ids must be unique"):
            fof_halos(pts, 0.4, Bounds.cube(10.0), ids=twice)

    def test_custom_ids_propagate(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(5.0, 0.1, size=(15, 3))
        ids = np.arange(15) + 1000
        cat = fof_halos(pts, 0.5, Bounds.cube(10.0), min_members=10, ids=ids)
        assert cat.num_halos == 1
        assert set(cat.halos[0].members) == set(ids)

    def test_mass_function(self):
        pts = clustered_points(8)
        cat = fof_halos(pts, 0.4, Bounds.cube(10.0), min_members=5)
        counts = cat.mass_function(np.array([0, 10, 100]))
        assert counts.sum() == cat.num_halos


class TestDistributedFOF:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_matches_serial(self, nranks):
        domain = Bounds.cube(10.0)
        pts = clustered_points(9)
        ids = np.arange(len(pts), dtype=np.int64)
        ref = fof_halos(pts, 0.4, domain, min_members=10, ids=ids)
        decomp = Decomposition.regular(domain, nranks, periodic=True)

        def worker(comm):
            mine = decomp.locate(pts) == comm.rank
            return fof_halos_distributed(
                comm, decomp, pts[mine], ids[mine],
                linking_length=0.4, min_members=10,
            )

        catalogs = run_parallel(nranks, worker)
        for cat in catalogs:
            assert cat.num_halos == ref.num_halos
            got = sorted(tuple(h.members) for h in cat.halos)
            want = sorted(tuple(h.members) for h in ref.halos)
            assert got == want

    def test_group_split_across_ranks(self):
        """A halo exactly on a block boundary must not fragment."""
        domain = Bounds.cube(10.0)
        rng = np.random.default_rng(10)
        pts = rng.normal([5.0, 5.0, 5.0], 0.15, size=(40, 3))  # block seam
        ids = np.arange(40, dtype=np.int64)
        decomp = Decomposition.regular(domain, 8, periodic=True)
        ref = fof_halos(pts, 0.5, domain, min_members=10, ids=ids)

        def worker(comm):
            mine = decomp.locate(pts) == comm.rank
            return fof_halos_distributed(
                comm, decomp, pts[mine], ids[mine], 0.5, min_members=10
            )

        cat = run_parallel(8, worker)[0]
        assert cat.num_halos == ref.num_halos == 1
        assert cat.halos[0].mass == 40
        assert_same_catalog(cat, fof_halos_dict(pts, 0.5, domain, 10, ids=ids))

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"linking_length": 0.0}, "linking_length"),
            ({"linking_length": np.nan}, "linking_length"),
            ({"linking_length": -0.4}, "linking_length"),
            ({"min_members": 0}, "min_members"),
            ({"drop_id": True}, "ids must hold one id"),
        ],
        ids=["zero_length", "nan_length", "negative_length", "zero_min_members",
             "short_ids"],
    )
    def test_invalid_inputs(self, kwargs, match):
        """Every rank validates before any collective, naming the argument."""
        domain = Bounds.cube(10.0)
        pts = clustered_points(0)
        ids = np.arange(len(pts), dtype=np.int64)
        decomp = Decomposition.regular(domain, 2, periodic=True)
        args = {"linking_length": 0.4, "min_members": 10, **kwargs}
        drop_id = args.pop("drop_id", False)

        def worker(comm):
            mine = decomp.locate(pts) == comm.rank
            mine_ids = ids[mine][:-1] if drop_id else ids[mine]
            return fof_halos_distributed(comm, decomp, pts[mine], mine_ids, **args)

        with pytest.raises(ParallelError, match=match) as info:
            run_parallel(2, worker, recv_timeout=10.0)
        assert isinstance(info.value.original, ValueError)


def assert_same_catalog(got, want):
    """Equal halo for halo: member ids and the centre's float bits."""
    assert got.num_halos == want.num_halos
    for g, w in zip(got.halos, want.halos):
        assert g.members.dtype == np.int64
        np.testing.assert_array_equal(g.members, w.members)
        assert g.center.tobytes() == w.center.tobytes()


def seam_group():
    """One tight group on the corner all eight blocks of a 2x2x2 split share."""
    rng = np.random.default_rng(10)
    pts = rng.normal([5.0, 5.0, 5.0], 0.15, size=(40, 3))
    return pts, np.arange(40, dtype=np.int64), 0.5, 10


@pytest.fixture(scope="module")
def evolved():
    """A 10^3 snapshot after 12 steps, with non-trivial ids order."""
    from repro.hacc import HACCSimulation, SimulationConfig

    cfg = SimulationConfig(np_side=10, nsteps=12, seed=2)
    snap = {}

    def capture(sim, step, a):
        snap["pos"] = sim.positions_mpc().copy()
        snap["ids"] = sim.local.ids.copy()

    HACCSimulation(cfg).run(hooks={12: [capture]})
    spacing = cfg.box_size / cfg.np_side
    return snap["pos"], snap["ids"], 0.25 * spacing, 5, cfg.domain()


def _case(name, evolved):
    if name == "evolved":
        return evolved
    if name == "seam":
        return (*seam_group(), Bounds.cube(10.0))
    pts = clustered_points(9)
    ids = np.random.default_rng(9).permutation(len(pts)).astype(np.int64) + 7
    return pts, ids, 0.4, 5, Bounds.cube(10.0)


def _distributed_worker(comm, pts, ids, decomp, linking_length, min_members):
    mine = decomp.locate(pts) == comm.rank
    return fof_halos_distributed(
        comm, decomp, pts[mine], ids[mine], linking_length, min_members
    )


class TestReferenceParity:
    @pytest.mark.parametrize("case", ["clustered", "seam", "evolved"])
    @pytest.mark.parametrize("periodic", [True, False])
    def test_serial_matches_dict_reference(self, evolved, case, periodic):
        pts, ids, length, min_members, domain = _case(case, evolved)
        domain = domain if periodic else None
        want = fof_halos_dict(pts, length, domain, min_members, ids=ids)
        assert want.num_halos >= 1
        assert_same_catalog(fof_halos(pts, length, domain, min_members, ids), want)

    @pytest.mark.parametrize("exec_backend", ["thread", "process"])
    @pytest.mark.parametrize("nranks", [1, 2, 4, 8])
    @pytest.mark.parametrize("case", ["clustered", "seam", "evolved"])
    def test_distributed_matches_dict_reference(
        self, evolved, case, nranks, exec_backend
    ):
        pts, ids, length, min_members, domain = _case(case, evolved)
        want = fof_halos_dict(pts, length, domain, min_members, ids=ids)
        decomp = Decomposition.regular(domain, nranks, periodic=True)
        catalogs = run_parallel(
            nranks, _distributed_worker, pts, ids, decomp, length, min_members,
            backend=exec_backend,
        )
        for cat in catalogs:
            assert_same_catalog(cat, want)
