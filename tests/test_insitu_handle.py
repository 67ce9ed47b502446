"""The in situ data flow: the tessellation tool hands every other tool a
rank-local :class:`DistributedTessellation`, no block or tessellation
travels between ranks (Minkowski firings included), and no tool
tessellates twice per step."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro import observe
from repro.analysis import find_voids
from repro.analysis.voids import volume_threshold_for_fraction
from repro.core import DistributedTessellation, Tessellation, VoronoiBlock
from repro.diy import run_parallel
from repro.hacc import SimulationConfig
from repro.insitu import (
    TOOL_REGISTRY,
    AnalysisTool,
    CosmologyToolsFramework,
    FrameworkConfig,
    run_simulation_with_tools,
)

from .tracking_reference import assert_same_columns

#: Bytes an analysis firing may send per rank, per global cell, beyond the
#: tessellation's own ghost exchange and file write.
ANALYSIS_BYTES_PER_CELL = 64


# ----------------------------------------------------------------------
# merger trees with a culling tessellation tool
# ----------------------------------------------------------------------
CULL_CFG = SimulationConfig(np_side=10, nsteps=12, seed=2)
CULL_DECK = {
    "tools": [
        {"tool": "tessellation", "every": 4,
         "params": {"ghost": 4.0, "vmin": 0.8}},
        {"tool": "tracking", "every": 4,
         "params": {"vmin_quantile": 0.8, "min_overlap": 1}},
    ]
}


@pytest.fixture(scope="module")
def cull_tree_1rank():
    return run_simulation_with_tools(CULL_CFG, CULL_DECK)["tracking"][12]


@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_tracking_follows_the_culled_tessellation(cull_tree_1rank, nranks):
    """Tracking labels the tessellation tool's (culled) cells at every
    rank count — it used to re-tessellate without the tool's ``vmin`` on
    2+ ranks and lose the split."""
    assert (cull_tree_1rank.num_tracks, cull_tree_1rank.num_events) == (2, 3)
    assert cull_tree_1rank.counts()["split"] == 1
    got = run_simulation_with_tools(CULL_CFG, CULL_DECK, nranks=nranks)[
        "tracking"
    ][12]
    assert_same_columns(got.arrays, cull_tree_1rank.arrays, volumes_rtol=1e-9)


# ----------------------------------------------------------------------
# traffic: what crosses ranks per firing
# ----------------------------------------------------------------------
TRAFFIC_CFG = SimulationConfig(np_side=10, nsteps=8, seed=3)
MESH_TYPES = (VoronoiBlock, Tessellation, DistributedTessellation)
COLLECTIVES = ("gather", "bcast", "allreduce", "alltoall", "sparse_alltoall")


def _chain_deck(compute_minkowski: bool = False) -> dict:
    every = 4
    return {
        "tools": [
            {"tool": "mark", "every": every},
            {"tool": "tessellation", "every": every, "params": {"ghost": 4.0}},
            {"tool": "void_finder", "every": every,
             "params": {"compute_minkowski": compute_minkowski}},
            {"tool": "cell_statistics", "every": every},
            {"tool": "tracking", "every": every,
             "params": {"vmin_quantile": 0.9, "min_overlap": 2}},
        ]
    }


def _tess_bytes(comm) -> int:
    """This rank's cumulative tessellation bytes (ghost exchange + file
    write), as absorbed from its own ``TessTimings``."""
    return observe.registry().counter("tess.bytes_sent", rank=comm.rank).value


class _Mark(AnalysisTool):
    """First tool of every firing: this rank's counters as it begins."""

    name = "mark"

    def run(self, sim, step, a, comm, context=None):
        return comm.stats.bytes_sent, _tess_bytes(comm)


def _carries_mesh(obj, depth: int = 0) -> bool:
    if isinstance(obj, MESH_TYPES):
        return True
    if depth < 4 and isinstance(obj, (list, tuple)):
        return any(_carries_mesh(v, depth + 1) for v in obj)
    if depth < 4 and isinstance(obj, dict):
        return any(_carries_mesh(v, depth + 1) for v in obj.values())
    return False


def _refuse_meshes(comm) -> None:
    """Make every collective of this rank's communicator raise when handed
    a block or a tessellation."""
    for name in COLLECTIVES:
        def guarded(obj, *args, _orig=getattr(comm, name), _name=name, **kw):
            if _carries_mesh(obj):
                raise TypeError(f"{_name} was handed a mesh")
            return _orig(obj, *args, **kw)

        setattr(comm, name, guarded)


def _traffic_worker(comm, compute_minkowski: bool):
    """One rank: run the chain deck, return per firing this rank's bytes
    sent beyond its tessellation's own, the global cell count, and the
    pickled size of this rank's block."""
    _refuse_meshes(comm)
    fw = CosmologyToolsFramework(
        FrameworkConfig.from_dict(_chain_deck(compute_minkowski)),
        registry={**TOOL_REGISTRY, "mark": _Mark},
    )
    ends = {}
    fw.subscribe(
        "tracking",
        lambda step, a, r: ends.__setitem__(
            step, (comm.stats.bytes_sent, _tess_bytes(comm))
        ),
    )
    fw.run(TRAFFIC_CFG, comm)
    out = {}
    for step, (sent0, tess0) in fw.results["mark"].items():
        sent1, tess1 = ends[step]
        handle = fw.results["tessellation"][step]
        out[step] = (
            (sent1 - sent0) - (tess1 - tess0),
            handle.num_cells,
            len(pickle.dumps(handle.block)),
        )
    return out


def _run_observed(nranks, compute_minkowski):
    observe.reset_all()
    observe.enable()
    try:
        return run_parallel(nranks, _traffic_worker, compute_minkowski)
    finally:
        observe.disable()
        observe.reset_all()


@pytest.mark.parametrize("nranks", [2, 4])
def test_analysis_traffic_per_firing(nranks):
    per_rank = _run_observed(nranks, False)
    firings = per_rank[0]
    assert sorted(firings) == [4, 8]
    for step in firings:
        for rank, rows in enumerate(per_rank):
            analysis_bytes, cells, _ = rows[step]
            assert cells == TRAFFIC_CFG.np_side ** 3
            assert analysis_bytes < ANALYSIS_BYTES_PER_CELL * cells, (
                f"rank {rank} step {step}: {analysis_bytes / cells:.1f} B/cell"
            )


@pytest.mark.parametrize("nranks", [2, 4])
def test_minkowski_firing_sends_less_than_its_block(nranks):
    """A Minkowski firing hands no collective a block or a tessellation,
    and each non-root rank sends less per firing — every tool of the
    chain included — than gathering the mesh to rank 0 shipped: its
    pickled block, and those of the ranks it relays in the binomial
    gather (rank ``r`` forwards ``r .. r + lowbit(r) - 1``)."""
    per_rank = _run_observed(nranks, True)
    assert sorted(per_rank[0]) == [4, 8]
    for rank, rows in enumerate(per_rank[1:], start=1):
        relayed = range(rank, min(rank + (rank & -rank), nranks))
        for step, (analysis_bytes, _, _) in rows.items():
            assembled = sum(per_rank[r][step][2] for r in relayed)
            assert analysis_bytes < assembled, (rank, step)


# ----------------------------------------------------------------------
# the handle itself, and the driver's join
# ----------------------------------------------------------------------
def _handle_worker(comm):
    fw = CosmologyToolsFramework(
        FrameworkConfig.from_dict(
            {"tools": [{"tool": "tessellation", "params": {"ghost": 4.0}}]}
        )
    )
    fw.run(SimulationConfig(np_side=8, nsteps=2, seed=4), comm)
    handle = fw.results["tessellation"][2]
    summary = (handle.num_cells, handle.total_volume(), handle.output_bytes)
    if comm.rank != 0:
        with pytest.raises(RuntimeError, match="rank 0"):
            handle.volumes()
        return summary, None, handle.block
    return summary, (handle.site_ids(), handle.volumes()), handle.block


def test_handle_columns_match_the_joined_mesh():
    per_rank = run_parallel(3, _handle_worker)
    summaries = {s for s, _, _ in per_rank}
    assert len(summaries) == 1
    joined = Tessellation(
        domain=SimulationConfig(np_side=8).domain(),
        blocks=sorted((b for _, _, b in per_rank), key=lambda b: b.gid),
    )
    num_cells, total, _ = summaries.pop()
    assert num_cells == joined.num_cells == 512
    assert total == joined.total_volume()  # bit for bit
    sids, vols = per_rank[0][1]
    np.testing.assert_array_equal(sids, joined.site_ids())
    np.testing.assert_array_equal(vols, joined.volumes())


# ----------------------------------------------------------------------
# void catalogs equal find_voids on the joined tessellation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("nranks", [1, 2, 4])
@pytest.mark.parametrize(
    "cull, compute_minkowski",
    [(None, False), (0.6, False), (None, True), (0.6, True)],
    ids=["None", "0.6", "None-minkowski", "0.6-minkowski"],
)
def test_insitu_voids_match_joined_tessellation(nranks, cull, compute_minkowski):
    results = run_simulation_with_tools(
        SimulationConfig(np_side=10, nsteps=8, seed=2),
        {"tools": [
            {"tool": "tessellation", "every": 4,
             "params": {"ghost": 4.0, "vmin": cull}},
            {"tool": "void_finder", "every": 4,
             "params": {"vmin_fraction": 0.6, "min_cells": 2,
                        "compute_minkowski": compute_minkowski}},
        ]},
        nranks=nranks,
    )
    found = 0
    for step, tess in results["tessellation"].items():
        assert isinstance(tess, Tessellation)
        got = results["void_finder"][step]
        want = find_voids(
            tess, vmin=volume_threshold_for_fraction(tess, 0.6), min_cells=2,
            compute_minkowski=compute_minkowski,
        )
        assert got.vmin == want.vmin
        assert got.num_voids == want.num_voids
        found += got.num_voids
        for g, w in zip(got.voids, want.voids):
            np.testing.assert_array_equal(g.site_ids, w.site_ids)
            assert g.volume == w.volume  # same cells, same summation order
            assert (g.minkowski is None) == (not compute_minkowski)
            assert g.minkowski == w.minkowski  # every field, bit for bit
    assert found >= 3


# ----------------------------------------------------------------------
# the 1-rank run gives the serial library answer
# ----------------------------------------------------------------------
ONE_RANK_CFG = SimulationConfig(np_side=8, nsteps=4, seed=6)
ONE_RANK_DECK = {
    "tools": [
        {"tool": "tessellation", "every": 2, "params": {"ghost": 3.5}},
        {"tool": "halo_finder", "every": 2,
         "params": {"linking_length": 0.3, "min_members": 2}},
        {"tool": "statistics", "every": 2, "params": {"bins": 20}},
        {"tool": "void_finder", "every": 2},
        {"tool": "cell_statistics", "every": 2, "params": {"bins": 20}},
        {"tool": "tracking", "every": 2, "params": {"vmin_quantile": 0.7}},
        {"tool": "dtfe", "every": 2, "params": {"grid_size": 6}},
    ]
}


class _Particles(AnalysisTool):
    """First tool of every firing: the particles the other tools see."""

    name = "particles"

    def run(self, sim, step, a, comm, context=None):
        return (
            sim.positions_mpc().copy(),
            sim.local.positions.copy(),
            sim.local.ids.copy(),
        )


def _library_products(particles, handles) -> dict[str, dict[int, object]]:
    """Each tool's product on ``ONE_RANK_DECK`` from the serial library
    functions, step by step: ``tessellate``, ``fof_halos``, the histogram
    of the CIC contrast, ``find_voids`` / the cell histograms /
    ``connected_components`` + ``FeatureTreeBuilder`` on the joined mesh,
    and ``dtfe_grid``."""
    from repro.analysis import connected_components, fof_halos, histogram
    from repro.analysis.dtfe import dtfe_grid
    from repro.analysis.statistics import density_contrast
    from repro.analysis.tracking import FeatureTreeBuilder
    from repro.core import tessellate
    from repro.hacc.mesh import cic_deposit
    from repro.hacc.mesh import density_contrast as mesh_contrast

    cfg, domain = ONE_RANK_CFG, ONE_RANK_CFG.domain()
    builder = FeatureTreeBuilder(min_overlap=1)
    out: dict[str, dict[int, object]] = {}
    for step, (pos, grid_pos, ids) in sorted(particles.items()):
        joined = handles[step].join_blocks([handles[step].block])
        vols = joined.volumes()
        labeling = connected_components(
            joined, vmin=float(np.quantile(vols[vols > 0], 0.7))
        )
        sids = joined.site_ids()
        order = np.argsort(sids, kind="stable")
        at = np.searchsorted(sids[order], labeling.site_ids)
        comp_vol = np.zeros(labeling.num_components)
        np.add.at(comp_vol, labeling.labels, vols[order][at])
        builder.push(step, labeling, volumes=comp_vol)
        products = {
            "tessellation": tessellate(
                pos, domain, nblocks=1, ghost=3.5, ids=ids
            ),
            "halo_finder": fof_halos(
                pos, 0.3 * cfg.box_size / cfg.np_side, domain=domain,
                min_members=2, ids=ids,
            ),
            "statistics": histogram(
                mesh_contrast(cic_deposit(grid_pos, cfg.mesh_size)).ravel(),
                bins=20,
            ),
            "void_finder": find_voids(
                joined, vmin=volume_threshold_for_fraction(joined, 0.1),
                min_cells=1,
            ),
            "cell_statistics": {
                "volume": histogram(vols, bins=20),
                "density_contrast": histogram(density_contrast(vols), bins=20),
            },
            "tracking": builder.tree(),
            "dtfe": dtfe_grid(pos, domain, 6, pad_fraction=0.25),
        }
        for tool, product in products.items():
            out.setdefault(tool, {})[step] = product
    return out


def _assert_same(got, want, where: str) -> None:
    if isinstance(got, DistributedTessellation):
        assert isinstance(want, Tessellation), where
        assert got.num_cells == want.num_cells, where
        assert got.total_volume() == want.total_volume(), where
        np.testing.assert_array_equal(got.site_ids(), want.site_ids())
        np.testing.assert_array_equal(got.volumes(), want.volumes())
        return
    assert type(got) is type(want), where
    if isinstance(got, np.ndarray):
        np.testing.assert_array_equal(got, want, err_msg=where)
    elif dataclasses.is_dataclass(got):
        for f in dataclasses.fields(got):
            _assert_same(getattr(got, f.name), getattr(want, f.name),
                         f"{where}.{f.name}")
    elif isinstance(got, (list, tuple)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    elif isinstance(got, dict):
        assert got.keys() == want.keys(), where
        for k in got:
            _assert_same(got[k], want[k], f"{where}[{k!r}]")
    elif isinstance(got, float) and np.isnan(got):
        assert np.isnan(want), where
    else:
        assert got == want, where


def test_one_rank_communicator_gives_the_serial_answer():
    """``fw.run(cfg)`` runs every tool on the 1-rank communicator, and each
    product equals the serial library function's on the same step, bit
    for bit."""
    deck = {"tools": [{"tool": "particles", "every": 2}]
            + ONE_RANK_DECK["tools"]}
    fw = CosmologyToolsFramework(
        FrameworkConfig.from_dict(deck),
        registry={**TOOL_REGISTRY, "particles": _Particles},
    )
    fw.run(ONE_RANK_CFG)
    got = fw.results
    want = _library_products(got["particles"], got["tessellation"])
    assert set(got) - {"particles"} == set(want) == {
        t["tool"] for t in ONE_RANK_DECK["tools"]
    }
    for tool, per_step in want.items():
        assert sorted(got[tool]) == sorted(per_step) == [2, 4]
        for step, product in per_step.items():
            _assert_same(got[tool][step], product, f"{tool}@{step}")
