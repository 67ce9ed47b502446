"""Rank-parity suite: N process ranks must agree exactly with one inline rank.

Ranks are forked processes, so a multi-rank run moves every payload through
pipes and shared memory.  One inline rank can tessellate any number of
blocks, which gives the oracle: the same ``nblocks`` on one rank exchanges
the same ghosts without a message crossing a process boundary.  The
tessellation, the parallel writer and the in situ driver must produce
*bit-identical* results either way, and the traffic counters must match
the closed-form message pattern of the collectives.
"""

import numpy as np
import pytest

from repro.analysis.statistics import histogram
from repro.core.tessellate import tessellate
from repro.diy.bounds import Bounds
from repro.diy.comm import run_parallel
from repro.diy.decomposition import Decomposition
from repro.hacc import SimulationConfig
from repro.hacc.mesh import cic_deposit, density_contrast
from repro.hacc.simulation import run_simulation
from repro.insitu import run_simulation_with_tools

RANK_COUNTS = (1, 2, 4, 8)


def _cloud(n=400, box=10.0, seed=11):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, box, size=(n, 3)), Bounds.cube(box)


def assert_same_cells(ranks, inline):
    assert ranks.num_cells == inline.num_cells
    assert [b.gid for b in ranks.blocks] == [b.gid for b in inline.blocks]
    np.testing.assert_array_equal(ranks.site_ids(), inline.site_ids())
    np.testing.assert_array_equal(ranks.volumes(), inline.volumes())
    np.testing.assert_array_equal(ranks.areas(), inline.areas())
    for rb, ib in zip(ranks.blocks, inline.blocks):
        np.testing.assert_array_equal(rb.vertices, ib.vertices)
        np.testing.assert_array_equal(rb.face_vertices, ib.face_vertices)
        np.testing.assert_array_equal(rb.face_neighbors, ib.face_neighbors)


class TestTessellationParity:
    @pytest.mark.parametrize("nblocks", RANK_COUNTS)
    def test_bit_identical_cells(self, nblocks):
        points, domain = _cloud()
        assert_same_cells(
            tessellate(points, domain, nblocks=nblocks),
            tessellate(points, domain, nblocks=nblocks, nranks=1),
        )

    def test_multi_block_per_rank_parity(self):
        # The blocks' assignment to ranks changes nothing: ghosts arrive in
        # source-block order however the blocks are spread.
        points, domain = _cloud(n=300, seed=4)
        inline = tessellate(points, domain, nblocks=8, nranks=1)
        for nranks in (2, 3, 8):
            assert_same_cells(
                tessellate(points, domain, nblocks=8, nranks=nranks), inline
            )

    def test_output_files_identical(self, tmp_path):
        points, domain = _cloud(n=250, seed=7)
        paths = {}
        for nranks in (4, 1):
            paths[nranks] = str(tmp_path / f"r{nranks}.tess")
            tessellate(
                points, domain, nblocks=4, nranks=nranks, output_path=paths[nranks]
            )
        with open(paths[4], "rb") as f:
            ranks_bytes = f.read()
        with open(paths[1], "rb") as f:
            inline_bytes = f.read()
        assert ranks_bytes == inline_bytes

    def test_process_backend_moves_bytes_through_shared_memory(self, monkeypatch):
        # Lower the inline threshold so the ghost payload buffers take the
        # shared-memory path.  Forked ranks inherit the patched module, but
        # persistent pool workers fork only once — release any pool from an
        # earlier run so the workers fork *after* the patch, and again on
        # the way out so the patched value doesn't leak into later tests.
        from repro.diy import transport
        from repro.diy.process_backend import shutdown_pool

        shutdown_pool()
        monkeypatch.setattr(transport, "SHM_THRESHOLD", 1024)
        try:
            points, domain = _cloud(n=1500, seed=2)
            tess = tessellate(points, domain, nblocks=4)
            assert tess.timings.shm_bytes_sent > 0
            assert tess.timings.shm_msgs_sent > 0
            # The same blocks on one inline rank never touch shared memory.
            inline = tessellate(points, domain, nblocks=4, nranks=1)
            assert inline.timings.shm_bytes_sent == 0
            np.testing.assert_array_equal(tess.volumes(), inline.volumes())
        finally:
            shutdown_pool()  # workers forked with the patched threshold


def _tree_sum(parts):
    """Sum per-rank meshes in the pairing the allreduce uses at a
    power-of-two rank count (recursive doubling, rank order)."""
    while len(parts) > 1:
        parts = [parts[i] + parts[i + 1] for i in range(0, len(parts), 2)]
    return parts[0]


def _last_step_on_one_rank(cfg, nranks, ghost):
    """The tessellation and statistics tools' answers at the last step,
    computed on one inline rank from the particles ``nranks`` ranks end
    with (each rank's particles are those its block holds, in order)."""
    final = run_simulation(cfg, nranks=nranks)
    mpc = final.positions * cfg.cell_size
    owner = Decomposition.regular(cfg.domain(), nranks, periodic=True).locate(mpc)
    mesh = _tree_sum(
        [cic_deposit(final.positions[owner == r], cfg.mesh_size) for r in range(nranks)]
    )
    tess = tessellate(
        mpc, cfg.domain(), nblocks=nranks, nranks=1, ghost=ghost, ids=final.ids
    )
    return tess, histogram(density_contrast(mesh).ravel(), bins=100)


class TestInsituParity:
    @pytest.mark.parametrize("nranks", (1, 2, 4))
    def test_simulation_with_tools_identical(self, nranks):
        cfg = SimulationConfig(np_side=8, nsteps=3, seed=2)
        spec = {
            "tools": [
                {"tool": "tessellation", "params": {"ghost": 3.5}, "steps": [3]},
                {"tool": "statistics", "steps": [3]},
            ]
        }
        insitu = run_simulation_with_tools(cfg, spec, nranks=nranks)
        tess, hist = _last_step_on_one_rank(cfg, nranks, ghost=3.5)
        got = insitu["tessellation"][3]
        assert got.num_cells == tess.num_cells
        np.testing.assert_array_equal(got.site_ids(), tess.site_ids())
        np.testing.assert_array_equal(got.volumes(), tess.volumes())
        np.testing.assert_array_equal(insitu["statistics"][3].counts, hist.counts)
        assert insitu.simulation_seconds > 0


def _traffic(comm):
    comm.bcast(np.arange(1000) if comm.rank == 0 else None)
    comm.allreduce(float(comm.rank))
    comm.gather(np.full(30_000, comm.rank, dtype=np.float64))
    comm.barrier()
    return comm.stats.as_dict()


class TestCommStatsParity:
    def test_counters_nonzero_and_collectives_match(self):
        stats = run_parallel(4, _traffic)
        for s in stats:
            assert s["collective_calls"] == {
                "bcast": 1, "allreduce": 1, "gather": 1, "barrier": 1,
            }
        # Closed form at 4 ranks: the binomial bcast and gather each cross
        # 3 tree edges; recursive doubling sends 2 rounds x 4 ranks.  The
        # gather forwards {rank: array} subtrees (8-byte key + 240 KB), and
        # rank 2 forwards two of them.
        gather_bytes = (1 + 1 + 2) * (8 + 240_000)
        assert sum(s["msgs_sent"] for s in stats) == 3 + 8 + 3
        assert sum(s["msgs_recv"] for s in stats) == 3 + 8 + 3
        assert sum(s["bytes_sent"] for s in stats) == 3 * 8000 + 8 * 8 + gather_bytes
        assert sum(s["bytes_recv"] for s in stats) == sum(
            s["bytes_sent"] for s in stats
        )
        assert all(s["bytes_sent"] > 0 for s in stats)
        # The 240 KB gather payloads must have ridden shared memory.
        assert any(s["shm_bytes_sent"] > 0 for s in stats)
