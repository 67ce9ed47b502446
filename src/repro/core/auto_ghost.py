"""Automatic ghost-size determination (paper §V future work).

The paper: "improvements could be made to the algorithm itself, such [as]
determining the ghost size automatically" — instead of trusting the user's
estimate of the largest cell size.  The algorithm here iterates to a
*certified* tessellation:

1. tessellate with the current ghost size;
2. **certify** each complete cell with the security-radius criterion: a
   cell whose farthest vertex lies at distance ``r`` from its site cannot
   be affected by any site farther than ``2 r``; therefore, if the ball of
   radius ``2 r`` around the site lies inside the region whose particles
   the block has seen (its core grown by the ghost), the cell is provably
   exact regardless of unseen particles;
3. if any owned cell is incomplete or uncertified, grow the ghost
   (doubling) and repeat — all ranks agree on the decision through an
   allreduce, so the exchange stays collective.

The result carries the final ghost size and iteration count, and every
returned cell is certified — the correctness guarantee the fixed-ghost
algorithm only achieves when the user guesses well (Table I).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..diy.bounds import Bounds
from ..diy.comm import Communicator, run_parallel
from ..diy.decomposition import Decomposition
from .data_model import VoronoiBlock
from .tessellate import Tessellation, tessellate_distributed

__all__ = ["AutoGhostResult", "certify_block", "tessellate_auto_distributed",
           "tessellate_auto"]


@dataclass
class AutoGhostResult:
    """Outcome of one rank's auto-ghost tessellation."""

    block: VoronoiBlock
    ghost: float
    iterations: int
    certified: bool


def certify_block(
    block: VoronoiBlock, seen_region: Bounds, region=None, ghost: float = 0.0
) -> np.ndarray:
    """Security-radius certification mask for a block's cells.

    ``seen_region`` is the box whose particles participated in the
    local computation (block core grown by the ghost).  A cell passes when
    the ball of radius ``2 * max|v - site|`` around its site is contained
    in ``seen_region``.

    An irregular (balanced) block only saw its ``region`` grown by
    ``ghost`` — less than the box around it — so there the ball must also
    stay within Chebyshev distance ``ghost`` of the region: its site has
    to be ``region.within`` the slack ``ghost - 2 r``.  (Unlike the box
    margin this gives a site deep inside the region no credit for its
    depth; the ghost the loop settles on is set by boundary sites, which
    have none either way.)
    """
    ncells = block.num_cells
    if ncells == 0:
        return np.zeros(0, dtype=bool)
    face_off = block.face_offsets.astype(np.int64)
    slots = face_off[block.cell_face_offsets.astype(np.int64)]
    nonempty = slots[1:] > slots[:-1]
    d = (
        block.vertices[block.face_vertices]
        - block.sites[np.repeat(np.arange(ncells), np.diff(slots))]
    )
    # Cells without faces keep an infinite radius and never certify.
    reach = np.full(ncells, np.inf)
    reach[nonempty] = 2.0 * np.sqrt(
        np.maximum.reduceat(np.einsum("ij,ij->i", d, d), slots[:-1][nonempty])
    )
    lo, hi = seen_region.as_arrays()
    margin = np.minimum(block.sites - lo, hi - block.sites).min(axis=1)
    ok = reach <= margin + 1e-12
    if region is not None:
        slack = ghost - reach + 1e-12
        ok &= slack >= 0
        ok[ok] = region.within(block.sites[ok], slack[ok][:, None])
    return ok


def tessellate_auto_distributed(
    comm: Communicator,
    decomposition: Decomposition,
    positions: np.ndarray,
    ids: np.ndarray,
    initial_ghost: float,
    max_iterations: int = 8,
    vmin: float | None = None,
    vmax: float | None = None,
    gid: int | None = None,
) -> AutoGhostResult:
    """SPMD auto-ghost tessellation (collective).

    Starts at ``initial_ghost`` and doubles until every rank's every owned
    cell is complete and certified, or ``max_iterations`` is exhausted
    (the result then reports ``certified=False``).

    Growing the ghost beyond half the domain cannot add information in a
    periodic box (every particle is already seen), so the ghost is capped
    there and the final iteration accepts the outcome.
    """
    if initial_ghost <= 0:
        raise ValueError(f"initial_ghost must be positive, got {initial_ghost}")
    gid = comm.rank if gid is None else gid
    block_def = decomposition.block(gid)
    region = decomposition.block_region(gid)
    ghost_cap = float(decomposition.domain.sizes.min()) / 2.0

    ghost = min(initial_ghost, ghost_cap)
    n_owned = len(positions)
    block: VoronoiBlock | None = None
    for iteration in range(1, max_iterations + 1):
        # No thresholds during certification: a culled cell cannot be
        # checked.  Thresholds apply on the final pass below.
        block, _, _ = tessellate_distributed(
            comm, decomposition, positions, ids, ghost=ghost, gid=gid
        )
        certified = certify_block(
            block, block_def.ghost_bounds(ghost), region=region, ghost=ghost
        )
        all_present = block.num_cells == n_owned
        local_ok = bool(all_present and certified.all())
        at_cap = ghost >= ghost_cap - 1e-12
        global_ok = bool(comm.allreduce(local_ok, op=lambda a, b: a and b))
        if global_ok or at_cap:
            break
        ghost = min(ghost * 2.0, ghost_cap)
    else:  # pragma: no cover - loop always breaks or exhausts via range
        pass

    if vmin is not None or vmax is not None:
        keep = np.ones(block.num_cells, dtype=bool)
        if vmin is not None:
            keep &= block.volumes >= vmin
        if vmax is not None:
            keep &= block.volumes <= vmax
        block = block.take(np.flatnonzero(keep))

    return AutoGhostResult(
        block=block, ghost=ghost, iterations=iteration, certified=global_ok
    )


def tessellate_auto(
    points: np.ndarray,
    domain: Bounds,
    nblocks: int = 1,
    initial_ghost: float | None = None,
    ids: np.ndarray | None = None,
    periodic: bool = True,
    max_iterations: int = 8,
) -> tuple[Tessellation, float, int]:
    """Standalone auto-ghost tessellation.

    Returns ``(tessellation, final_ghost, iterations)``.  Starts from a
    deliberately small ghost (half the mean inter-particle spacing unless
    given) and lets the certification loop find the sufficient size.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    pid = (
        np.arange(len(pts), dtype=np.int64)
        if ids is None
        else np.asarray(ids, dtype=np.int64)
    )
    if not periodic:
        # Without periodicity a deleted boundary cell is indistinguishable
        # from an insufficient-ghost casualty (both are incomplete), so the
        # convergence test has no fixed point.
        raise NotImplementedError(
            "automatic ghost sizing requires a periodic domain"
        )
    if initial_ghost is None:
        spacing = (domain.volume / max(len(pts), 1)) ** (1.0 / 3.0)
        initial_ghost = 0.5 * spacing
    decomp = Decomposition.regular(domain, nblocks, periodic=periodic)

    def worker(comm: Communicator) -> AutoGhostResult:
        mine = decomp.locate(pts) == comm.rank
        return tessellate_auto_distributed(
            comm, decomp, pts[mine], pid[mine],
            initial_ghost=initial_ghost, max_iterations=max_iterations,
        )

    results = run_parallel(nblocks, worker)
    tess = Tessellation(domain=domain, blocks=[r.block for r in results])
    return tess, results[0].ghost, max(r.iterations for r in results)
