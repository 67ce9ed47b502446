"""Bidirectional ghost-zone particle exchange (paper §III-C1, Figure 6).

The first step of the parallel tessellation: every block sends each of its
particles within the ghost distance of a block boundary to every neighbor
whose ghost region needs it — including periodic boundary neighbors, with
coordinates translated to the other side of the domain — and receives the
neighbors' boundary particles in return.  The exchange is *targeted*: a
particle goes only to neighbors whose (wrap-translated) block box lies
within the ghost distance, not to all 26.

Payloads carry positions together with global particle ids so received
ghosts remain identifiable (duplicate resolution and neighbor labeling both
need the ids).

Received ghosts are deduplicated and sorted deterministically, so the
exchange yields bit-identical results whatever order the ranks of
:func:`repro.diy.comm.run_parallel` deliver them in; between ranks the
position/id arrays ride the zero-copy shared-memory transport once they
exceed the inline threshold.
"""

from __future__ import annotations

import numpy as np

from ..diy.comm import Communicator
from ..diy.decomposition import Decomposition
from ..diy.exchange import Assignment, NeighborExchanger

__all__ = ["exchange_ghost_particles", "exchange_ghost_particles_multi"]


def _translate_particles(
    payload: tuple[np.ndarray, np.ndarray], translation: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    positions, ids = payload
    return positions + translation, ids


def _dedup_ghosts(
    positions: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop duplicate ``(rounded position, id)`` rows, keeping first arrivals.

    The id column stays int64 throughout: building a float key (the old
    ``np.unique`` row trick) silently collapses distinct ids above 2**53,
    exactly the production id spaces where collisions corrupt the ghost
    layer.  A lexsort over the quantized coordinates plus the exact id
    brings duplicates adjacent; the stable sort keeps the earliest
    original occurrence of each duplicate run, matching the old
    first-occurrence semantics bit-for-bit for small ids.
    """
    if len(ids) == 0:
        return positions, ids
    key = np.round(positions, 9)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0], ids))
    sorted_key = key[order]
    sorted_ids = ids[order]
    dup = np.concatenate([
        [False],
        (sorted_ids[1:] == sorted_ids[:-1])
        & np.all(sorted_key[1:] == sorted_key[:-1], axis=1),
    ])
    unique_idx = np.sort(order[~dup])
    return positions[unique_idx], ids[unique_idx]


def exchange_ghost_particles_multi(
    decomposition: Decomposition,
    comm: Communicator,
    assignment: Assignment,
    particles_by_gid: dict[int, tuple[np.ndarray, np.ndarray]],
    ghost: float,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Ghost exchange for ranks owning several blocks (one collective).

    ``particles_by_gid`` maps each locally owned block gid to its
    ``(positions, ids)``; the return maps each local gid to its received
    ghosts (positions and ids, deduplicated, periodic images translated
    into the block's frame).  One collective round whatever the block
    count, so ranks with different block counts stay in step — the
    configuration DIY supports when blocks outnumber processes.
    """
    if ghost < 0:
        raise ValueError(f"ghost must be nonnegative, got {ghost}")
    local_gids = set(assignment.gids_of(comm.rank))
    if set(particles_by_gid) != local_gids:
        raise ValueError(
            f"rank {comm.rank} owns blocks {sorted(local_gids)} but got "
            f"particles for {sorted(particles_by_gid)}"
        )

    exchanger = NeighborExchanger(
        decomposition, comm, assignment=assignment, transform=_translate_particles
    )
    if ghost > 0:
        for gid, (pos, pid) in particles_by_gid.items():
            pos = np.asarray(pos, dtype=float)
            pid = np.asarray(pid, dtype=np.int64)
            if len(pos) != len(pid):
                raise ValueError("positions and ids length mismatch")
            if len(pos) == 0:
                continue
            for link, mask in decomposition.neighbors_near_points(gid, pos, ghost):
                if mask.any():
                    exchanger.enqueue(
                        gid, link, (pos[mask].copy(), pid[mask].copy())
                    )
    inbox = exchanger.exchange()

    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for gid in sorted(local_gids):
        received = inbox.get(gid, [])
        if not received:
            out[gid] = (np.empty((0, 3)), np.empty(0, dtype=np.int64))
            continue
        gpos = np.concatenate([p for _, (p, _) in received])
        gids_arr = np.concatenate([i for _, (_, i) in received])
        # On tiny grids the same image of a particle can arrive through
        # two links: deduplicate on (id, translated position).
        out[gid] = _dedup_ghosts(gpos, gids_arr)
    return out


def exchange_ghost_particles(
    decomposition: Decomposition,
    comm: Communicator,
    gid: int,
    positions: np.ndarray,
    ids: np.ndarray,
    ghost: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Exchange boundary particles and return block ``gid``'s ghosts.

    The one-block-per-rank case of :func:`exchange_ghost_particles_multi`
    (collective): each rank calls with its own block ``gid`` (its rank)
    and locally owned particles ``positions`` ``(n, 3)`` / ``ids`` ``(n,)``;
    the return value is the ghost particles received from neighbors within
    ``ghost`` of the block, with periodic images already translated into
    this block's frame.  The paper recommends a ghost thickness of at
    least twice the typical cell size.
    """
    assignment = Assignment(decomposition.nblocks, comm.size)
    return exchange_ghost_particles_multi(
        decomposition, comm, assignment, {gid: (positions, ids)}, ghost
    )[gid]
