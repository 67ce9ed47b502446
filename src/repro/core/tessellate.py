"""The parallel Voronoi tessellation — tess's main algorithm (paper Fig. 5).

The pipeline, per block:

1. exchange particles within the ghost-zone distance with (periodic)
   neighbors, bidirectionally (:mod:`repro.core.ghost`);
2. compute local Voronoi cells over owned + ghost particles, for owned
   sites only (which *is* the paper's duplicate resolution: each process
   keeps the cells sited at its original particles);
3. delete incomplete cells, early-cull cells provably below the volume
   threshold, order vertices into faces and compute exact volume and
   surface area, cull exactly;
4. optionally write all blocks to a single file in parallel.

Two entry points: :func:`tessellate_distributed` is the SPMD primitive used
in situ (call it from inside a parallel region with live particles; the
in situ tools wrap its block in a :class:`DistributedTessellation`);
:func:`tessellate` is the standalone mode, which decomposes a global point
set, launches the parallel region, and gathers a :class:`Tessellation`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .. import observe
from ..diy.bounds import Bounds
from ..diy.comm import Communicator, run_parallel
from ..diy.decomposition import Decomposition
from ..diy.exchange import Assignment
from ..geometry.voronoi_delaunay import DelaunayVoronoi, segment_gather
from .culling import early_cull_mask
from .data_model import VoronoiBlock, connectivity_index_dtype
from .ghost import exchange_ghost_particles_multi
from .tess_io import write_tessellation
from .timing import PhaseTimer, TessTimings, credit_cpu

__all__ = [
    "tessellate_distributed",
    "tessellate",
    "Tessellation",
    "DistributedTessellation",
]

#: Thickness of the ghost shell the first triangulation of a block sees,
#: in local mean particle spacings (Chebyshev depth to the block's core).
#: Deeper ghosts are withheld until the certificate asks for them; 2.0
#: holds ~0.55 of the points of a 4-spacing ghost and leaves a handful of
#: owned cells per block to repair (sweep in EXPERIMENTS.md).
_START_SPACINGS = 2.0

#: Fewest owned sites a slab of a block's thin pass holds: a thinner slab
#: triangulates more seam shell than it takes off the other threads
#: (sweep in EXPERIMENTS.md).
_MIN_SLAB_SITES = 512


def _slab_count(ranks: int) -> int:
    """Threads one block's thin pass may use: the cores this process can
    run on, shared among the ``ranks`` ranks of the parallel region (every
    rank process runs on this machine)."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cores = os.cpu_count() or 1
    return max(1, cores // ranks)


def _observe_geometry(fv, n_complete: int, **counts: int) -> None:
    """Surface geometry counters so traces attribute compute time to
    mesh size (geom.* metrics; merged across ranks by the bridge).
    Called once per engine built, so ``geom.points_triangulated`` sums
    every triangulation a block needed; ``counts`` adds further
    ``geom.<name>`` counters."""
    reg = observe.registry()
    reg.counter("geom.points_triangulated").inc(fv.num_sites)
    reg.counter("geom.tets").inc(fv.num_tets)
    reg.counter("geom.finite_ridges").inc(fv.num_ridges)
    reg.counter("geom.complete_cells").inc(n_complete)
    if fv.degenerate_ridges_dropped:
        reg.counter("geom.degenerate_ridges_dropped").inc(
            fv.degenerate_ridges_dropped
        )
    if fv.used_fallback:
        reg.counter("geom.degenerate_fallbacks").inc()
    for name, value in counts.items():
        reg.counter(f"geom.{name}").inc(value)


def _tessellate_block_flat(
    decomposition: Decomposition,
    gid: int,
    owned_positions: np.ndarray,
    owned_ids: np.ndarray,
    ghost_positions: np.ndarray,
    ghost_ids: np.ndarray,
    ghost: float,
    vmin: float | None,
    vmax: float | None,
    rank: int = 0,
    slabs: int = 1,
) -> VoronoiBlock:
    """Block ``gid`` of ``decomposition`` from its owned points and the
    ghosts exchanged at thickness ``ghost`` (steps 2-3 of the pipeline).

    Fully vectorized: the block's vertex pool and CSR rows come straight
    from the engines' flat arrays (:func:`_assemble`).

    The engine triangulates lazily (DESIGN.md §11): owned points plus the
    ghosts within :data:`_START_SPACINGS` of the core first, the deeper
    ghosts withheld; the exact empty-circumsphere certificate
    (:meth:`DelaunayVoronoi.star_violations`) then names the owned cells a
    withheld ghost would change, and those are re-derived from one local
    patch over all points in hand.  The cells returned are the cells of
    the triangulation of everything; when nothing can be withheld (or the
    input is degenerate) that triangulation is what runs.

    That thin pass runs as up to ``slabs`` slabs on as many threads
    (:func:`_slab_parts`, at least :data:`_MIN_SLAB_SITES` owned sites
    each); the cells do not depend on the slab count.  ``rank`` labels
    the trace spans.
    """
    block_def = decomposition.block(gid)
    extents = block_def.core
    container = block_def.ghost_bounds(ghost)
    owned_positions = np.atleast_2d(np.asarray(owned_positions, dtype=float))
    n_owned = len(owned_positions)
    if n_owned == 0:
        return VoronoiBlock.empty(gid, extents)
    all_points = (
        np.concatenate([owned_positions, np.atleast_2d(ghost_positions)])
        if len(ghost_positions)
        else owned_positions
    )
    local_to_global = np.concatenate(
        [np.asarray(owned_ids, dtype=np.int64), np.asarray(ghost_ids, dtype=np.int64)]
    )

    def assemble(pieces, **observed):
        return _assemble(
            pieces, all_points, local_to_global, gid, extents, vmin, vmax,
            **observed,
        )

    start = _START_SPACINGS * (extents.volume / n_owned) ** (1.0 / 3.0)
    lo, hi = extents.as_arrays()
    depth = np.maximum(lo - all_points, all_points - hi).max(axis=1)
    withheld = depth > start
    withheld[:n_owned] = False
    # Where ghosts do not enclose the block (a non-periodic domain face)
    # owned sites sit on the hull and no local patch bounds their
    # neighbors: nothing is gained by withholding.
    ghosts = all_points[n_owned:]
    enclosed = ((ghosts < lo).any(axis=0) & (ghosts > hi).any(axis=0)).all()

    block = None
    if enclosed and withheld.any():
        parts = _slab_parts(
            all_points, n_owned, withheld, start, extents,
            max(1, min(slabs, n_owned // _MIN_SLAB_SITES)),
        )
        block = _thin_block(all_points, withheld, parts, container, assemble, rank)
    if block is None:
        with observe.span("full-pass", rank=rank, cat="core"):
            fv = DelaunayVoronoi(
                all_points, container, owned=np.arange(len(all_points)) < n_owned
            )
        block = assemble([(fv, np.arange(n_owned), None)])
    return block


def _slab_parts(
    all_points: np.ndarray,
    n_owned: int,
    withheld: np.ndarray,
    start: float,
    extents: Bounds,
    count: int,
) -> list[tuple[np.ndarray, np.ndarray, Bounds]]:
    """The thin pass cut into ``count`` slabs across the block's longest
    axis, with equal owned counts: ``(subset, owned, safe_box)`` per slab.

    ``subset`` lists, in block order, the points a slab triangulates: its
    owned sites plus every point not ``withheld`` within ``start`` of the
    slab along the axis (the same shell depth the block keeps on its other
    sides, here drawn from the neighbouring slabs' owned sites too);
    ``owned`` masks the slab's own sites in it.  Each slab's triangulation
    then sees its points in the block's relative order, so a tet two
    slabs share has the same circumcenter bits in both.  ``safe_box`` is
    the block's core grown by ``start``, narrowed to the slab: no point
    outside ``subset`` lies in it.  One slab is the unsliced thin pass.
    """
    lo, hi = extents.as_arrays()
    axis = int(np.argmax(hi - lo))
    x = all_points[:, axis]
    cuts = np.sort(x[:n_owned])[np.arange(1, count) * n_owned // count]
    slab_of = np.searchsorted(cuts, x[:n_owned], side="right")
    edges = np.concatenate([[-np.inf], cuts, [np.inf]])
    safe_box = extents.grown(start)
    parts = []
    for k in range(count):
        below, above = edges[k] - start, edges[k + 1] + start
        subset = np.flatnonzero(~withheld & (x >= below) & (x <= above))
        owned = subset < n_owned
        owned[owned] = slab_of[subset[owned]] == k
        if not owned.any():
            continue  # tied cut coordinates left this slab no site
        slo, shi = safe_box.as_arrays()
        slo[axis] = max(slo[axis], below)
        shi[axis] = min(shi[axis], above)
        parts.append((subset, owned, Bounds.from_arrays(slo, shi)))
    return parts


def _thin_block(
    all_points: np.ndarray,
    withheld: np.ndarray,
    parts: list[tuple[np.ndarray, np.ndarray, Bounds]],
    container: Bounds,
    assemble,
    rank: int,
) -> VoronoiBlock | None:
    """The block from triangulations without the ``withheld`` ghosts:
    thin pass and certificate per slab of ``parts`` (one thread each),
    then one local repair (DESIGN.md §11).  ``None`` when only the
    triangulation of everything will do — degenerate input, or a violated
    owned site on a thin hull."""
    from scipy.spatial import cKDTree

    def abandon(*engines):
        if observe.enabled():
            for engine in engines:
                _observe_geometry(engine, 0)

    def certify(part):
        subset, owned, safe = part
        with observe.span("thin-pass", rank=rank, cat="core"):
            fv = DelaunayVoronoi(all_points[subset], container, owned=owned)
        if fv.degenerate:
            return fv, None, 0
        # A slab's candidates are every point it did not triangulate:
        # withheld ghosts and the other slabs' sites beyond its shell.
        unseen = np.ones(len(all_points), dtype=bool)
        unseen[subset] = False
        with observe.span("certificate", rank=rank, cat="core"):
            return (fv, *fv.star_violations(owned, all_points[unseen], safe))

    def lent(part):  # a slab on a pool thread, and the CPU it took
        cpu0 = time.thread_time()
        return certify(part), time.thread_time() - cpu0

    # The calling thread takes the first slab itself: one thread (and one
    # malloc arena holding its high-water mark) fewer.
    with ThreadPoolExecutor(max(1, len(parts) - 1)) as threads:
        others = [threads.submit(lent, part) for part in parts[1:]]
        certified = [certify(parts[0])]
        for job in others:
            result, cpu = job.result()
            certified.append(result)
            credit_cpu(cpu)
    engines = [fv for fv, _, _ in certified]
    if any(bad is None for _, bad, _ in certified):
        return abandon(*engines)
    bad = np.sort(
        np.concatenate([p[0][b] for p, (_, b, _) in zip(parts, certified)])
    )
    counts = dict(
        ghosts_withheld=int(withheld.sum()),
        certificate_violations=sum(hits for _, _, hits in certified),
        cells_repaired=len(bad), patch_points=0,
    )
    if len(parts) > 1:
        counts["slabs"] = len(parts)

    pieces = []  # (engine, sites it answers for, block index of its sites)
    for (subset, owned, _), (fv, violated, _) in zip(parts, certified):
        sound = owned.copy()
        sound[violated] = False
        pieces.append((fv, np.flatnonzero(sound), subset))
    if len(bad):
        with observe.span("repair", rank=rank, cat="core"):
            # Whatever points are added, the neighbors of site b afterwards
            # lie inside the circumspheres of its thin star: b's star in
            # the patch those spheres select is its star among all points.
            spheres = [fv.star_spheres(b) for fv, b, _ in certified if len(b)]
            centers = np.concatenate([c for c, _ in spheres])
            radii = np.concatenate([r for _, r in spheres])
            if not np.isfinite(radii).all():
                return abandon(*engines)  # a hull site: its patch has no bound
            near = cKDTree(all_points).query_ball_point(
                centers, radii * (1.0 + 1e-9)
            )
            patch = np.union1d(np.concatenate(list(near)), bad)
            pfv = DelaunayVoronoi(all_points[patch], container)
            if pfv.degenerate:
                return abandon(*engines, pfv)
            counts["patch_points"] = len(patch)
            pieces.append((pfv, np.searchsorted(patch, bad), patch))
    return assemble(pieces, **counts)


def _assemble(
    pieces: list[tuple[DelaunayVoronoi, np.ndarray, np.ndarray | None]],
    all_points: np.ndarray,
    local_to_global: np.ndarray,
    gid: int,
    extents: Bounds,
    vmin: float | None,
    vmax: float | None,
    **observed: int,
) -> VoronoiBlock:
    """The block of the cells engines answer for, rows in owned order.

    ``pieces`` are ``(engine, sites, subset)``: the ascending engine sites
    whose cells it answers for, and the block index of each engine site
    (``None``: the block's points) — the full pass, or each slab of a
    thin pass and the repair patch.  ``observed`` are further ``geom.*``
    counters, published with the first piece.  Engines solve
    circumcenters in one index order, so a seam vertex has the same bits
    in each piece: :func:`_weld` lists it once.
    """
    rows = []
    for k, (fv, sites, subset) in enumerate(pieces):
        kept = _kept_cells(fv, sites, vmin, vmax, **(observed if k == 0 else {}))
        if len(kept):
            rows.append((fv, kept, subset))
    if not rows:
        return VoronoiBlock.empty(gid, extents)

    faces = []  # per piece: the ridge of each face, faces per cell, and
    # the block index of each cell and of the site across each face
    for fv, kept, subset in rows:
        counts = (
            fv.cell_ridges_offsets[kept + 1] - fv.cell_ridges_offsets[kept]
        )
        rids = fv.cell_ridges_flat[
            segment_gather(fv.cell_ridges_offsets[kept], counts)
        ]
        pair = fv.ridge_sites[rids]  # across: the pair, less the cell itself
        other = pair[:, 0] + pair[:, 1] - np.repeat(kept, counts)
        if subset is not None:  # engine site -> block index
            kept, other = subset[kept], subset[other]
        faces.append((rids, counts, kept, other))
    ring_lengths = [np.diff(fv.ridge_offsets) for fv, _, _ in rows]
    face_lengths = [n[f[0]] for n, f in zip(ring_lengths, faces)]
    # (every pool vertex is on some face: the face count bounds both)
    idx = connectivity_index_dtype(sum(int(f.sum()) for f in face_lengths))

    pool = None
    flat, starts, base = [], [], 0
    for (fv, _, _), (rids, *_), n in zip(rows, faces, ring_lengths):
        on_face = np.zeros(len(n), dtype=bool)
        on_face[rids] = True
        used = np.zeros(len(fv.vertices), dtype=bool)
        used[fv.ridge_flat[np.repeat(on_face, n)]] = True
        index, pool = _weld(pool, fv.vertices[used])
        to_pool = np.zeros(len(used), dtype=idx)
        to_pool[used] = index
        flat.append(to_pool[fv.ridge_flat])
        starts.append(fv.ridge_offsets[rids] + base)
        base += len(fv.ridge_flat)

    counts, owned, other = (np.concatenate([f[k] for f in faces]) for k in (1, 2, 3))
    # Gather the rows in owned order once.
    order = np.argsort(owned, kind="stable")
    face = segment_gather((np.cumsum(counts) - counts)[order], counts[order])
    face_lengths = np.concatenate(face_lengths)[face]
    gather = segment_gather(
        np.concatenate(starts)[face], face_lengths, connectivity_index_dtype(base)
    )
    owned = owned[order]
    return VoronoiBlock(
        gid=gid,
        extents=extents,
        vertices=pool,
        face_vertices=np.concatenate(flat)[gather],
        face_offsets=np.concatenate([[0], np.cumsum(face_lengths)]).astype(idx),
        face_neighbors=local_to_global[other[face]],
        cell_face_offsets=np.concatenate([[0], np.cumsum(counts[order])]).astype(idx),
        sites=all_points[owned],
        site_ids=local_to_global[owned],
        volumes=np.concatenate([fv.volumes[kept] for fv, kept, _ in rows])[order],
        areas=np.concatenate([fv.areas[kept] for fv, kept, _ in rows])[order],
    )


def _weld(pool: np.ndarray | None, vertices: np.ndarray):
    """``(index, pool)``: each of ``vertices`` found in ``pool`` by its
    bits, else appended; ``index`` is its position in the new pool."""
    if pool is None:
        return np.arange(len(vertices)), vertices

    def keys(rows):  # one wrapping uint64 hash per coordinate row
        bits = np.ascontiguousarray(rows).view(np.uint64)
        return (
            bits[:, 0] * np.uint64(0x9E3779B97F4A7C15)
            + bits[:, 1] * np.uint64(0xC2B2AE3D27D4EB4F)
            + bits[:, 2]
        )

    pool_keys = keys(pool)
    by_key = np.argsort(pool_keys)
    wanted = keys(vertices)
    ask = np.argsort(wanted)  # sorted needles: a cache-friendly search
    at = np.empty(len(wanted), dtype=np.int64)
    at[ask] = np.searchsorted(pool_keys[by_key], wanted[ask])
    twin = by_key[np.minimum(at, len(pool) - 1)]
    twin_xyz, xyz = pool[twin].T, vertices.T  # (compared column-wise)
    seen = (twin_xyz[0] == xyz[0]) & (twin_xyz[1] == xyz[1]) & (twin_xyz[2] == xyz[2])
    index = np.where(seen, twin, len(pool) + np.cumsum(~seen) - 1)
    return index, np.concatenate([pool, vertices[~seen]])


def _kept_cells(fv, sites, vmin, vmax, **observed) -> np.ndarray:
    """The ``sites`` of engine ``fv`` whose cells the block keeps:
    complete, and within ``[vmin, vmax]``."""
    keep = fv.complete[sites]
    if observe.enabled():
        _observe_geometry(fv, int(keep.sum()), **observed)
    if vmin is not None and keep.any():
        # Step 3c: conservative early cull on the max vertex separation
        # (isodiametric bound) before the exact threshold — any cell it
        # removes fails the exact cull too, so results are unchanged.
        alive = np.flatnonzero(keep)
        keep[alive] = early_cull_mask(
            fv.max_vertex_separations(sites[alive]), vmin
        )
    if vmin is not None:
        keep &= fv.volumes[sites] >= vmin
    if vmax is not None:
        keep &= fv.volumes[sites] <= vmax
    return sites[keep]


def tessellate_distributed(
    comm: Communicator,
    decomposition: Decomposition,
    positions: np.ndarray,
    ids: np.ndarray,
    ghost: float,
    vmin: float | None = None,
    vmax: float | None = None,
    output_path: str | None = None,
) -> tuple[VoronoiBlock, TessTimings, int]:
    """SPMD tessellation over already-distributed particles (in situ mode).

    Every rank calls this collectively with its owned particles; the rank's
    block is its rank (the one-block-per-process layout).  Returns
    ``(block, timings, output_bytes)``; ``output_bytes`` is 0 when no
    ``output_path`` is given.
    """
    blocks, timings, nbytes = _tessellate_rank(
        comm, decomposition, {comm.rank: (positions, ids)},
        ghost, vmin, vmax, output_path,
    )
    return blocks[0], timings, nbytes


def _tessellate_rank(
    comm: Communicator,
    decomposition: Decomposition,
    particles_by_gid: dict[int, tuple[np.ndarray, np.ndarray]],
    ghost: float,
    vmin: float | None,
    vmax: float | None,
    output_path: str | None,
) -> tuple[list[VoronoiBlock], TessTimings, int]:
    """This rank's blocks from its owned ``(positions, ids)`` per gid —
    one gid in the paper's layout, several (round-robin, DIY-style) when
    blocks outnumber ranks: one ghost exchange, the blocks, one collective
    write.  Returns ``(blocks in gid order, timings, output_bytes)``."""
    timer = PhaseTimer(rank=comm.rank)
    stats0 = comm.stats.snapshot()
    with timer.phase("exchange"):
        ghosts = exchange_ghost_particles_multi(
            decomposition,
            comm,
            Assignment(decomposition.nblocks, comm.size),
            particles_by_gid,
            ghost,
        )
    with timer.phase("compute"):
        slabs = _slab_count(comm.size)
        blocks = [
            _tessellate_block_flat(
                decomposition, gid, *particles_by_gid[gid], *ghosts[gid],
                ghost, vmin, vmax, rank=comm.rank, slabs=slabs,
            )
            for gid in sorted(particles_by_gid)
        ]
    output_bytes = 0
    # The output phase is always entered (a ~0 s span when nothing is
    # written) so the canonical exchange/compute/output triple appears on
    # every traced run, matching the paper's Table II breakdown.
    with timer.phase("output"):
        if output_path is not None:
            output_bytes = write_tessellation(
                output_path, comm, blocks, decomposition.domain,
                decomposition.nblocks,
            )
    return blocks, _timings_with_comm(timer, comm, stats0), output_bytes


def _timings_with_comm(timer: PhaseTimer, comm: Communicator, stats0) -> TessTimings:
    """Three-phase timings plus this rank's communication counters."""
    timings = timer.timings
    delta = comm.stats.since(stats0)
    timings.comm_wait = delta.blocked_s
    timings.msgs_sent = delta.msgs_sent
    timings.msgs_recv = delta.msgs_recv
    timings.bytes_sent = delta.bytes_sent
    timings.bytes_recv = delta.bytes_recv
    timings.shm_msgs_sent = delta.shm_msgs_sent
    timings.shm_bytes_sent = delta.shm_bytes_sent
    if observe.enabled():
        observe.absorb_tess_timings(timings, comm.rank)
    return timings


@dataclass
class Tessellation:
    """A complete tessellation: all blocks plus run metadata."""

    domain: Bounds
    blocks: list[VoronoiBlock]
    timings: TessTimings = field(default_factory=TessTimings)
    output_bytes: int = 0

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def num_cells(self) -> int:
        """Total kept cells across blocks."""
        return sum(b.num_cells for b in self.blocks)

    def volumes(self) -> np.ndarray:
        """All cell volumes, concatenated across blocks."""
        return (
            np.concatenate([b.volumes for b in self.blocks])
            if self.blocks
            else np.empty(0)
        )

    def areas(self) -> np.ndarray:
        """All cell surface areas."""
        return (
            np.concatenate([b.areas for b in self.blocks])
            if self.blocks
            else np.empty(0)
        )

    def site_ids(self) -> np.ndarray:
        """All generating-particle ids."""
        return (
            np.concatenate([b.site_ids for b in self.blocks])
            if self.blocks
            else np.empty(0, dtype=np.int64)
        )

    def total_volume(self) -> float:
        """Sum of kept cell volumes."""
        return float(self.volumes().sum())

    def write(self, path: str) -> int:
        """Serial write of all blocks to one tess file; returns file size."""
        from .tess_io import write_tessellation_serial

        return write_tessellation_serial(path, self)


@dataclass
class DistributedTessellation:
    """One rank's handle on an in situ tessellation (the SPMD counterpart
    of :class:`Tessellation`; no rank holds the whole mesh).

    Holds the rank-local :attr:`block`, the cross-rank ``max_with``
    :attr:`timings`, and :attr:`num_cells` / :meth:`total_volume` /
    :attr:`output_bytes`, equal on every rank.  Rank 0 additionally holds
    the ``(site id, volume)`` columns of every block in gid order (16
    B/cell), so :meth:`site_ids`, :meth:`volumes` and :meth:`total_volume`
    there are bit-identical to the assembled :class:`Tessellation`'s.
    Build one with :meth:`collect`.  Every in situ consumer reads
    :attr:`block` where it lives; only the driver joins the blocks, after
    the parallel region (:meth:`join_blocks`).
    """

    domain: Bounds
    block: VoronoiBlock
    timings: TessTimings
    num_cells: int
    output_bytes: int
    total: float
    columns: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def collect(
        cls,
        comm: Communicator,
        domain: Bounds,
        block: VoronoiBlock,
        timings: TessTimings,
        output_bytes: int,
    ) -> "DistributedTessellation":
        """Collective: gather each block's id/volume columns and timings
        to rank 0, broadcast the totals back."""
        parts = comm.gather(
            (block.gid, block.site_ids, block.volumes, timings), root=0
        )
        columns = meta = None
        if comm.rank == 0:
            parts.sort(key=lambda p: p[0])
            columns = tuple(
                np.concatenate([p[k] for p in parts]) for k in (1, 2)
            )
            reduced = reduce(TessTimings.max_with, (p[3] for p in parts))
            meta = (len(columns[0]), float(columns[1].sum()), reduced, output_bytes)
        num_cells, total, reduced, nbytes = comm.bcast(meta, root=0)
        return cls(domain, block, reduced, num_cells, nbytes, total, columns)

    def _column(self, k: int) -> np.ndarray:
        if self.columns is None:
            raise RuntimeError(
                "the gathered (site id, volume) columns live on rank 0; "
                "use .block for this rank's cells"
            )
        return self.columns[k]

    def site_ids(self) -> np.ndarray:
        """All generating-particle ids in gid order (rank 0 only)."""
        return self._column(0)

    def volumes(self) -> np.ndarray:
        """All cell volumes in gid order (rank 0 only)."""
        return self._column(1)

    def total_volume(self) -> float:
        """Sum of kept cell volumes (every rank)."""
        return self.total

    def join_blocks(self, blocks: list[VoronoiBlock]) -> Tessellation:
        """The :class:`Tessellation` of every rank's block (e.g. the
        handles' blocks collected after the parallel region)."""
        return Tessellation(
            domain=self.domain,
            blocks=sorted(blocks, key=lambda b: b.gid),
            timings=self.timings,
            output_bytes=self.output_bytes,
        )


def tessellate(
    points: np.ndarray,
    domain: Bounds,
    nblocks: int = 1,
    ghost: float | None = None,
    ids: np.ndarray | None = None,
    periodic: bool = True,
    vmin: float | None = None,
    vmax: float | None = None,
    output_path: str | None = None,
    nranks: int | None = None,
) -> Tessellation:
    """Standalone-mode parallel tessellation of a global point set.

    Decomposes ``domain`` into ``nblocks`` blocks over ``nranks`` ranks
    (default one block per rank, the paper's configuration; fewer ranks
    assign several blocks per rank round-robin, DIY-style), exchanges
    ghosts of thickness ``ghost`` (default: 4 mean inter-particle
    spacings, following the paper's accuracy study), tessellates, and
    gathers the result.

    Parameters mirror the distributed primitive; see
    :func:`tessellate_distributed`.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 3:
        raise ValueError(f"points must be (n, 3), got {pts.shape}")
    if not np.all(domain.contains(pts)):
        raise ValueError("all points must lie inside the domain (wrap first)")
    pid = (
        np.arange(len(pts), dtype=np.int64)
        if ids is None
        else np.asarray(ids, dtype=np.int64)
    )
    if len(pid) != len(pts):
        raise ValueError("ids length must match points")
    if ghost is None:
        spacing = (domain.volume / max(len(pts), 1)) ** (1.0 / 3.0)
        ghost = 4.0 * spacing
    nranks = nblocks if nranks is None else nranks
    if not 1 <= nranks <= nblocks:
        raise ValueError(
            f"nranks must be between 1 and nblocks={nblocks}, got {nranks}"
        )

    decomp = Decomposition.regular(domain, nblocks, periodic=periodic)
    # A module-level worker + plain-data arguments: the whole task pickles,
    # so the ranks lease persistent pool workers instead of
    # forking a one-shot pool per call.
    results = run_parallel(
        nranks,
        _rank_worker,
        decomp,
        pts,
        pid,
        ghost,
        vmin,
        vmax,
        output_path,
    )
    blocks = sorted(
        (b for local_blocks, _, _ in results for b in local_blocks),
        key=lambda b: b.gid,
    )
    timings = TessTimings()
    for _, t, _ in results:
        timings = timings.max_with(t)
    return Tessellation(
        domain=domain,
        blocks=blocks,
        timings=timings,
        output_bytes=results[0][2],
    )


def _rank_worker(
    comm: Communicator,
    decomp: Decomposition,
    pts: np.ndarray,
    pid: np.ndarray,
    ghost: float,
    vmin: float | None,
    vmax: float | None,
    output_path: str | None,
):
    """Rank worker of :func:`tessellate`: the blocks the round-robin
    assignment gives this rank (picklable)."""
    owners = decomp.locate(pts)
    particles_by_gid = {
        gid: (pts[owners == gid], pid[owners == gid])
        for gid in Assignment(decomp.nblocks, comm.size).gids_of(comm.rank)
    }
    return _tessellate_rank(
        comm, decomp, particles_by_gid, ghost, vmin, vmax, output_path
    )
