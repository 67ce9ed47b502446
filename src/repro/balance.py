"""Dynamic load balancing: SFC repartitioning of clustered domains.

The regular block decomposition (paper §III-C1) assigns equal-*volume*
blocks.  Once structure forms, particle counts per block skew badly and
the strong-scaling wins of the parallel tessellation evaporate: the
critical path is the most loaded block.  PARAVT ships load-balancing
options for exactly this parallel-Voronoi workload, and nbodykit's domain
decomposition rebalances by particle count; this module does the same for
this reproduction.

The repartitioner works on a coarse **load grid**: particle counts are
binned on a regular ``g**3`` grid, the cells are ordered along a Morton
space-filling curve, and the 1-D load curve is cut into ``nblocks``
contiguous equal-load segments (:func:`sfc_partition`).  The assignment of
coarse cells to blocks becomes a :class:`BalancedDecomposition` — a drop-in
:class:`~repro.diy.decomposition.Decomposition` with the same
:class:`~repro.diy.decomposition.Block`/:class:`~repro.diy.decomposition.
NeighborLink` contract, so the existing ghost exchange, neighborhood
exchanger, and migration machinery run unchanged on top of it.

Irregular blocks are unions of coarse cells, not boxes, so two pieces of
geometry replace the box arithmetic:

* :class:`CellUnionRegion` answers "is this point within Chebyshev
  distance ``r`` of the block's owned region?" exactly, via a 3-D
  summed-area table over the cell indicator (one O(1) query per point);
  the ghost exchange targets particles with it, and the tessellation
  certifies cell completeness against the region actually populated with
  ghosts instead of the block's bounding box.
* Neighbor links are generated for **all** (block, wrap) pairs — the
  near-point targeting prunes per particle, so correctness never depends
  on guessing which blocks touch.

Imbalance observability: :func:`load_imbalance` computes the max/mean and
max/min particle-count gauges, published through ``repro.observe`` as
``balance.max_over_mean`` / ``balance.max_over_min`` (plus raw
``balance.max_count`` / ``balance.min_count``) when tracing is enabled.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import observe
from .diy.bounds import Bounds, periodic_translation
from .diy.decomposition import Block, Decomposition, NeighborLink

__all__ = [
    "morton_key",
    "sfc_partition",
    "CellUnionRegion",
    "BalancedDecomposition",
    "compute_cell_counts",
    "rebalance_decomposition",
    "load_imbalance",
    "publish_imbalance",
    "clustered_points",
]


# ----------------------------------------------------------------------
# Morton (Z-order) space-filling curve
# ----------------------------------------------------------------------
def _spread_bits(x: np.ndarray) -> np.ndarray:
    """Insert two zero bits between each bit of ``x`` (21-bit inputs)."""
    x = x.astype(np.uint64) & np.uint64(0x1FFFFF)
    x = (x | (x << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x << np.uint64(2))) & np.uint64(0x1249249249249249)
    return x


def morton_key(coords: np.ndarray) -> np.ndarray:
    """Morton (Z-order) keys of integer grid coordinates, shape ``(n, 3)``.

    Keys are unique per coordinate triple (up to 21 bits per axis) and
    order the grid along the Z curve, which keeps consecutive cells
    spatially close — the property the SFC partitioner relies on to make
    equal-load segments compact.
    """
    c = np.atleast_2d(np.asarray(coords, dtype=np.int64))
    if c.shape[1] != 3:
        raise ValueError(f"morton_key expects (n, 3) coordinates, got {c.shape}")
    if c.min(initial=0) < 0 or c.max(initial=0) >= (1 << 21):
        raise ValueError("coordinates must be in [0, 2**21) per axis")
    return (
        (_spread_bits(c[:, 0]) << np.uint64(2))
        | (_spread_bits(c[:, 1]) << np.uint64(1))
        | _spread_bits(c[:, 2])
    )


# ----------------------------------------------------------------------
# partitioners: coarse-cell loads -> block owner per cell
# ----------------------------------------------------------------------
def sfc_partition(cell_counts: np.ndarray, nblocks: int) -> np.ndarray:
    """Cut the Morton-ordered load curve into equal-load segments.

    ``cell_counts`` is the ``(g0, g1, g2)`` particle histogram on the
    coarse grid.  Returns a flat ``(g0*g1*g2,)`` int64 array (row-major
    cell order) assigning every cell an owner block in ``[0, nblocks)``.
    Every block receives at least one cell; cuts are placed sequentially
    so each remaining block targets an equal share of the remaining load
    (absorbing overshoot from cells that straddle a cut).
    """
    counts = np.asarray(cell_counts, dtype=np.float64)
    if counts.ndim != 3:
        raise ValueError(f"cell_counts must be 3-D, got shape {counts.shape}")
    ncells = counts.size
    if not 1 <= nblocks <= ncells:
        raise ValueError(
            f"cannot cut {ncells} cells into {nblocks} blocks"
        )
    grid = counts.shape
    coords = np.stack(np.unravel_index(np.arange(ncells), grid), axis=1)
    order = np.argsort(morton_key(coords))  # keys are unique
    loads = counts.ravel()[order]
    cum = np.cumsum(loads)
    total = float(cum[-1])

    boundaries = [0]
    start = 0
    for b in range(nblocks - 1):
        remaining = total - (cum[start - 1] if start else 0.0)
        target = (cum[start - 1] if start else 0.0) + remaining / (nblocks - b)
        lo_c = start + 1  # at least one cell for this block
        hi_c = ncells - (nblocks - 1 - b)  # leave one per later block
        c = int(np.searchsorted(cum, target, side="left")) + 1
        if c > lo_c and c <= hi_c:
            # The cut cell straddles the target; take it only if that
            # lands closer to the equal-load point than stopping short.
            if abs(cum[c - 2] - target) <= abs(cum[c - 1] - target):
                c -= 1
        c = min(max(c, lo_c), hi_c)
        boundaries.append(c)
        start = c
    boundaries.append(ncells)

    owners_ordered = np.empty(ncells, dtype=np.int64)
    for b in range(nblocks):
        owners_ordered[boundaries[b] : boundaries[b + 1]] = b
    owners = np.empty(ncells, dtype=np.int64)
    owners[order] = owners_ordered
    return owners


# ----------------------------------------------------------------------
# geometry of a union-of-cells block region
# ----------------------------------------------------------------------
class CellUnionRegion:
    """A union of coarse grid cells with O(1) Chebyshev proximity queries.

    The region is the set of cells marked in ``mask`` on a regular
    ``grid``-shaped subdivision of ``domain``.  A 3-D summed-area table
    over the indicator makes "does the closed box ``[p-r, p+r]`` overlap
    the region?" — equivalently "is the Chebyshev distance from ``p`` to
    the region at most ``r``?" — one eight-corner lookup per point.  This
    is exactly the closed-box criterion the regular decomposition uses
    for its boxes (see ``Decomposition.neighbors_near_points``), so ghost
    targeting and completeness certification carry over unchanged.
    """

    def __init__(self, domain: Bounds, grid: tuple[int, ...], mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool).reshape(grid)
        if mask.ndim != 3:
            raise ValueError("CellUnionRegion is 3-D only")
        if not mask.any():
            raise ValueError("region must contain at least one cell")
        self.domain = domain
        self.grid = tuple(int(g) for g in grid)
        self.mask = mask
        self._lo, _ = domain.as_arrays()
        self._cell = domain.sizes / np.asarray(self.grid, dtype=float)
        sat = mask.astype(np.int64)
        for axis in range(3):
            sat = np.cumsum(sat, axis=axis)
        self._sat = np.zeros(tuple(g + 1 for g in self.grid), dtype=np.int64)
        self._sat[1:, 1:, 1:] = sat

    @property
    def num_cells(self) -> int:
        """Number of coarse cells in the region."""
        return int(self.mask.sum())

    def bounding_box(self) -> Bounds:
        """Axis-aligned bounding box of the region (cells are closed)."""
        idx = np.argwhere(self.mask)
        lo = self._lo + idx.min(axis=0) * self._cell
        hi = self._lo + (idx.max(axis=0) + 1) * self._cell
        return Bounds.from_arrays(lo, hi)

    def volume(self) -> float:
        """Total volume of the region's cells."""
        return float(self.num_cells * np.prod(self._cell))

    def within(self, points: np.ndarray, radius: float) -> np.ndarray:
        """Mask of points with Chebyshev distance <= ``radius`` to the region.

        Points are taken in the domain frame as-is (no periodic wrapping;
        periodic images are handled by querying translated points, one
        wrap vector at a time, exactly like the box-based targeting).
        ``radius`` may also be an ``(n, 1)`` column, one radius per point.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        g = np.asarray(self.grid)
        a = (pts - radius - self._lo) / self._cell
        b = (pts + radius - self._lo) / self._cell
        # Closed query box [p-r, p+r] against closed cells: the lowest
        # overlapped cell index is ceil(a)-1 (touching faces count, as in
        # the box criterion's `<=`), the highest is floor(b).
        lo_idx = np.ceil(a).astype(np.int64) - 1
        hi_idx = np.floor(b).astype(np.int64)
        outside = np.any((hi_idx < 0) | (lo_idx > g - 1), axis=1)
        lo_idx = np.clip(lo_idx, 0, g - 1)
        hi_idx = np.clip(hi_idx, 0, g - 1)
        s = self._sat
        a0, a1, a2 = lo_idx[:, 0], lo_idx[:, 1], lo_idx[:, 2]
        b0, b1, b2 = hi_idx[:, 0] + 1, hi_idx[:, 1] + 1, hi_idx[:, 2] + 1
        count = (
            s[b0, b1, b2]
            - s[a0, b1, b2]
            - s[b0, a1, b2]
            - s[b0, b1, a2]
            + s[a0, a1, b2]
            + s[a0, b1, a2]
            + s[b0, a1, a2]
            - s[a0, a1, a2]
        )
        return (count > 0) & ~outside


# ----------------------------------------------------------------------
# the balanced decomposition
# ----------------------------------------------------------------------
class BalancedDecomposition(Decomposition):
    """Irregular decomposition: blocks are unions of coarse grid cells.

    Drop-in compatible with :class:`~repro.diy.decomposition.
    Decomposition`: it exposes the same ``blocks()``/``block()``/
    ``locate()``/``neighbors_near_points()`` surface, and its blocks
    carry the same :class:`Block`/:class:`NeighborLink` records, so the
    ghost exchange and migration machinery run unchanged.  Differences:

    * a block's ``core`` is the *bounding box* of its owned region; the
      exact owned region is exposed via :meth:`block_region` and is what
      ghost targeting and completeness certification use;
    * links exist for every (block, wrap) pair — the per-particle
      near-point targeting decides what actually travels;
    * grid-coordinate helpers (``gid_of_coords``/``coords_of_gid``) are
      meaningless for irregular blocks and raise.

    Parameters
    ----------
    domain, periodic:
        As in the regular decomposition.
    grid:
        Coarse load-grid shape, e.g. ``(16, 16, 16)``.
    cell_owners:
        Flat ``(prod(grid),)`` row-major owner gid per coarse cell,
        covering ``0..nblocks-1`` (from :func:`sfc_partition`).
    """

    def __init__(
        self,
        domain: Bounds,
        grid: tuple[int, ...],
        cell_owners: np.ndarray,
        periodic: bool | tuple[bool, ...] = True,
    ) -> None:
        if len(grid) != domain.dim or domain.dim != 3:
            raise ValueError("BalancedDecomposition is 3-D only")
        if isinstance(periodic, bool):
            periodic = (periodic,) * domain.dim
        owners = np.asarray(cell_owners, dtype=np.int64).ravel()
        if owners.size != int(np.prod(grid)):
            raise ValueError(
                f"cell_owners has {owners.size} entries for grid {grid}"
            )
        nblocks = int(owners.max()) + 1 if owners.size else 0
        present = np.unique(owners)
        if owners.min(initial=0) < 0 or len(present) != nblocks:
            raise ValueError(
                "cell_owners must cover every gid in [0, nblocks) at least once"
            )
        self.domain = domain
        self.periodic = tuple(bool(p) for p in periodic)
        self.cell_grid = tuple(int(g) for g in grid)
        self.cell_owners = owners
        #: the regular-grid attribute has no meaning here
        self.grid = None
        self._nblocks = nblocks
        owner_grid = owners.reshape(self.cell_grid)
        self._regions = tuple(
            CellUnionRegion(domain, self.cell_grid, owner_grid == gid)
            for gid in range(nblocks)
        )
        self._blocks = self._build_irregular_blocks()

    # -- structure ------------------------------------------------------
    @property
    def nblocks(self) -> int:  # overrides the grid-product property
        return self._nblocks

    def gid_of_coords(self, coords: tuple[int, ...]) -> int:
        raise ValueError(
            "balanced decompositions have no regular block grid; "
            "use locate() for ownership queries"
        )

    def coords_of_gid(self, gid: int) -> tuple[int, ...]:
        raise ValueError(
            "balanced decompositions have no regular block grid; "
            f"gid {gid} has no grid coordinates"
        )

    def block_region(self, gid: int) -> CellUnionRegion:
        """The exact region of space owned by block ``gid``."""
        self._check_gid(gid)
        return self._regions[gid]

    def _build_irregular_blocks(self) -> tuple[Block, ...]:
        wrap_choices = [(-1, 0, 1) if p else (0,) for p in self.periodic]
        blocks = []
        owner_grid = self.cell_owners.reshape(self.cell_grid)
        for gid in range(self._nblocks):
            links = []
            for ngid in range(self._nblocks):
                for wrap in itertools.product(*wrap_choices):
                    if ngid == gid and all(w == 0 for w in wrap):
                        continue
                    links.append(
                        NeighborLink(gid=ngid, direction=wrap, wrap=wrap)
                    )
            first = np.argwhere(owner_grid == gid)[0]
            blocks.append(
                Block(
                    gid=gid,
                    coords=tuple(int(c) for c in first),
                    core=self._regions[gid].bounding_box(),
                    links=tuple(links),
                )
            )
        return tuple(blocks)

    # -- queries --------------------------------------------------------
    def locate(self, points: np.ndarray) -> np.ndarray:
        idx = self._grid_indices(points, self.cell_grid)
        flat = np.ravel_multi_index(tuple(idx.T), self.cell_grid)
        return self.cell_owners[flat]

    def neighbors_near_points(
        self, gid: int, points: np.ndarray, radius: float
    ) -> list[tuple[NeighborLink, np.ndarray]]:
        """Per-link masks of points within ``radius`` of the neighbor's
        *owned region* (wrap-translated), not its bounding box — the
        tight targeting that keeps ghost traffic proportional to actual
        boundary area on irregular blocks."""
        self._check_gid(gid)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = []
        for link in self._blocks[gid].links:
            shift = -periodic_translation(np.asarray(link.wrap), self.domain)
            shifted = pts - shift
            # Cheap bounding-box reject before the exact region query.
            lo, hi = self._blocks[link.gid].core.as_arrays()
            d = np.maximum(np.maximum(lo - shifted, shifted - hi), 0.0)
            candidate = d.max(axis=1) <= radius
            mask = np.zeros(len(pts), dtype=bool)
            if candidate.any():
                mask[candidate] = self._regions[link.gid].within(
                    shifted[candidate], radius
                )
            out.append((link, mask))
        return out

    def neighbors_near_point(self, gid, point, radius):
        pts = np.atleast_2d(np.asarray(point, dtype=float))
        return [
            link
            for link, mask in self.neighbors_near_points(gid, pts, radius)
            if mask[0]
        ]


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------
def compute_cell_counts(
    positions: np.ndarray, domain: Bounds, grid_side: int
) -> np.ndarray:
    """Particle-count histogram on the coarse ``grid_side**3`` load grid.

    Positions outside the domain are wrapped on periodic axes by the same
    rule as :meth:`Decomposition.locate` (here every axis is treated as
    periodic — the histogram feeds the repartitioner, which is only used
    on periodic cosmology boxes).  Returns int64 counts, so the cross-rank
    allreduce is exact.
    """
    grid = (int(grid_side),) * 3
    helper = Decomposition(domain, (1, 1, 1), periodic=True)
    idx = helper._grid_indices(np.atleast_2d(positions), grid)
    flat = np.ravel_multi_index(tuple(idx.T), grid)
    return np.bincount(flat, minlength=int(np.prod(grid))).reshape(grid)


def rebalance_decomposition(
    domain: Bounds,
    cell_counts: np.ndarray,
    nblocks: int,
    periodic: bool | tuple[bool, ...] = True,
) -> BalancedDecomposition:
    """Build a load-balanced decomposition from a coarse-cell histogram,
    cutting the Morton curve into equal-load segments."""
    counts = np.asarray(cell_counts)
    owners = sfc_partition(counts, nblocks)
    return BalancedDecomposition(domain, counts.shape, owners, periodic=periodic)


def load_imbalance(counts: np.ndarray) -> dict[str, float]:
    """Imbalance gauges of a per-block particle-count vector.

    Returns ``max``/``min``/``mean`` counts plus the two ratios the
    rebalancer watches: ``max_over_mean`` (the critical-path excess — a
    perfectly balanced run scores 1.0) and ``max_over_min`` (``inf`` when
    some block is empty).
    """
    c = np.asarray(counts, dtype=float)
    if c.size == 0 or c.max() == 0:
        return {
            "max": 0.0,
            "min": 0.0,
            "mean": 0.0,
            "max_over_mean": 1.0,
            "max_over_min": 1.0,
        }
    return {
        "max": float(c.max()),
        "min": float(c.min()),
        "mean": float(c.mean()),
        "max_over_mean": float(c.max() / c.mean()),
        "max_over_min": float(c.max() / c.min()) if c.min() > 0 else float("inf"),
    }


def publish_imbalance(
    gauges: dict[str, float], *, prefix: str = "balance"
) -> None:
    """Publish imbalance gauges through ``repro.observe`` (no-op when
    tracing/metrics are disabled).  ``max_over_min`` is clamped to at
    least one particle per block so the exported JSON stays finite."""
    if not observe.enabled():
        return
    reg = observe.registry()
    reg.gauge(f"{prefix}.max_count").set_max(gauges["max"])
    reg.gauge(f"{prefix}.min_count").set(gauges["min"])
    reg.gauge(f"{prefix}.max_over_mean").set_max(gauges["max_over_mean"])
    finite = (
        gauges["max"] / max(gauges["min"], 1.0) if gauges["max"] else 1.0
    )
    reg.gauge(f"{prefix}.max_over_min").set_max(finite)


def clustered_points(
    n: int,
    box: float,
    seed: int = 0,
    ncenters: int = 5,
    width_fraction: float = 0.045,
    background_fraction: float = 0.15,
    seam: bool = True,
) -> np.ndarray:
    """A clustered test universe: Gaussian clumps plus a sparse background.

    This is the late-time-snapshot stand-in used by the balance benchmark
    and the parity tests: most mass sits in a handful of clusters crowded
    into one octant (so a regular decomposition is badly imbalanced), and
    with ``seam=True`` one cluster straddles ``x = 0`` so periodic wrap
    handling is always exercised.  Positions are wrapped into ``[0, box)``.
    """
    from .diy.bounds import wrap_positions

    rng = np.random.default_rng(seed)
    n_background = int(n * background_fraction)
    n_clustered = n - n_background
    centers = rng.uniform(0.05 * box, 0.45 * box, size=(ncenters, 3))
    if seam and ncenters > 0:
        centers[0] = (0.0, 0.5 * box, 0.5 * box)  # straddles the x seam
    which = rng.integers(0, max(ncenters, 1), size=n_clustered)
    pts = centers[which] + rng.normal(
        0.0, width_fraction * box, size=(n_clustered, 3)
    )
    background = rng.uniform(0.0, box, size=(n_background, 3))
    cloud = np.concatenate([pts, background]) if n_background else pts
    return wrap_positions(cloud, Bounds.cube(box))
