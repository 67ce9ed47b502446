"""Regular block decomposition with 26-connectivity and periodic links.

This mirrors DIY's regular decomposition: the global domain is split into a
grid of equally sized blocks; each block knows its core bounds and its
neighbors.  Two features the paper (§III-C1) added to DIY are modeled here:

* **periodic boundary neighbors** — blocks on one edge of the domain link to
  blocks on the opposite edge, and each such link carries the integer wrap
  vector needed to translate particle coordinates into the neighbor's frame;
* **near-point targeting** — :meth:`Decomposition.neighbors_near_point`
  returns only the neighbor links whose (possibly wrapped) block box lies
  within a given distance of a target point, so a particle is sent only to
  neighbors that actually need it for their ghost region.

Blocks are identified by a global integer *gid*; the default assignment maps
``gid % nranks`` to a rank, but the paper's configuration (one block per MPI
process) is the common case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bounds import Bounds, periodic_translation

__all__ = ["NeighborLink", "Block", "Decomposition", "factor_into_grid"]


@dataclass(frozen=True)
class NeighborLink:
    """A directed link from one block to a neighboring block.

    Attributes
    ----------
    gid:
        Global id of the neighbor block.
    direction:
        Per-axis step in ``{-1, 0, +1}`` from the source block to the
        neighbor in grid coordinates (before periodic wrapping).
    wrap:
        Per-axis integer in ``{-1, 0, +1}``; nonzero components mean the link
        crosses the periodic domain boundary on that axis, and particle
        coordinates must be translated by ``wrap * domain_size`` when sent
        along this link.
    """

    gid: int
    direction: tuple[int, ...]
    wrap: tuple[int, ...]

    @property
    def is_periodic(self) -> bool:
        """True if this link crosses the periodic domain boundary."""
        return any(w != 0 for w in self.wrap)


@dataclass(frozen=True)
class Block:
    """One block of the regular decomposition."""

    gid: int
    coords: tuple[int, ...]
    core: Bounds
    links: tuple[NeighborLink, ...]

    def ghost_bounds(self, ghost: float) -> Bounds:
        """Core bounds grown by the ghost-zone thickness."""
        return self.core.grown(ghost)


def factor_into_grid(n: int, dim: int = 3) -> tuple[int, ...]:
    """Factor ``n`` blocks into a near-cubic ``dim``-dimensional grid.

    Chooses the factorization whose block grid is as close to a cube as
    possible (smallest max/min side ratio), matching how DIY and HACC choose
    process grids.  Raises if ``n < 1``.
    """
    if n < 1:
        raise ValueError(f"cannot decompose into {n} blocks")
    best: tuple[int, ...] | None = None
    best_score = np.inf

    def rec(remaining: int, axes_left: int, acc: tuple[int, ...]) -> None:
        nonlocal best, best_score
        if axes_left == 1:
            grid = acc + (remaining,)
            score = max(grid) / min(grid)
            if score < best_score or (score == best_score and grid > (best or ())):
                best, best_score = grid, score
            return
        d = 1
        while d * d <= remaining if axes_left == 2 else d <= remaining:
            if remaining % d == 0:
                rec(remaining // d, axes_left - 1, acc + (d,))
            d += 1

    rec(n, dim, ())
    assert best is not None
    return tuple(sorted(best, reverse=True))


class Decomposition:
    """Regular grid decomposition of a periodic (or bounded) domain.

    Parameters
    ----------
    domain:
        The global domain box.
    grid:
        Number of blocks per axis, e.g. ``(2, 2, 1)``.  Use
        :func:`factor_into_grid` to derive one from a block count.
    periodic:
        Per-axis periodicity flags; a scalar bool applies to all axes.
    """

    def __init__(
        self,
        domain: Bounds,
        grid: tuple[int, ...],
        periodic: bool | tuple[bool, ...] = True,
    ) -> None:
        if len(grid) != domain.dim:
            raise ValueError(f"grid {grid} does not match domain dim {domain.dim}")
        if any(g < 1 for g in grid):
            raise ValueError(f"grid sides must be >= 1, got {grid}")
        if isinstance(periodic, bool):
            periodic = (periodic,) * domain.dim
        if len(periodic) != domain.dim:
            raise ValueError("periodic flags must match domain dim")

        self.domain = domain
        self.grid = tuple(int(g) for g in grid)
        self.periodic = tuple(bool(p) for p in periodic)
        self._blocks = self._build_blocks()

    # ------------------------------------------------------------------
    @classmethod
    def regular(
        cls,
        domain: Bounds,
        nblocks: int,
        periodic: bool | tuple[bool, ...] = True,
    ) -> "Decomposition":
        """Decompose into ``nblocks`` near-cubic blocks."""
        return cls(domain, factor_into_grid(nblocks, domain.dim), periodic)

    # ------------------------------------------------------------------
    @property
    def nblocks(self) -> int:
        """Total number of blocks."""
        return int(np.prod(self.grid))

    def _check_gid(self, gid: int) -> None:
        """Reject gids outside ``[0, nblocks)`` before any indexing.

        Without this, Python's negative indexing and modulo arithmetic
        silently return a *valid-looking* wrong block for bad gids.
        """
        if not 0 <= int(gid) < self.nblocks:
            raise ValueError(
                f"gid {gid} out of range for decomposition with "
                f"{self.nblocks} blocks (grid {self.grid})"
            )

    def block(self, gid: int) -> Block:
        """The block with global id ``gid``."""
        self._check_gid(gid)
        return self._blocks[gid]

    def blocks(self) -> tuple[Block, ...]:
        """All blocks in gid order."""
        return self._blocks

    def gid_of_coords(self, coords: tuple[int, ...]) -> int:
        """Row-major gid of grid coordinates."""
        gid = 0
        for c, g in zip(coords, self.grid):
            gid = gid * g + c
        return gid

    def coords_of_gid(self, gid: int) -> tuple[int, ...]:
        """Grid coordinates of a gid (inverse of :meth:`gid_of_coords`)."""
        self._check_gid(gid)
        coords = []
        for g in reversed(self.grid):
            coords.append(gid % g)
            gid //= g
        return tuple(reversed(coords))

    # ------------------------------------------------------------------
    def _grid_indices(self, points: np.ndarray) -> np.ndarray:
        """Per-axis block-grid indices of points.

        Out-of-domain coordinates are **wrapped** on periodic axes (same
        modulo rule as :func:`~repro.diy.bounds.wrap_positions`, including
        the fold of a float modulo that rounds up to exactly the domain
        size) and **rejected** on non-periodic axes — a clamped guess
        would silently misassign particles that drifted across the face.
        The only clamp kept is the non-periodic upper face itself: a point
        exactly at ``hi`` belongs to the last block.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.domain.dim:
            raise ValueError(
                f"points have dim {pts.shape[1]}, domain has {self.domain.dim}"
            )
        lo, _ = self.domain.as_arrays()
        sizes = self.domain.sizes
        per = np.asarray(self.periodic)
        shifted = pts - lo
        bad = ~per & ((shifted < 0.0) | (shifted > sizes))
        if bad.any():
            i = int(np.argwhere(bad.any(axis=1))[0, 0])
            raise ValueError(
                f"point {pts[i]} lies outside the non-periodic domain "
                f"{self.domain}"
            )
        wrapped = shifted % sizes
        wrapped = np.where(wrapped >= sizes, 0.0, wrapped)
        coords = np.where(per, wrapped, shifted)
        cell = sizes / np.asarray(self.grid, dtype=float)
        idx = np.floor(coords / cell).astype(np.int64)
        # Non-periodic upper face (and float round-up near a cell face)
        # lands in the last cell.
        return np.clip(idx, 0, np.asarray(self.grid) - 1)

    def locate(self, points: np.ndarray) -> np.ndarray:
        """Vectorized owner lookup: gid of the block containing each point.

        Points outside the domain are wrapped on periodic axes; on
        non-periodic axes they raise ``ValueError`` (see
        :meth:`_grid_indices`), so float drift during migration can never
        silently misassign a particle to an edge block.
        """
        idx = self._grid_indices(points)
        gids = np.zeros(len(idx), dtype=np.int64)
        for axis, g in enumerate(self.grid):
            gids = gids * g + idx[:, axis]
        return gids

    # ------------------------------------------------------------------
    def neighbors_near_point(
        self, gid: int, point: np.ndarray, radius: float
    ) -> list[NeighborLink]:
        """Links whose neighbor ghost region needs ``point``.

        This is the paper's *targeted particle exchange*: the point is sent
        only to neighbors whose (wrap-translated) core box is within
        ``radius`` of it.  ``point`` is in the source block's frame.

        Distance is Chebyshev (per-axis maximum): a point qualifies exactly
        when its translated image lies inside the neighbor's axis-aligned
        ghost box ``core.grown(radius)`` — the region the receiving block's
        tessellation container and certification assume is fully populated.
        A Euclidean criterion would leave the corners of that box (up to
        ``radius * sqrt(3)`` from the core) silently uncovered.
        """
        self._check_gid(gid)
        p = np.asarray(point, dtype=float)
        out = []
        for link in self._blocks[gid].links:
            nb = self._blocks[link.gid].core
            # The neighbor box viewed from the source frame is shifted by the
            # negative of the send translation (see periodic_translation).
            shift = -periodic_translation(np.asarray(link.wrap), self.domain)
            lo, hi = nb.as_arrays()
            lo, hi = lo + shift, hi + shift
            # Chebyshev distance from point to the shifted box.
            d = np.maximum(np.maximum(lo - p, p - hi), 0.0)
            if float(d.max()) <= radius:
                out.append(link)
        return out

    def neighbors_near_points(
        self, gid: int, points: np.ndarray, radius: float
    ) -> list[tuple[NeighborLink, np.ndarray]]:
        """Vectorized form of :meth:`neighbors_near_point` over many points.

        Returns one ``(link, mask)`` pair per link of block ``gid``, where
        ``mask`` selects the points within ``radius`` of that neighbor's
        translated box.  This is the bulk path used by the ghost exchange.
        """
        self._check_gid(gid)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = []
        for link in self._blocks[gid].links:
            nb = self._blocks[link.gid].core
            shift = -periodic_translation(np.asarray(link.wrap), self.domain)
            lo, hi = nb.as_arrays()
            lo, hi = lo + shift, hi + shift
            d = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
            mask = d.max(axis=1) <= radius  # Chebyshev: see scalar variant
            out.append((link, mask))
        return out

    # ------------------------------------------------------------------
    def _build_blocks(self) -> tuple[Block, ...]:
        lo, _ = self.domain.as_arrays()
        cell = self.domain.sizes / np.asarray(self.grid, dtype=float)
        blocks = []
        dim = self.domain.dim
        for coords in itertools.product(*[range(g) for g in self.grid]):
            c = np.asarray(coords, dtype=float)
            core = Bounds.from_arrays(lo + c * cell, lo + (c + 1) * cell)
            links = self._links_for(coords)
            gid = self.gid_of_coords(coords)
            blocks.append(Block(gid=gid, coords=coords, core=core, links=links))
        blocks.sort(key=lambda b: b.gid)
        return tuple(blocks)

    def _links_for(self, coords: tuple[int, ...]) -> tuple[NeighborLink, ...]:
        dim = len(coords)
        links: dict[tuple[int, tuple[int, ...]], NeighborLink] = {}
        for direction in itertools.product((-1, 0, 1), repeat=dim):
            if all(d == 0 for d in direction):
                continue
            ncoords = []
            wrap = []
            valid = True
            for axis, (c, d, g, per) in enumerate(
                zip(coords, direction, self.grid, self.periodic)
            ):
                nc = c + d
                w = 0
                if nc < 0:
                    if not per:
                        valid = False
                        break
                    nc += g
                    w = -1
                elif nc >= g:
                    if not per:
                        valid = False
                        break
                    nc -= g
                    w = +1
                ncoords.append(nc)
                wrap.append(w)
            if not valid:
                continue
            ngid = self.gid_of_coords(tuple(ncoords))
            if tuple(ncoords) == coords and all(w == 0 for w in wrap):
                continue  # self without wrap is not a link
            key = (ngid, tuple(wrap))
            # With tiny grids (e.g. 2 blocks on an axis) multiple directions
            # can reach the same (gid, wrap); keep one link per pair.
            if key not in links:
                links[key] = NeighborLink(
                    gid=ngid, direction=tuple(direction), wrap=tuple(wrap)
                )
        return tuple(links.values())
