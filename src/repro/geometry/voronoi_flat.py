"""Vectorized global Voronoi diagram (flat-array Qhull backend).

:class:`FlatVoronoi` converts :class:`scipy.spatial.Voronoi` output into
flat CSR-style arrays and computes *all* cell metrics with array
operations — no per-cell Python geometry:

* ridge polygons are ordered by angle around their site-pair axis in one
  vectorized pass (lexsort over (ridge, angle));
* ridge areas come from a segmented Newell sum (``np.add.reduceat``);
* cell volumes exploit the bisector identity: every Voronoi ridge lies on
  the perpendicular bisector of its site pair, so the pyramid from either
  site to the ridge has height ``|s_p - s_q| / 2`` and the cell volume is
  ``(1/6) * sum of A_r * d_r`` over the cell's ridges;
* completeness combines Qhull's unbounded-region marker with an
  all-vertices-inside-the-container test, matching the semantics of the
  clip backend.

:class:`FlatVoronoi` was the engine behind tess's production path until the
Delaunay-direct engine (:mod:`repro.geometry.voronoi_delaunay`) replaced
it; it remains the first-line cross-validation oracle, with the per-cell
backends in :mod:`repro.geometry.voronoi_cells` /
:mod:`repro.geometry.voronoi_qhull` as the deeper references.

:class:`FlatVoronoiBase` holds the flat-CSR interface contract both
engines share: attribute layout, cycle/neighbor accessors, and the batched
cell-diameter kernel used by the early volume cull.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ..diy.bounds import Bounds

__all__ = ["FlatVoronoi", "FlatVoronoiBase", "segment_gather"]


def segment_gather(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices gathering CSR segments ``[starts[i], starts[i]+lengths[i])``."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out_starts = np.concatenate([[0], np.cumsum(lengths[:-1])])
    return (
        np.repeat(starts, lengths)
        + np.arange(total)
        - np.repeat(out_starts, lengths)
    )


class FlatVoronoiBase:
    """Shared flat-CSR Voronoi interface (see :class:`FlatVoronoi`).

    Subclasses populate in ``__init__``: ``points``, ``box``, ``vertices``,
    ``ridge_sites``, ``ridge_flat``/``ridge_offsets``, ``ridge_areas``,
    ``volumes``/``areas``, ``complete``, ``cell_ridges_flat``/
    ``cell_ridges_offsets`` — plus the geometry counters ``num_tets``,
    ``degenerate_ridges_dropped``, ``used_fallback`` and ``merged_sites``.
    """

    #: Delaunay tetrahedra behind the diagram (0 for the Qhull-Voronoi path).
    num_tets: int = 0
    #: ridges discarded as coincident-circumcenter slivers (Delaunay path).
    degenerate_ridges_dropped: int = 0
    #: True when the engine fell back to joggled input or an empty diagram.
    used_fallback: bool = False
    #: sites qhull folded into a representative vertex (exact duplicates).
    merged_sites: int = 0

    @property
    def degenerate(self) -> bool:
        """True when the input was degenerate (joggled or empty diagram,
        coincident circumcenters, duplicate sites): how qhull broke the
        ties is specific to this run's point set and order."""
        return bool(
            self.used_fallback
            or self.degenerate_ridges_dropped
            or self.merged_sites
        )

    def _init_degenerate(self, n: int) -> None:
        self.used_fallback = True
        self.vertices = np.empty((0, 3))
        self.ridge_sites = np.empty((0, 2), dtype=np.int64)
        self.ridge_flat = np.empty(0, dtype=np.int64)
        self.ridge_offsets = np.zeros(1, dtype=np.int64)
        self.ridge_areas = np.empty(0)
        self.volumes = np.zeros(n)
        self.areas = np.zeros(n)
        self.complete = np.zeros(n, dtype=bool)
        self.cell_ridges_offsets = np.zeros(n + 1, dtype=np.int64)
        self.cell_ridges_flat = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def num_sites(self) -> int:
        return len(self.points)

    @property
    def num_ridges(self) -> int:
        """Number of finite ridges."""
        return len(self.ridge_sites)

    def cell_ridge_ids(self, site: int) -> np.ndarray:
        """Valid-ridge indices bounding the cell of ``site``."""
        return self.cell_ridges_flat[
            self.cell_ridges_offsets[site] : self.cell_ridges_offsets[site + 1]
        ]

    def ridge_cycle(self, r: int) -> np.ndarray:
        """Ordered vertex indices (into :attr:`vertices`) of ridge ``r``."""
        return self.ridge_flat[self.ridge_offsets[r] : self.ridge_offsets[r + 1]]

    def cell_neighbors(self, site: int) -> np.ndarray:
        """Site indices across each of the cell's ridges."""
        rs = self.ridge_sites[self.cell_ridge_ids(site)]
        return np.where(rs[:, 0] == site, rs[:, 1], rs[:, 0])

    def max_vertex_separation(self, site: int) -> float:
        """Diameter of the cell's vertex set (early-cull quantity)."""
        return float(
            self.max_vertex_separations(np.asarray([site], dtype=np.int64))[0]
        )

    def max_vertex_separations(
        self, sites: np.ndarray | None = None, chunk: int = 2048
    ) -> np.ndarray:
        """Batched cell diameters: max pairwise vertex distance per cell.

        Computes, for every requested site (default all), the exact maximum
        pairwise distance between the distinct vertices of its cell — the
        conservative early-cull quantity of paper §III-C — with array ops
        only.  Cells with fewer than two vertices get 0.  ``chunk`` bounds
        the number of cells expanded to vertex pairs at once, capping the
        O(sum k_i^2) intermediate memory.
        """
        sites = (
            np.arange(self.num_sites, dtype=np.int64)
            if sites is None
            else np.asarray(sites, dtype=np.int64)
        )
        out = np.zeros(len(sites))
        cr_off = self.cell_ridges_offsets
        r_off = self.ridge_offsets
        for c0 in range(0, len(sites), chunk):
            sel = sites[c0 : c0 + chunk]
            counts = (cr_off[sel + 1] - cr_off[sel]).astype(np.int64)
            rids = self.cell_ridges_flat[segment_gather(cr_off[sel], counts)]
            cyc_len = (r_off[rids + 1] - r_off[rids]).astype(np.int64)
            vids = self.ridge_flat[segment_gather(r_off[rids], cyc_len)]
            # vertices per cell (with multiplicity across its ridges)
            per_cell = np.zeros(len(sel), dtype=np.int64)
            np.add.at(per_cell, np.repeat(np.arange(len(sel)), counts), cyc_len)
            cell_of = np.repeat(np.arange(len(sel)), per_cell)
            # distinct (cell, vertex) pairs: duplicates don't change the max
            # but quadratically inflate the pair expansion below.
            nv = max(len(self.vertices), 1)
            uniq = np.unique(cell_of * nv + vids)
            ucell = uniq // nv
            uvid = uniq % nv
            k = np.bincount(ucell, minlength=len(sel)).astype(np.int64)
            multi = k >= 2
            if not multi.any():
                continue
            # all k_i^2 vertex pairs within each cell's segment
            seg_starts = np.concatenate([[0], np.cumsum(k[:-1])])
            kk = k[multi]
            starts = seg_starts[multi]
            left = np.repeat(uvid[segment_gather(starts, kk)], np.repeat(kk, kk))
            right = uvid[
                segment_gather(np.repeat(starts, kk), np.repeat(kk, kk))
            ]
            diff = self.vertices[left] - self.vertices[right]
            d2 = np.einsum("ij,ij->i", diff, diff)
            bounds = np.concatenate([[0], np.cumsum(kk * kk)])[:-1]
            out[c0 + np.flatnonzero(multi)] = np.sqrt(
                np.maximum.reduceat(d2, bounds)
            )
        return out


class FlatVoronoi(FlatVoronoiBase):
    """Flat-array Voronoi diagram of a 3D point set within a container box.

    Attributes (all computed in ``__init__``)
    -----------------------------------------
    vertices:
        ``(nv, 3)`` Voronoi vertex coordinates (Qhull's global pool).
    ridge_sites:
        ``(R, 2)`` site index pair of each *valid* (finite) ridge.
    ridge_flat / ridge_offsets:
        Ordered vertex-index cycles of the valid ridges in CSR form:
        ridge ``r`` is ``ridge_flat[ridge_offsets[r]:ridge_offsets[r+1]]``.
    ridge_areas:
        ``(R,)`` polygon area per valid ridge.
    volumes / areas:
        ``(n,)`` per-site cell volume and surface area (NaN/partial for
        incomplete cells — do not use unless ``complete`` is set).
    complete:
        ``(n,)`` bool; cell is bounded with every vertex inside the box.
    cell_ridges_flat / cell_ridges_offsets:
        CSR mapping from each site to the valid-ridge indices around it.
    """

    def __init__(self, points: np.ndarray, box: Bounds):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got {pts.shape}")
        n = len(pts)
        self.points = pts
        self.box = box
        if n < 5:
            # Too few sites for a 3D Delaunay: everything is unbounded.
            self._init_degenerate(n)
            return

        from scipy.spatial import QhullError, Voronoi

        try:
            vor = Voronoi(pts)
        except QhullError:
            # Degenerate input (coincident/collinear/coplanar points):
            # retry with joggled input, as qhull recommends; give up to an
            # empty (all-incomplete) diagram if even that fails.
            try:
                vor = Voronoi(pts, qhull_options="Qbb Qc Qz QJ")
                self.used_fallback = True
            except QhullError:
                self._init_degenerate(n)
                return
        self.vertices = vor.vertices

        # ---- flatten ridges, keeping only finite ones -------------------
        # One C-level pass per list-of-lists (map/chain feed fromiter with a
        # preset count) — the per-element genexpr flattens this replaces
        # were the hot spot of the whole constructor after the Qhull call.
        lengths = np.fromiter(
            map(len, vor.ridge_vertices),
            dtype=np.int64,
            count=len(vor.ridge_vertices),
        )
        flat = np.fromiter(
            chain.from_iterable(vor.ridge_vertices),
            dtype=np.int64,
            count=int(lengths.sum()),
        )
        starts = np.concatenate([[0], np.cumsum(lengths)])
        # A ridge is finite iff it has no -1 vertex (scipy puts -1 first).
        has_inf = np.zeros(len(lengths), dtype=bool)
        np.logical_or.at(has_inf, np.repeat(np.arange(len(lengths)), lengths), flat < 0)

        ridge_points = np.asarray(vor.ridge_points, dtype=np.int64)
        # Qhull's Qz option introduces a synthetic point-at-infinity whose
        # index (>= n) can appear in ridge_points on degenerate inputs;
        # such ridges bound unbounded cells.
        real_sites = np.all(ridge_points < n, axis=1)
        synthetic_touch = np.unique(
            ridge_points[~real_sites][ridge_points[~real_sites] < n]
        )
        finite = ~has_inf & (lengths >= 3) & real_sites
        self.ridge_sites = ridge_points[finite]
        fl_lengths = lengths[finite]
        R = int(finite.sum())

        # Gather the finite ridges' flat vertices.
        keep_mask = np.repeat(finite, lengths)
        fl_flat = flat[keep_mask]
        fl_offsets = np.concatenate([[0], np.cumsum(fl_lengths)])
        fl_rid = np.repeat(np.arange(R), fl_lengths)

        # ---- order each ridge polygon by angle around its pair axis -----
        if R > 0:
            axis = pts[self.ridge_sites[:, 1]] - pts[self.ridge_sites[:, 0]]
            axis /= np.linalg.norm(axis, axis=1, keepdims=True)
            helper = np.zeros_like(axis)
            use_y = np.abs(axis[:, 0]) > 0.9
            helper[use_y, 1] = 1.0
            helper[~use_y, 0] = 1.0
            u = np.cross(axis, helper)
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            v = np.cross(axis, u)

            vpts = self.vertices[fl_flat]
            centers = np.add.reduceat(vpts, fl_offsets[:-1], axis=0)
            centers /= fl_lengths[:, None]
            rel = vpts - centers[fl_rid]
            ang = np.arctan2(
                np.einsum("ij,ij->i", rel, v[fl_rid]),
                np.einsum("ij,ij->i", rel, u[fl_rid]),
            )
            order = np.lexsort((ang, fl_rid))
            self.ridge_flat = fl_flat[order]
            self.ridge_offsets = fl_offsets

            # ---- segmented Newell area ---------------------------------
            opts = self.vertices[self.ridge_flat]
            # next vertex within each ridge cycle
            nxt_idx = np.arange(len(self.ridge_flat)) + 1
            nxt_idx[fl_offsets[1:] - 1] = fl_offsets[:-1]
            cr = np.cross(opts, opts[nxt_idx])
            area_vec = np.add.reduceat(cr, fl_offsets[:-1], axis=0) * 0.5
            self.ridge_areas = np.sqrt(np.einsum("ij,ij->i", area_vec, area_vec))

            # ---- cell volume/area via the bisector identity --------------
            d = np.linalg.norm(
                pts[self.ridge_sites[:, 1]] - pts[self.ridge_sites[:, 0]], axis=1
            )
            pyramid = self.ridge_areas * d / 6.0
            self.volumes = np.zeros(n)
            self.areas = np.zeros(n)
            for side in (0, 1):
                np.add.at(self.volumes, self.ridge_sites[:, side], pyramid)
                np.add.at(self.areas, self.ridge_sites[:, side], self.ridge_areas)
        else:
            self.ridge_flat = np.empty(0, dtype=np.int64)
            self.ridge_offsets = np.zeros(1, dtype=np.int64)
            self.ridge_areas = np.empty(0)
            self.volumes = np.zeros(n)
            self.areas = np.zeros(n)

        # ---- completeness -------------------------------------------------
        # A site is bounded iff its region is nonempty and has no -1 vertex.
        # Build region lengths and -1 membership once with array ops instead
        # of a per-site Python loop over vor.regions.
        regions = vor.regions
        region_lengths = np.fromiter(
            map(len, regions), dtype=np.int64, count=len(regions)
        )
        region_flat = np.fromiter(
            chain.from_iterable(regions),
            dtype=np.int64,
            count=int(region_lengths.sum()),
        )
        region_of = np.repeat(np.arange(len(regions)), region_lengths)
        region_has_inf = (
            np.bincount(
                region_of, weights=region_flat < 0, minlength=len(regions)
            )
            > 0
        )
        region_bad = (region_lengths == 0) | region_has_inf
        bounded = ~region_bad[np.asarray(vor.point_region[:n], dtype=np.int64)]
        bounded[synthetic_touch] = False  # cells facing the Qz point
        # A ridge with a vertex outside the box taints both its cells.
        lo, hi = box.as_arrays()
        if R > 0:
            vin = np.all((self.vertices >= lo) & (self.vertices <= hi), axis=1)
            ridge_in = np.ones(R, dtype=bool)
            np.logical_and.at(
                ridge_in,
                np.repeat(np.arange(R), np.diff(self.ridge_offsets)),
                vin[self.ridge_flat],
            )
            cell_in = np.ones(n, dtype=bool)
            for side in (0, 1):
                np.logical_and.at(cell_in, self.ridge_sites[:, side], ridge_in)
            # Sites whose infinite ridges were dropped must not count as
            # complete just because their remaining ridges look fine.
            self.complete = bounded & cell_in
        else:
            self.complete = np.zeros(n, dtype=bool)

        # ---- CSR: site -> valid ridge ids ---------------------------------
        counts = np.zeros(n, dtype=np.int64)
        for side in (0, 1):
            np.add.at(counts, self.ridge_sites[:, side], 1)
        self.cell_ridges_offsets = np.concatenate([[0], np.cumsum(counts)])
        self.cell_ridges_flat = np.empty(int(counts.sum()), dtype=np.int64)
        cursor = self.cell_ridges_offsets[:-1].copy()
        for side in (0, 1):
            sites_side = self.ridge_sites[:, side]
            # Stable fill: iterate ridges in order, vectorized via argsort.
            order = np.argsort(sites_side, kind="stable")
            sorted_sites = sites_side[order]
            pos = cursor[sorted_sites]
            # offsets within each site's run
            run_start = np.concatenate(
                [[0], np.flatnonzero(np.diff(sorted_sites)) + 1]
            )
            run_id = np.zeros(len(sorted_sites), dtype=np.int64)
            run_id[run_start[1:]] = 1
            run_id = np.cumsum(run_id)
            within = np.arange(len(sorted_sites)) - run_start[run_id]
            self.cell_ridges_flat[pos + within] = order
            # Advance each site's cursor past this side's entries.
            cursor += np.bincount(sites_side, minlength=n)
