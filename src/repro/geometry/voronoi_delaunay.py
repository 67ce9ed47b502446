"""The local Voronoi engine: a flat-CSR diagram straight from Delaunay.

:class:`DelaunayVoronoi` is the one engine the tessellation pipeline runs
(the paper's "local cells" step, Fig. 5).  It derives the whole diagram
from one Delaunay triangulation — the compiled kernel of
:mod:`repro._native`, or ``scipy.spatial.Delaunay`` without a compiler —
as pure ndarrays (tets, neighbors), so every later stage is an array
pass with no per-cell Python geometry:

* Voronoi vertices are the circumcenters of the Delaunay tetrahedra —
  one Cramer solve per tet;
* each tet contributes its 6 edges; grouping the 6m (edge -> tet)
  incidences by edge key ``lo * n + hi`` (each ring's tets ascending)
  collects, per Delaunay edge, the ring of tets whose circumcenters are
  exactly the dual ridge polygon of that site pair;
* a ridge is finite iff its Delaunay edge is interior — hull edges (the
  edges of faces with ``neighbors == -1``) dualize to unbounded ridges,
  and hull *sites* are the unbounded cells;
* each finite ring is ordered by angle around the site-pair axis, then
  coincident circumcenters (cospherical point sets — lattices —
  triangulate into slivers whose circumcenters collide) are merged by
  tolerance; rings left with fewer than three distinct vertices are
  dropped as degenerate, so lattice inputs do not fabricate zero-area
  ridges or phantom adjacency;
* ridge areas come from a segmented Newell sum, and cell volumes from
  the bisector identity: every ridge lies on the perpendicular bisector
  of its site pair, so the pyramid from either site to the ridge has
  height ``|s_p - s_q| / 2`` and a cell's volume is ``(1/6) * sum of
  A_r * d_r`` over its ridges;
* a cell is complete iff its site is off the hull and every incident
  circumcenter lies inside the container — the semantics of the
  independent clip reference the tests hold it to
  (``tests/clip_voronoi.py``: "no wall face remains").

With the compiled kernels all of this is one pass over the kernel's
live triangulation (:meth:`repro._native.Triangulation.cells`, span
``cells``), else ~15 NumPy passes over qhull's (:meth:`_numpy_cells`);
the tests run both on one triangulation.  Tets are int64 (downstream CSR
indices must not wrap at 2**31).
"""

from __future__ import annotations

import numpy as np

from .. import _native, observe
from ..diy.bounds import Bounds

__all__ = ["DelaunayVoronoi", "segment_gather", "tet_circumcenters"]

#: the 6 vertex pairs (edges) of a tetrahedron
_TET_EDGES = np.array(
    [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]], dtype=np.int64
)
#: vertex triples of the face opposite each tet vertex (scipy convention)
_TET_FACES = np.array(
    [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]], dtype=np.int64
)
#: the 3 vertex pairs (edges) of a triangular face
_FACE_EDGES = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)

#: relative tolerance (of the container diagonal) under which two ring
#: circumcenters are the same Voronoi vertex
_COINCIDENT_RTOL = 1e-9


def segment_gather(
    starts: np.ndarray, lengths: np.ndarray, dtype=np.int64
) -> np.ndarray:
    """Indices gathering CSR segments ``[starts[i], starts[i]+lengths[i])``
    (of ``dtype``: the narrowest that holds them halves the memory)."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=dtype)
    out_starts = np.concatenate([[0], np.cumsum(lengths[:-1])])
    shift = (starts - out_starts).astype(dtype, copy=False)
    return np.repeat(shift, lengths) + np.arange(total, dtype=dtype)


def _lstsq_fixup(centers, pts, tets, bad):
    """Re-solve the exactly singular tets (NaN/inf centers) one by one."""
    for i in np.flatnonzero(bad):
        a = pts[tets[i, 0]]
        rows = pts[tets[i, 1:]] - a
        rhs = 0.5 * np.einsum("ij,ij->i", rows, rows)
        centers[i] = np.linalg.lstsq(rows, rhs, rcond=None)[0] + a


def tet_circumcenters(points: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Circumcenters of tetrahedra: batched Cramer's rule.

    Row ``k`` of the per-tet system equates the center's distance to
    vertex 0 and vertex ``k+1``.  Exactly singular systems (degenerate
    slivers) fall back to least squares; the resulting far-away center
    is merged/culled by the coincidence tolerance later.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    tets = np.ascontiguousarray(tets, dtype=np.int64)
    native = _native.lib()
    if native is not None:
        out = np.empty((len(tets), 3))
        nbad = native.tet_circumcenters(points, tets, len(tets), out)
        if nbad:
            _lstsq_fixup(
                out, points, tets, ~np.isfinite(out).all(axis=1)
            )
        return out

    a = points[tets[:, 0]]
    rows = np.stack([points[tets[:, k]] - a for k in (1, 2, 3)], axis=1)
    rhs = 0.5 * np.einsum("ijk,ijk->ij", rows, rows)
    c23 = np.cross(rows[:, 1], rows[:, 2])
    c31 = np.cross(rows[:, 2], rows[:, 0])
    c12 = np.cross(rows[:, 0], rows[:, 1])
    det = np.einsum("ij,ij->i", rows[:, 0], c23)
    with np.errstate(divide="ignore", invalid="ignore"):
        centers = (
            rhs[:, :1] * c23 + rhs[:, 1:2] * c31 + rhs[:, 2:] * c12
        ) / det[:, None]
    centers += a
    bad = ~np.isfinite(centers).all(axis=1)
    if bad.any():
        _lstsq_fixup(centers, points, tets, bad)
    return centers


class DelaunayVoronoi:
    """Flat-CSR Voronoi diagram computed directly from a Delaunay mesh.

    Attributes (all computed in ``__init__``)
    -----------------------------------------
    vertices:
        ``(nv, 3)`` Voronoi vertex coordinates: ``vertices[t]`` is the
        circumcenter of tet ``t``.
    ridge_sites:
        ``(R, 2)`` site index pair of each *valid* (finite) ridge.
    ridge_flat / ridge_offsets:
        Ordered vertex-index cycles of the valid ridges in CSR form:
        ridge ``r`` is ``ridge_flat[ridge_offsets[r]:ridge_offsets[r+1]]``.
    ridge_areas:
        ``(R,)`` polygon area per valid ridge.
    volumes / areas:
        ``(n,)`` per-site cell volume and surface area (partial for
        incomplete cells — do not use unless ``complete`` is set).
    complete:
        ``(n,)`` bool; cell is bounded with every vertex inside the box.
    cell_ridges_flat / cell_ridges_offsets:
        CSR mapping from each site to the valid-ridge indices around it.

    Parameters
    ----------
    points:
        ``(n, 3)`` sites.
    box:
        Container bounds; cells with a vertex outside are incomplete.
    owned:
        When given, a ``(n,)`` bool mask of the sites of interest: Delaunay
        edges with no owned endpoint are dropped before the ring sort, so
        no ridge between two ghost sites is ordered, measured or indexed.
        Rows of unowned sites in ``volumes``/``areas``/the cell CSR are
        then partial and must not be read; the triangulation and
        ``vertices`` (one circumcenter per tet) are unaffected.
    """

    #: Delaunay tetrahedra behind the diagram.
    num_tets: int = 0
    #: ridges discarded as coincident-circumcenter slivers.
    degenerate_ridges_dropped: int = 0
    #: True when the engine fell back to joggled input or an empty diagram.
    used_fallback: bool = False
    #: sites qhull folded into a representative vertex (exact duplicates).
    merged_sites: int = 0

    def __init__(
        self,
        points: np.ndarray,
        box: Bounds,
        owned: np.ndarray | None = None,
    ):
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got {pts.shape}")
        n = len(pts)
        self.points = pts
        self.box = box
        if n < 5:
            self._init_degenerate(n)
            return
        native = _native.lib() is not None
        with observe.span("triangulate", cat="geometry", points=n,
                          kernel="native" if native else "qhull"):
            tri = _native.triangulate(pts) if native else self._qhull(pts)
        if tri is None:
            self._init_degenerate(n)
            return
        lo, hi = box.as_arrays()
        eps = _COINCIDENT_RTOL * float(np.linalg.norm(hi - lo))
        with observe.span("cells", cat="geometry", points=n):
            if native:
                self._kernel_cells(tri, owned, lo, hi, eps)
            else:
                self._numpy_cells(*tri, owned, lo, hi, eps)

    def _kernel_cells(self, tri, owned, lo, hi, eps) -> None:
        """Every array from one kernel pass over its triangulation."""
        with tri:
            self.__dict__.update(tri.cells(owned, lo, hi, eps * eps, _lstsq_fixup))
        self.num_tets = len(self._tets)

    def _numpy_cells(self, tets, nbrs, coplanar, owned, lo, hi, eps) -> None:
        """Every array by NumPy passes over ``(tets, nbrs, coplanar)``."""
        pts = self.points
        n = len(pts)
        # Qhull's Qz option (used by the joggle fallback) can leave a
        # synthetic point-at-infinity (index >= n) in the simplices on
        # degenerate input.  Drop those tets — their faces dualize to
        # nothing real — remapping severed neighbor links to -1 so the
        # touched sites register as unbounded below.
        synth = (tets >= n).any(axis=1)
        if synth.any():
            remap = np.full(len(tets) + 1, -1, dtype=np.int64)
            remap[np.flatnonzero(~synth)] = np.arange(int((~synth).sum()))
            tets = tets[~synth]
            nbrs = remap[nbrs[~synth]]
            if len(tets) == 0:
                self._init_degenerate(n)
                return
        tets = np.ascontiguousarray(tets)
        m = len(tets)
        self.num_tets = m
        self._tets = tets
        self._neighbors = nbrs

        # ---- dual vertices: all circumcenters, one batched solve --------
        # Solved from each tet's vertices in index order, not qhull's: a
        # tet then has the same circumcenter, bit for bit, in any
        # triangulation that lists its points in the same relative order
        # (a block's thin pass, repair patch and full pass all do).
        self.vertices = tet_circumcenters(pts, np.sort(tets, axis=1))

        # ---- group tets by Delaunay edge: the dual ridge rings ----------
        # 6 edges per tet, keyed lo*n + hi, each ring's tets ascending.
        # When key and tet id fit in one int64, pack them and sort
        # *values* (roughly twice as fast as argsort + two gathers); else
        # argsort the keys stably.
        ev = tets[:, _TET_EDGES]  # (m, 6, 2)
        elo = np.minimum(ev[..., 0], ev[..., 1]).ravel()
        ehi = np.maximum(ev[..., 0], ev[..., 1]).ravel()
        ekey = elo * n + ehi
        tet_of = np.repeat(np.arange(m, dtype=np.int64), 6)
        if owned is not None and not owned.all():
            # Ghost-ghost edges dualize to ridges no owned cell touches.
            owned_edge = owned[elo] | owned[ehi]
            ekey = ekey[owned_edge]
            tet_of = tet_of[owned_edge]
        shift = int(m).bit_length()
        if (n * n) >> (63 - shift) == 0:
            packed = (ekey << shift) | tet_of
            packed.sort()
            ekey = packed >> shift
            tet_of = packed & ((np.int64(1) << shift) - 1)
        else:
            order = np.argsort(ekey, kind="stable")
            ekey = ekey[order]
            tet_of = tet_of[order]
        # (ekey[:1] == ekey[:1] is [True], or empty when no edge is left)
        ring_starts = np.flatnonzero(
            np.concatenate([ekey[:1] == ekey[:1], ekey[1:] != ekey[:-1]])
        )
        ring_lengths = np.diff(np.concatenate([ring_starts, [len(ekey)]]))
        edge_keys = ekey[ring_starts]

        # ---- unboundedness from convex-hull incidence -------------------
        # neighbors == -1 marks hull facets; their vertices are the
        # unbounded sites and their edges dualize to unbounded ridges.
        hull_faces = self._hull_faces()
        hull_sites = np.unique(hull_faces)
        fe = hull_faces[:, _FACE_EDGES]
        hull_keys = np.unique(
            np.minimum(fe[..., 0], fe[..., 1]) * n
            + np.maximum(fe[..., 0], fe[..., 1])
        )
        finite = ~np.isin(edge_keys, hull_keys, assume_unique=True)

        f_lengths = ring_lengths[finite]
        f_keys = edge_keys[finite]
        R = len(f_keys)
        ridge_sites = np.empty((R, 2), dtype=np.int64)
        ridge_sites[:, 0] = f_keys // n
        ridge_sites[:, 1] = f_keys % n
        # ring tet ids, rings contiguous: ridge r is fl_flat[off[r]:off[r+1]]
        fl_flat = tet_of[np.repeat(finite, ring_lengths)]
        fl_offsets = np.concatenate([[0], np.cumsum(f_lengths)])

        if R == 0:
            self.ridge_sites = np.empty((0, 2), dtype=np.int64)
            self.ridge_flat = np.empty(0, dtype=np.int64)
            self.ridge_offsets = np.zeros(1, dtype=np.int64)
            self.ridge_areas = np.empty(0)
        else:
            fl_rid = np.repeat(np.arange(R, dtype=np.int64), f_lengths)
            (
                self.ridge_flat,
                self.ridge_offsets,
                keep_ridge,
            ) = self._order_and_dedup_rings(
                pts, ridge_sites, fl_flat, fl_offsets, fl_rid, f_lengths, eps
            )
            self.ridge_sites = ridge_sites[keep_ridge]
            self.degenerate_ridges_dropped = R - len(self.ridge_sites)
            # segmented Newell area over the ordered rings
            opts = self.vertices[self.ridge_flat]
            nxt_idx = np.arange(len(self.ridge_flat)) + 1
            nxt_idx[self.ridge_offsets[1:] - 1] = self.ridge_offsets[:-1]
            cr = np.cross(opts, opts[nxt_idx])
            area_vec = (
                np.add.reduceat(cr, self.ridge_offsets[:-1], axis=0) * 0.5
            )
            self.ridge_areas = np.sqrt(
                np.einsum("ij,ij->i", area_vec, area_vec)
            )
        R = len(self.ridge_sites)

        # ---- bisector-pyramid volumes + surface areas -------------------
        if R > 0:
            d = np.linalg.norm(
                pts[self.ridge_sites[:, 1]] - pts[self.ridge_sites[:, 0]],
                axis=1,
            )
            pyramid = self.ridge_areas * d / 6.0
            self.volumes = np.bincount(
                self.ridge_sites[:, 0], weights=pyramid, minlength=n
            ) + np.bincount(
                self.ridge_sites[:, 1], weights=pyramid, minlength=n
            )
            self.areas = np.bincount(
                self.ridge_sites[:, 0], weights=self.ridge_areas, minlength=n
            ) + np.bincount(
                self.ridge_sites[:, 1], weights=self.ridge_areas, minlength=n
            )
        else:
            self.ridge_areas = np.empty(0)
            self.volumes = np.zeros(n)
            self.areas = np.zeros(n)

        # ---- completeness -----------------------------------------------
        # Bounded iff not on the convex hull; inside iff every incident
        # circumcenter (== every cell vertex, by duality) is in the box.
        bounded = np.ones(n, dtype=bool)
        bounded[hull_sites] = False
        c_in = np.all((self.vertices >= lo) & (self.vertices <= hi), axis=1)
        cell_in = np.ones(n, dtype=bool)
        if not c_in.all():
            cell_in[tets[~c_in].ravel()] = False
        # Sites absent from the triangulation: exact duplicates (and
        # qhull's near-coplanar merges) folded into a representative
        # vertex; they share its cell, mirroring Voronoi's shared
        # point_region (zero volume, no ridges — the representative
        # carries the metrics).
        in_tri = np.zeros(n, dtype=bool)
        in_tri[tets.ravel()] = True
        missing = ~in_tri
        self.merged_sites = int(missing.sum())
        if self.merged_sites:
            bounded_m = np.zeros(n, dtype=bool)
            if len(coplanar):
                cop = coplanar[coplanar[:, 0] < n]
                rep = np.minimum(cop[:, 2], n - 1)
                bounded_m[cop[:, 0]] = bounded[rep]
            bounded[missing] = bounded_m[missing]
            cell_in[missing] = True
        self.complete = bounded & cell_in
        if self.used_fallback:
            # Joggled output is qhull-run-specific noise on exactly
            # degenerate input; never certify cells from it.
            self.complete[:] = False

        # ---- CSR: site -> valid ridge ids -------------------------------
        # Stable sort by site: side-0 entries precede side-1 entries
        # within each cell, each in ridge order.
        counts = np.bincount(self.ridge_sites.ravel(), minlength=n)
        self.cell_ridges_offsets = np.concatenate(
            [[0], np.cumsum(counts)]
        ).astype(np.int64)
        rid_both = np.tile(np.arange(R, dtype=np.int64), 2)
        self.cell_ridges_flat = rid_both[
            np.argsort(self.ridge_sites.T.ravel(), kind="stable")
        ]

    # ------------------------------------------------------------------
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
        self._tets = self._neighbors = np.empty((0, 4), dtype=np.int64)
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

    # ------------------------------------------------------------------
    def _qhull(self, pts: np.ndarray):
        """int64 ``(tets, neighbors, coplanar)`` from one qhull run, with a
        joggle fallback on degenerate input; ``None`` when even that
        fails."""
        from scipy.spatial import Delaunay, QhullError

        try:
            tri = Delaunay(pts)
        except QhullError:
            try:
                tri = Delaunay(pts, qhull_options="Qbb Qc Qz QJ")
                self.used_fallback = True
            except QhullError:
                return None
        return (tri.simplices.astype(np.int64),
                tri.neighbors.astype(np.int64),
                np.asarray(tri.coplanar, dtype=np.int64))

    def _order_and_dedup_rings(
        self, pts, ridge_sites, fl_flat, fl_offsets, fl_rid, f_lengths, eps
    ):
        """Angle-order each tet ring and merge coincident circumcenters
        (the compiled kernel's ``ring``, vectorized).

        Returns ``(ridge_flat, ridge_offsets, keep_ridge)`` with rings of
        fewer than three distinct vertices dropped (``keep_ridge`` masks
        the surviving rings in the input ridge order).
        """
        axis = pts[ridge_sites[:, 1]] - pts[ridge_sites[:, 0]]
        axis /= np.linalg.norm(axis, axis=1, keepdims=True)
        helper = np.zeros_like(axis)
        use_y = np.abs(axis[:, 0]) > 0.9
        helper[use_y, 1] = 1.0
        helper[~use_y, 0] = 1.0
        u = np.cross(axis, helper)
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v = np.cross(axis, u)

        vpts = self.vertices[fl_flat]
        centers = (
            np.add.reduceat(vpts, fl_offsets[:-1], axis=0)
            / f_lengths[:, None]
        )
        rel = vpts - centers[fl_rid]
        ang = np.arctan2(
            np.einsum("ij,ij->i", rel, v[fl_rid]),
            np.einsum("ij,ij->i", rel, u[fl_rid]),
        )
        # One argsort of a composite float key instead of a two-key lexsort
        # (~10x cheaper): ring id in the integer part, normalized angle in
        # the fraction.  Fractional resolution at R ~ 2^17 rings is ~1e-10
        # rad; ties at that scale are coincident vertices, merged below.
        comp = fl_rid + (ang + np.pi) / (2.0 * np.pi + 1e-6)
        order = np.argsort(comp, kind="stable")
        sflat = fl_flat[order]
        spts = vpts[order]

        # A vertex coincident with its cyclic predecessor is the same
        # Voronoi vertex: cospherical sites triangulate into tet fans that
        # share one circumcenter, and keeping the duplicates would turn
        # lattice ridges into degenerate polygons.
        prev = np.arange(len(sflat)) - 1
        prev[fl_offsets[:-1]] = fl_offsets[1:] - 1
        dd = spts - spts[prev]
        keep = np.einsum("ij,ij->i", dd, dd) > eps * eps
        new_len = np.add.reduceat(keep.astype(np.int64), fl_offsets[:-1])
        keep_ridge = new_len >= 3
        keep &= keep_ridge[fl_rid]
        return (
            sflat[keep],
            np.concatenate([[0], np.cumsum(new_len[keep_ridge])]),
            keep_ridge,
        )

    # ------------------------------------------------------------------
    def star_violations(
        self, owned: np.ndarray, candidates: np.ndarray, safe_box: Bounds | None = None
    ) -> tuple[np.ndarray, int]:
        """Owned sites (``owned``: bool mask over the sites) whose cell
        would change if ``candidates`` were added to the triangulation and
        could be complete afterwards.

        The exact Delaunay criterion: the star of a site survives the
        insertion of a point set iff no point lies inside the circumsphere
        of an incident tet and none lies beyond an incident hull facet (an
        infinite sphere; some point does iff the site leaves the hull).
        A star vertex that does survive stays a vertex of the site's
        cell; if it lies outside :attr:`box`, or the site stays on the
        hull, the cell is incomplete before and after and the site is not
        reported.

        ``safe_box`` is a box known to hold no candidate: spheres inside
        it are skipped before the nearest-candidate query.  The sphere
        test is conservative (a point within ``1e-9`` relative of a
        sphere counts as inside).

        Returns the sorted violated owned site indices and the number of
        spheres (and hull sites turned interior) found violated.
        """
        from scipy.spatial import cKDTree

        if self.num_tets == 0 or len(candidates) == 0:
            return np.empty(0, dtype=np.int64), 0
        tets, pts = self._tets, self.points
        n = len(pts)
        incident = np.flatnonzero(owned[tets].any(axis=1))
        centers = self.vertices[incident]
        radii = self._circumradii(incident)
        hit = np.isinf(radii)  # a sliver without a center: assume the worst
        probe = ~hit
        if safe_box is not None:
            lo, hi = safe_box.as_arrays()
            rr = radii[:, None]
            probe &= ((centers - rr < lo) | (centers + rr > hi)).any(axis=1)
        if probe.any():
            nearest, _ = cKDTree(candidates).query(centers[probe])
            hit[probe] = nearest <= radii[probe] * (1.0 + 1e-9)
        violated = np.zeros(n, dtype=bool)
        violated[tets[incident[hit]].ravel()] = True
        hits = int(hit.sum())
        # Surviving vertices outside the box: incomplete either way.
        lo, hi = self.box.as_arrays()
        outside = ~np.all((centers >= lo) & (centers <= hi), axis=1)
        doomed = np.zeros(n, dtype=bool)
        doomed[tets[incident[outside & ~hit]].ravel()] = True

        # An owned site on this hull either stays on the hull of all the
        # points (unbounded either way) or becomes interior (its star
        # changes, and nothing bounds where its neighbors are).
        hull_faces = self._hull_faces()
        hull_owned = np.unique(hull_faces[owned[hull_faces]])
        if len(hull_owned):
            from scipy.spatial import ConvexHull

            stays = np.zeros(n + len(candidates), dtype=bool)
            stays[ConvexHull(np.concatenate([pts, candidates])).vertices] = True
            stays = stays[hull_owned]
            doomed[hull_owned[stays]] = True
            violated[hull_owned[~stays]] = True
            hits += int((~stays).sum())
        return np.flatnonzero(violated & ~doomed & owned), hits

    def _circumradii(self, tets) -> np.ndarray:
        """Circumradius of the selected tets; ``inf`` where a sliver has
        no finite circumcenter."""
        d = self.vertices[tets] - self.points[self._tets[tets, 0]]
        radii = np.sqrt(np.einsum("ij,ij->i", d, d))
        radii[~np.isfinite(radii)] = np.inf
        return radii

    def _hull_faces(self) -> np.ndarray:
        """Vertex triples ``(B, 3)`` of the triangulation's hull facets."""
        bt, bk = np.nonzero(self._neighbors == -1)
        return self._tets[bt[:, None], _TET_FACES[bk]]

    def star_spheres(self, sites: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Circumspheres ``(centers, radii)`` of the tets incident to
        ``sites``.  A site's cell is the convex hull of its star's
        circumcenters, so whatever points are added to the triangulation,
        each of its Delaunay neighbors afterwards lies in one of these
        balls.  One radius is ``inf`` when a site is on the hull."""
        wanted = np.zeros(len(self.points), dtype=bool)
        wanted[sites] = True
        star = wanted[self._tets].any(axis=1)
        centers = self.vertices[star]
        radii = self._circumradii(star)
        if wanted[self._hull_faces()].any():
            centers = np.concatenate([centers, self.points[sites[:1]]])
            radii = np.append(radii, np.inf)
        return centers, radii

    # ------------------------------------------------------------------
    @property
    def mesh(self):
        """The underlying triangulation as a :class:`DelaunayMesh`."""
        from .delaunay import DelaunayMesh

        return DelaunayMesh(self.points, self._tets, self._neighbors)
