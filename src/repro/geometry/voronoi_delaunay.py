"""The local Voronoi engine: a flat-CSR diagram straight from Delaunay.

:class:`DelaunayVoronoi` is the one engine the tessellation pipeline runs
(the paper's "local cells" step, Fig. 5).  It derives the whole diagram
from one Delaunay triangulation by the compiled kernel of
:mod:`repro._native`, as pure ndarrays (tets, neighbors), so every later
stage is an array pass with no per-cell Python geometry:

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

All of this is one pass over the kernel's live triangulation
(:meth:`repro._native.Triangulation.cells`, span ``cells``); the tests
hold it to the same steps as NumPy passes on the same triangulation
(``tests/voronoi_cells_reference.py``).  Tets are int64 (downstream CSR
indices must not wrap at 2**31).
"""

from __future__ import annotations

import numpy as np

from .. import _native, observe
from ..diy.bounds import Bounds

__all__ = ["DelaunayVoronoi", "segment_gather"]

#: vertex triples of the face opposite each tet vertex (scipy convention)
_TET_FACES = np.array(
    [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]], dtype=np.int64
)

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
    """Re-solve the exactly singular tets (NaN/inf centers) one by one:
    the far-away center of a degenerate sliver is merged or culled by the
    coincidence tolerance later."""
    for i in np.flatnonzero(bad):
        a = pts[tets[i, 0]]
        rows = pts[tets[i, 1:]] - a
        rhs = 0.5 * np.einsum("ij,ij->i", rows, rows)
        centers[i] = np.linalg.lstsq(rows, rhs, rcond=None)[0] + a


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

    Without the compiled kernel the constructor raises
    :func:`repro._native.triangulate`'s ``RuntimeError``.
    """

    #: Delaunay tetrahedra behind the diagram.
    num_tets: int = 0
    #: ridges discarded as coincident-circumcenter slivers.
    degenerate_ridges_dropped: int = 0
    #: True when the diagram is empty: fewer than 5 sites, or no four of
    #: them affinely independent (set only by ``_init_degenerate``).
    used_fallback: bool = False
    #: exact duplicate sites the kernel left out of the triangulation;
    #: each shares its representative's cell (no ridges, zero volume).
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
        with observe.span("triangulate", cat="geometry", points=n):
            tri = _native.triangulate(pts)
        if tri is None:
            self._init_degenerate(n)
            return
        lo, hi = box.as_arrays()
        eps = _COINCIDENT_RTOL * float(np.linalg.norm(hi - lo))
        with observe.span("cells", cat="geometry", points=n), tri:
            self.__dict__.update(tri.cells(owned, lo, hi, eps * eps, _lstsq_fixup))
        self.num_tets = len(self._tets)

    # ------------------------------------------------------------------
    @property
    def degenerate(self) -> bool:
        """True when the input was degenerate (an empty diagram, rings of
        coincident circumcenters dropped, duplicate sites): cells there
        rest on the kernel's index-order tie-breaks, which the thin
        pass's float certificate and repair patch do not reproduce."""
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
