"""The oracle that shares nothing with production.

:func:`clip_reference` tessellates a periodic point set as one block:
the points, plus their 26 periodic images within ``ghost`` of the box
built with plain NumPy offsets, through the clip-only
:func:`tessellate_block` (KD-tree + halfspace clipping,
:mod:`tests.clip_voronoi`).  No ``Decomposition``, no ghost exchange, no
qhull, no flat arrays — so agreement with :func:`repro.core.tessellate` at
any block count is evidence about production and not
about shared code.
"""

import itertools

import numpy as np

from repro.core import Tessellation
from repro.core.culling import sphere_diameter_for_volume
from repro.diy.bounds import Bounds

from .cell_reference import VoronoiCell, from_cells
from .clip_voronoi import VoronoiCellGeometry, voronoi_cells_clip

#: Relative volume tolerance between production and the clip reference on
#: cells both call complete.  The two evaluate different expressions
#: (bisector pyramids over Newell ridge areas from circumcenters, against
#: a divergence sum over the faces of a clipped polyhedron), each a few
#: hundred flops on O(box) coordinates, so they agree to ~1e-12; 1e-9 is
#: the bound the delaunay-vs-clip check has always used.
CLIP_VOL_RTOL = 1e-9


def clip_reference(
    points: np.ndarray, domain: Bounds, ghost: float, ids: np.ndarray | None = None
) -> Tessellation:
    """The complete cells of ``points`` in the periodic ``domain``."""
    pts = np.asarray(points, dtype=float)
    ids = np.arange(len(pts)) if ids is None else np.asarray(ids)
    lo, hi = domain.as_arrays()
    shifts = [
        np.array(o) * (hi - lo)
        for o in itertools.product((-1, 0, 1), repeat=3)
        if any(o)
    ]
    images = np.concatenate([pts + shift for shift in shifts])
    image_ids = np.tile(ids, len(shifts))
    near = np.all((images >= lo - ghost) & (images <= hi + ghost), axis=1)
    cells = tessellate_block(
        pts, ids, images[near], image_ids[near], container=domain.grown(ghost)
    )
    return Tessellation(
        domain=domain, blocks=[from_cells(0, domain, cells)]
    )


def passes_early_cull(max_vertex_separation: float, vmin: float | None) -> bool:
    """True if a cell with this diameter could still have volume >= vmin
    (the per-cell form of :func:`repro.core.culling.early_cull_mask`)."""
    if vmin is None or vmin <= 0.0:
        return True
    return max_vertex_separation >= sphere_diameter_for_volume(vmin)


def exact_cull_mask(
    volumes: np.ndarray, vmin: float | None = None, vmax: float | None = None
) -> np.ndarray:
    """Keep-mask for exact volumes within ``[vmin, vmax]``."""
    v = np.asarray(volumes, dtype=float)
    keep = np.ones(len(v), dtype=bool)
    if vmin is not None:
        keep &= v >= vmin
    if vmax is not None:
        keep &= v <= vmax
    return keep


def cell_from_geometry(
    geom: VoronoiCellGeometry,
    site_position: np.ndarray,
    local_to_global: np.ndarray,
    global_site_id: int,
) -> VoronoiCell:
    """Lift a clip cell to global ids.

    ``local_to_global`` maps indices into the block's local point array
    (owned + ghost) to global particle ids.
    """
    poly = geom.polyhedron
    if poly is None:
        raise ValueError("cannot build a VoronoiCell from a degenerate geometry")
    neighbor_ids = np.where(
        poly.face_ids >= 0,
        local_to_global[np.clip(poly.face_ids, 0, None)],
        poly.face_ids,
    ).astype(np.int64)
    return VoronoiCell(
        site_id=int(global_site_id),
        site=np.asarray(site_position, dtype=float),
        vertices=poly.vertices.copy(),
        faces=[np.asarray(f, dtype=np.int64) for f in poly.faces],
        neighbor_ids=neighbor_ids,
        volume=poly.volume(),
        area=poly.surface_area(),
    )


def tessellate_block(
    owned_positions: np.ndarray,
    owned_ids: np.ndarray,
    ghost_positions: np.ndarray,
    ghost_ids: np.ndarray,
    container: Bounds,
    vmin: float | None = None,
    vmax: float | None = None,
) -> list[VoronoiCell]:
    """Reference tessellation of one block, cell by cell (steps 2-3 of the
    pipeline) with :func:`~tests.clip_voronoi.voronoi_cells_clip`.

    Shares neither code nor library with the production path, which is
    what makes it the oracle the tests compare
    :func:`repro.core.tessellate` against.  ``container`` is the block's
    ghost-grown bounds; cells that touch it are incomplete and deleted.
    Returns complete cells within the volume thresholds, with *global*
    neighbor ids.
    """
    owned_positions = np.atleast_2d(np.asarray(owned_positions, dtype=float))
    n_owned = len(owned_positions)
    if n_owned == 0:
        return []
    all_points = (
        np.concatenate([owned_positions, np.atleast_2d(ghost_positions)])
        if len(ghost_positions)
        else owned_positions
    )
    local_to_global = np.concatenate(
        [np.asarray(owned_ids, dtype=np.int64), np.asarray(ghost_ids, dtype=np.int64)]
    )

    geoms = voronoi_cells_clip(all_points, container, sites=np.arange(n_owned))

    cells: list[VoronoiCell] = []
    for geom in geoms:
        if not geom.complete or geom.polyhedron is None:
            continue  # step 3b: delete incomplete cells
        # Step 3c: conservative early cull before the exact metrics.
        if not passes_early_cull(
            geom.polyhedron.max_pairwise_vertex_distance(), vmin
        ):
            continue
        cells.append(
            cell_from_geometry(
                geom,
                site_position=all_points[geom.site],
                local_to_global=local_to_global,
                global_site_id=int(local_to_global[geom.site]),
            )
        )

    # Step 3e: exact volume thresholds.
    if cells and (vmin is not None or vmax is not None):
        keep = exact_cull_mask(
            np.asarray([c.volume for c in cells]), vmin=vmin, vmax=vmax
        )
        cells = [c for c, k in zip(cells, keep) if k]
    return cells
