"""The oracle that shares nothing with production.

:func:`clip_reference` tessellates a periodic point set as one block:
the points, plus their 26 periodic images within ``ghost`` of the box
built with plain NumPy offsets, through the clip-only
:func:`repro.core.tessellate_block` (KD-tree + halfspace clipping).  No
``Decomposition``, no ghost exchange, no qhull, no flat arrays — so
agreement with :func:`repro.core.tessellate` at any block count, static
or balanced, is evidence about production and not about shared code.
"""

import itertools

import numpy as np

from repro.core import Tessellation, VoronoiBlock, tessellate_block
from repro.diy.bounds import Bounds

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
        domain=domain, blocks=[VoronoiBlock.from_cells(0, domain, cells)]
    )
