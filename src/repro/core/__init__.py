"""tess — the paper's contribution: a parallel Voronoi tessellation library.

Standalone mode::

    from repro.core import tessellate
    tess = tessellate(points, domain, nblocks=8, ghost=4.0)

In situ mode (inside an SPMD region, with distributed particles)::

    block, timings, nbytes = tessellate_distributed(
        comm, decomposition, positions, ids, ghost=4.0, output_path="t.tess")
"""

from .accuracy import MatchResult, match_tessellations
from .culling import early_cull_mask, sphere_diameter_for_volume
from .data_model import BlockSizeReport, VoronoiBlock
from .ghost import exchange_ghost_particles, exchange_ghost_particles_multi
from .tess_io import read_tessellation, write_tessellation
from .tessellate import (
    DistributedTessellation,
    Tessellation,
    tessellate,
    tessellate_distributed,
)
from .timing import PhaseTimer, TessTimings

__all__ = [
    "MatchResult",
    "match_tessellations",
    "early_cull_mask",
    "sphere_diameter_for_volume",
    "BlockSizeReport",
    "VoronoiBlock",
    "exchange_ghost_particles",
    "exchange_ghost_particles_multi",
    "read_tessellation",
    "write_tessellation",
    "Tessellation",
    "DistributedTessellation",
    "tessellate",
    "tessellate_distributed",
    "PhaseTimer",
    "TessTimings",
]
