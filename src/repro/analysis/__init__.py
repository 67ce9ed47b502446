"""Postprocessing analysis — the cosmology-tools plugin functionality.

Mirrors the four functions of the paper's ParaView plugin (Figure 7):
parallel reading of tess output (via :mod:`repro.core.tess_io`), threshold
filtering, connected-component labeling, and Minkowski functionals — plus
the void catalog built on top of them, summary statistics (volume and
density-contrast histograms with skewness/kurtosis), a friends-of-friends
halo finder, DTFE density fields, temporal feature tracking, and the
query operations the serve tier answers.
"""

from .components import (
    ArrayUnionFind,
    ComponentLabeling,
    connected_components,
    connected_components_at_root,
)
from .dtfe import dtfe_density, dtfe_grid, voronoi_density
from .halos import Halo, HaloCatalog, fof_halos, fof_halos_distributed
from .minkowski import MinkowskiFunctionals, minkowski_functionals
from .statistics import (
    Histogram,
    cell_density,
    density_contrast,
    histogram,
    volume_range_concentration,
)
from .tracking import (
    FeatureTreeBuilder,
    MergerTree,
    overlap_matrix,
    track_components,
)
from .query import (
    QUERY_OPS,
    QueryError,
    query_components,
    query_halos,
    query_minkowski,
    query_profile,
    query_voids,
    region_bounds,
    run_query,
)
from .voids import (
    Void,
    VoidCatalog,
    find_voids,
    find_voids_distributed,
    volume_threshold_for_fraction,
)
from .render import ascii_render, slice_field, write_pgm

__all__ = [
    "ArrayUnionFind",
    "ComponentLabeling",
    "connected_components",
    "connected_components_at_root",
    "dtfe_density",
    "dtfe_grid",
    "voronoi_density",
    "Halo",
    "HaloCatalog",
    "fof_halos",
    "fof_halos_distributed",
    "MinkowskiFunctionals",
    "minkowski_functionals",
    "Histogram",
    "cell_density",
    "density_contrast",
    "histogram",
    "volume_range_concentration",
    "FeatureTreeBuilder",
    "MergerTree",
    "overlap_matrix",
    "track_components",
    "QUERY_OPS",
    "QueryError",
    "query_components",
    "query_halos",
    "query_minkowski",
    "query_profile",
    "query_voids",
    "region_bounds",
    "run_query",
    "Void",
    "VoidCatalog",
    "find_voids",
    "find_voids_distributed",
    "volume_threshold_for_fraction",
    "ascii_render",
    "slice_field",
    "write_pgm",
]
