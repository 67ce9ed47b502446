"""repro — reproduction of *Meshing the Universe* (Peterka et al., SC 2012).

A production-quality Python implementation of the paper's full stack:

* :mod:`repro.diy` — data-parallel substrate (block decomposition, process
  SPMD communicator, neighborhood exchange, blocked parallel I/O);
* :mod:`repro.hacc` — HACC-style particle-mesh N-body cosmology simulation;
* :mod:`repro.geometry` — computational-geometry kernels (the
  Delaunay-direct Voronoi engine);
* :mod:`repro.core` — **tess**, the paper's contribution: parallel in situ
  Voronoi tessellation;
* :mod:`repro.analysis` — postprocessing: thresholding, connected components,
  Minkowski functionals, void and halo catalogs, summary statistics;
* :mod:`repro.insitu` — the in situ cosmology-tools framework coupling
  simulation and analysis.

Quickstart::

    import numpy as np
    from repro import Bounds, tessellate

    rng = np.random.default_rng(1)
    points = rng.uniform(0.0, 32.0, size=(2000, 3))
    tess = tessellate(points, Bounds.cube(32.0), nblocks=4, ghost=4.0)
    print(tess.num_cells, tess.total_volume())
"""

from __future__ import annotations

__version__ = "1.0.0"

from .diy import Bounds, run_parallel

__all__ = ["Bounds", "run_parallel", "__version__"]


def __getattr__(name: str):  # lazy public API to keep import light
    if name in {"tessellate", "Tessellation"}:
        from . import core

        return getattr(core, name)
    if name in {"HACCSimulation", "SimulationConfig"}:
        from . import hacc

        return getattr(hacc, name)
    if name in {"CosmologyToolsFramework", "FrameworkConfig"}:
        from . import insitu

        return getattr(insitu, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
