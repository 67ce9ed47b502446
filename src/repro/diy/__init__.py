"""DIY-style data-parallel building blocks.

This subpackage reimplements the slice of DIY (Peterka et al., LDAV 2011)
that the paper's tess library depends on: regular block decomposition with
26-connectivity and periodic boundary neighbors, an MPI-like communicator
(here an SPMD runtime of forked rank processes), a neighborhood
enqueue/exchange pattern with per-link periodic coordinate transforms and
near-point targeting, and a single-file blocked parallel writer/reader.
"""

from .bounds import Bounds, minimum_image, periodic_translation, wrap_positions
from .comm import CommStats, Communicator, ParallelError, run_parallel
from .decomposition import Block, Decomposition, NeighborLink, factor_into_grid
from .exchange import Assignment, NeighborExchanger
from .mpi_io import BlockFileReader, pack_arrays, unpack_arrays, write_blocks
from .process_backend import RankDiedError, shutdown_pool
from .transport import CommError

__all__ = [
    "Bounds",
    "minimum_image",
    "periodic_translation",
    "wrap_positions",
    "CommStats",
    "Communicator",
    "ParallelError",
    "run_parallel",
    "Block",
    "Decomposition",
    "NeighborLink",
    "factor_into_grid",
    "Assignment",
    "NeighborExchanger",
    "BlockFileReader",
    "pack_arrays",
    "unpack_arrays",
    "write_blocks",
    "RankDiedError",
    "CommError",
    "shutdown_pool",
]
