"""HACC-style cosmological N-body simulation substrate.

A particle-mesh Vlasov-Poisson solver in the spirit of HACC's long-range
component: ΛCDM background, σ8-normalized linear power spectrum, Zel'dovich
initial conditions, CIC mesh transfers, spectral Poisson solve, symplectic
KDK stepping, and a rank-parallel driver with particle migration and in
situ analysis hooks.
"""

from .checkpoint import (
    BYTES_PER_PARTICLE,
    CheckpointError,
    find_latest_checkpoint,
    read_checkpoint,
    restart_simulation,
    write_checkpoint,
)
from .cosmology import LCDM, PLANCK_LIKE
from .initial_conditions import zeldovich_ics
from .integrator import TimeStepper, compute_accelerations, kdk_step
from .mesh import cic_deposit, cic_gather, density_contrast
from .particles import ParticleSet
from .poisson import accelerations_from_delta
from .power_spectrum import (
    LinearPowerSpectrum,
    transfer_bbks,
    transfer_eisenstein_hu,
)
from .simulation import (
    HACCSimulation,
    RecoveryStats,
    SimulationConfig,
    StepRecord,
    run_simulation,
    run_with_recovery,
)

__all__ = [
    "LCDM",
    "PLANCK_LIKE",
    "BYTES_PER_PARTICLE",
    "read_checkpoint",
    "restart_simulation",
    "write_checkpoint",
    "zeldovich_ics",
    "TimeStepper",
    "compute_accelerations",
    "kdk_step",
    "cic_deposit",
    "cic_gather",
    "density_contrast",
    "ParticleSet",
    "accelerations_from_delta",
    "LinearPowerSpectrum",
    "transfer_bbks",
    "transfer_eisenstein_hu",
    "HACCSimulation",
    "SimulationConfig",
    "StepRecord",
    "run_simulation",
    "run_with_recovery",
    "RecoveryStats",
    "CheckpointError",
    "find_latest_checkpoint",
]
