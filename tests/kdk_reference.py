"""The two-force KDK step that the carried-force step replaced.

A kick-drift-kick step needs the force at its opening positions and at its
drifted ones.  The opening force is the previous step's closing force, so
:func:`repro.hacc.integrator.kdk_step` takes it from its caller; this step
recomputes both every time, and stays as the oracle
``tests/test_hacc_carried_force.py`` holds the simulation to.  Its closing
kick is evaluated at ``stepper.a_at(k + 1)``, as the carried step's is.
"""

from __future__ import annotations

import numpy as np

from repro.hacc import (
    LCDM,
    ParticleSet,
    SimulationConfig,
    TimeStepper,
    compute_accelerations,
    zeldovich_ics,
)

__all__ = ["two_force_kdk_step", "run_two_force"]


def _f(cosmo: LCDM, a: float) -> float:
    return 1.0 / (a * float(cosmo.e_of_a(a)))


def two_force_kdk_step(
    particles: ParticleSet,
    ng: int,
    cosmo: LCDM,
    stepper: TimeStepper,
    k: int,
    deconvolve: bool = False,
) -> None:
    """Advance ``particles`` (all of them, serially) from step ``k`` to
    ``k + 1``, computing the opening and the closing force."""
    a, da, a_new = stepper.a_at(k), stepper.da, stepper.a_at(k + 1)
    a_mid = a + 0.5 * da
    g = compute_accelerations(particles.positions, ng, cosmo, a, deconvolve)
    particles.velocities += 0.5 * da * _f(cosmo, a) * g
    particles.positions += da * _f(cosmo, a_mid) / a_mid**2 * particles.velocities
    np.mod(particles.positions, ng, out=particles.positions)
    g = compute_accelerations(particles.positions, ng, cosmo, a_new, deconvolve)
    particles.velocities += 0.5 * da * _f(cosmo, a_new) * g


def run_two_force(config: SimulationConfig) -> ParticleSet:
    """The whole run of ``config`` on one process, two forces a step."""
    particles = zeldovich_ics(
        config.np_side,
        config.cosmo,
        config.a_init,
        box=config.box_size,
        ng=config.mesh_size,
        seed=config.seed,
        transfer=config.transfer,
    )
    stepper = TimeStepper(config.a_init, config.a_final, config.nsteps)
    for k in range(config.nsteps):
        two_force_kdk_step(
            particles, config.mesh_size, config.cosmo, stepper, k,
            config.deconvolve,
        )
    return particles
