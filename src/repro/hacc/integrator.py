"""Symplectic kick-drift-kick time stepping in the expanding universe.

The equations of motion in supercomoving variables (positions ``x`` in grid
units, momenta ``p = a^2 dx/dt * t0/r0`` with ``t0 = 1/H0``) are

    dx/da = f(a) p / a^2 ,      dp/da = -f(a) grad(phi) ,
    f(a)  = 1 / (a E(a)) ,      laplacian(phi) = (3/2) (Omega_m / a) delta ,

the standard particle-mesh formulation (Kravtsov's PM notes; HACC's
long-range solver integrates the same system).  One :func:`kdk_step`
advances the particles from ``a_at(k)`` to ``a_at(k + 1)`` by half-kick /
full-drift / half-kick with one force per step: the closing kick's force
opens the next step, carried by the caller as HACC carries its PM force.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cosmology import LCDM
from .mesh import EXACT_CELL_MASS, CICStencil, density_contrast, wrap
from .particles import ParticleSet
from .poisson import accelerations_from_delta

__all__ = ["compute_accelerations", "kdk_step", "TimeStepper"]


def compute_accelerations(
    positions: np.ndarray,
    ng: int,
    cosmo: LCDM,
    a: float,
    deconvolve: bool = False,
    density_callback: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """PM accelerations ``-grad(phi)`` at particle positions (grid units).

    ``density_callback``, when given, receives the locally deposited mass
    mesh and must return the *global* mass mesh — this is the hook the
    parallel simulation uses to allreduce per-rank deposits.
    """
    stencil = CICStencil(positions, ng)
    mass = stencil.deposit()
    if density_callback is not None:
        mass = density_callback(mass)
    if mass.max() >= EXACT_CELL_MASS:  # partial sums never exceed the max
        raise OverflowError(
            f"cell mass {mass.max():g} >= {EXACT_CELL_MASS:g}, the exact-deposit bound"
        )
    delta = density_contrast(mass)
    g_mesh = accelerations_from_delta(delta, 1.5 * cosmo.omega_m / a, deconvolve)
    return stencil.gather(g_mesh)


def _f(cosmo: LCDM, a: float) -> float:
    return 1.0 / (a * float(cosmo.e_of_a(a)))


def kdk_step(
    particles: ParticleSet,
    ng: int,
    cosmo: LCDM,
    stepper: TimeStepper,
    k: int,
    force: np.ndarray | None,
    deconvolve: bool = False,
    density_callback: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Advance ``particles`` in place from step ``k`` to ``k + 1`` (KDK).

    ``force`` is the acceleration at the current positions and
    ``stepper.a_at(k)`` (the previous step's return value), or ``None`` to
    compute it.  Returns the closing force, at the new positions (wrapped
    into ``[0, ng)``) and ``stepper.a_at(k + 1)``.
    """
    a, da, a_new = stepper.a_at(k), stepper.da, stepper.a_at(k + 1)
    a_mid = a + 0.5 * da
    if force is None:
        force = compute_accelerations(
            particles.positions, ng, cosmo, a, deconvolve, density_callback
        )
    particles.velocities += 0.5 * da * _f(cosmo, a) * force
    particles.positions += da * _f(cosmo, a_mid) / a_mid**2 * particles.velocities
    wrap(particles.positions, ng)
    force = compute_accelerations(
        particles.positions, ng, cosmo, a_new, deconvolve, density_callback
    )
    particles.velocities += 0.5 * da * _f(cosmo, a_new) * force
    return force


@dataclass
class TimeStepper:
    """Uniform-in-``a`` stepping schedule from ``a_init`` to ``a_final``.

    HACC steps the global solver uniformly in the scale factor; the paper's
    runs quote step counts (25-100), so the schedule is defined by
    ``nsteps`` rather than an accuracy target.
    """

    a_init: float
    a_final: float
    nsteps: int

    def __post_init__(self) -> None:
        if not 0 < self.a_init < self.a_final <= 1.0 + 1e-12:
            raise ValueError(
                f"need 0 < a_init < a_final <= 1, got {self.a_init}, {self.a_final}"
            )
        if self.nsteps < 1:
            raise ValueError(f"nsteps must be >= 1, got {self.nsteps}")

    @property
    def da(self) -> float:
        """Scale-factor increment per step."""
        return (self.a_final - self.a_init) / self.nsteps

    def a_at(self, step: int) -> float:
        """Scale factor after ``step`` completed steps."""
        if not 0 <= step <= self.nsteps:
            raise ValueError(f"step {step} outside [0, {self.nsteps}]")
        return self.a_init + step * self.da
