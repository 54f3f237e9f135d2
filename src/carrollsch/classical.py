"""Ultra-boost kinematics and the classical (Hamilton-Jacobi) limit.

The ultra-boost is the analytic continuation of a Lorentz boost past |beta|=1
on the branch gamma = i/sqrt(beta^2 - 1); it exchanges energy and momentum up
to factors of -i c and maps the Schrodinger dispersion onto the Carroll one,
c p0 = E0^2/(2 m c^2), which `carroll_relation_residual` states.

Rays follow the characteristic system in the x-gauge (lambda = -x/c, so
dot x = -c identically):

    dt/dx = -q / (m c^3),      dq/dx = d_x V_car(x, t(x)),

with q = p_t + V_car and p_x = q^2/(2 m c^3) by construction: the system
a' = -b/d, b' = slope of `numerics.rk4`, with (a, b) = (t, q), d = m c^3 and
the slope d_x V(x, t).  `trace_ray` takes its classical RK4 steps there.
For a V of x alone (`in_t` False) or of t alone (`f_t` given, so d_x V = 0)
the gradient does not read t: it is sampled once on each of
`numerics.rk4_abscissae`'s stage arrays, up front, and `numerics.rk4_sums`,
the loop's array twin, takes the steps as two running sums, bit-identical
to it.  Sign convention: p_x = -d_x S throughout, opposite to the usual
Schrodinger habit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants, NATURAL
from .numerics import cumulative_integral, rk4, rk4_abscissae, rk4_samples, rk4_sums
from .potentials import PotentialSpec


@dataclass(frozen=True)
class TwoMomentum:
    """Energy-momentum two-vector; complex-capable for the boosted branch."""

    E: complex
    P: complex

    def invariant(self, constants: PhysicalConstants = NATURAL) -> complex:
        return (self.E / constants.c) ** 2 - self.P**2


@dataclass(frozen=True)
class RaySolution:
    x: np.ndarray
    t: np.ndarray
    q: np.ndarray
    p_x: np.ndarray


def ultra_boost(p: TwoMomentum, constants: PhysicalConstants = NATURAL) -> TwoMomentum:
    """E' = -i c P, P' = -i E / c; preserves (E/c)^2 - P^2 exactly."""
    c = constants.c
    return TwoMomentum(E=-1j * c * p.P, P=-1j * p.E / c)


def ultra_boost_inverse(p: TwoMomentum, constants: PhysicalConstants = NATURAL) -> TwoMomentum:
    """Inverse of the ultra-boost: E = i c P', P = i E' / c."""
    c = constants.c
    return TwoMomentum(E=1j * c * p.P, P=1j * p.E / c)


def carroll_relation_residual(p: TwoMomentum, constants: PhysicalConstants = NATURAL) -> complex:
    """E^2/(2 m c^3) - i P; zero exactly when the ultra-boosted pair sits on
    the nonrelativistic mass shell (the mass redefinition m -> i m picture)."""
    return p.E**2 / (2 * constants.mc3) - 1j * p.P


def trace_ray(
    v_car: PotentialSpec,
    x0: float,
    t0: float,
    q0: float,
    x_end: float,
    n_steps: int,
    constants: PhysicalConstants = NATURAL,
) -> RaySolution:
    """RK4 integration of the characteristic system from x0 to x_end.

    q0 is the combined momentum p_t(x0) + V_car(x0, t0); p_x = q^2/(2 m c^3)
    is recorded at every sample.  A V(x, t) steps through `numerics.rk4`
    with d = m c^3 and the slope d_x V at each stage's (x, t).  The gradient
    of a V of x alone or of t alone does not read t, so it is sampled up
    front, one call per stage array, and `numerics.rk4_sums` takes the same
    steps as two running sums.  Either way a non-finite gradient raises
    ValueError naming the first such x the integration reaches, and
    n_steps < 1 raises ValueError (`numerics.rk4_abscissae`).
    """
    mc3 = constants.mc3
    h, xs, stages = rk4_abscissae(x0, x_end, n_steps)
    fault = "potential gradient non-finite at x = {x}"

    def slope(x: float, t: float) -> float:
        dv = v_car.dvdx_at(x, t)
        if not math.isfinite(dv):
            raise ValueError(fault.format(x=x))
        return dv

    if not v_car.in_t or v_car.f_t is not None:
        # the gradient does not read t (for a V of t alone it is 0): sampled up front
        dvs = rk4_samples(lambda u: v_car.dvdx_at(u, t0), stages, fault)
        t, q = rk4_sums(dvs, t0, q0, h, mc3)
    else:
        t, q = rk4(slope, stages, float(t0), float(q0), h, mc3)
    return RaySolution(x=xs, t=t, q=q, p_x=q**2 / (2 * mc3))


def picard_iterate(
    v_car: PotentialSpec,
    x0: float,
    t0: float,
    q0: float,
    x_end: float,
    n_iter: int,
    n_samples: int = 512,
    constants: PhysicalConstants = NATURAL,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Fixed-point quadrature iteration for t(x).

    t0-iterate is the free straight line; each sweep recomputes
    q(x) = q0 + int d_x V(xi, t(xi)) dxi and t(x) = t0 - (1/mc^3) int q by
    composite trapezoid.  For space-only potentials the first sweep is
    already exact up to quadrature error.  Returns (x_samples, iterates)
    with iterates[0] the free line.
    """
    mc3 = constants.mc3
    xs = np.linspace(x0, x_end, n_samples + 1)
    iterates = [t0 - q0 * (xs - x0) / mc3]
    for _ in range(n_iter):
        dv = v_car.dvdx_at(xs, iterates[-1])
        q = q0 + cumulative_integral(dv, xs, x0)
        t_new = t0 - cumulative_integral(q, xs, x0) / mc3
        iterates.append(t_new)
    return xs, iterates
