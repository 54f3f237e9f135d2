"""Discrete constraint operators and their compatibility test.

The Schrodinger constraint H = p^2/2m + V_sch - E (p = -i hbar d/dx,
E = +i hbar d/dt) and the Carroll constraint F = c p~ - (E~ - V_car)^2 / 2mc^2
(p~ = +i hbar d/dx, E~ = -i hbar d/dt) are realized with 4th-order central
differences.  The squared operator is applied literally twice, so the cross
term i hbar (dV_car/dt) appears automatically.

With E~ = -i hbar d/dt the commuting time-profile pair is V_car = -V_sch + C:
then V_sch - i hbar d/dt = (E~ - V_car) + C, and the discrete H and F commute
exactly.  Their interior commutator residual is roundoff, which grows with n,
not truncation error.

Boundary rings polluted by the stencils are excluded from all norms by
`numerics.interior`; the `MARGIN` constant below is wide enough for the
doubly-applied operators.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants, NATURAL
from .numerics import TimeGrid, complex_samples, deriv_uniform, interior
from .potentials import PotentialSpec

#: boundary ring (per side, per axis) excluded from operator norms
MARGIN = 8


@dataclass(frozen=True)
class Field2D:
    x_grid: TimeGrid
    t_grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.x_grid.n, self.t_grid.n)
        object.__setattr__(self, "values", complex_samples(self.values, shape))


def apply_H(
    psi: Field2D, v_sch: PotentialSpec, constants: PhysicalConstants = NATURAL
) -> Field2D:
    """H psi = -(hbar^2/2m) psi_xx + V_sch psi - i hbar psi_t."""
    if psi.x_grid.n < 16 or psi.t_grid.n < 16:
        raise ValueError("grid too coarse for 4th-order stencils (need n >= 16)")
    hbar, m = constants.hbar, constants.m
    V = v_sch.v_xt(psi.x_grid.times, psi.t_grid.times)
    out = (
        -(hbar**2) / (2 * m) * deriv_uniform(psi.values, psi.x_grid.dt, 2, axis=0)
        + V * psi.values
        - 1j * hbar * deriv_uniform(psi.values, psi.t_grid.dt, 1, axis=1)
    )
    return Field2D(psi.x_grid, psi.t_grid, out)


def apply_F(
    psi: Field2D, v_car: PotentialSpec, constants: PhysicalConstants = NATURAL
) -> Field2D:
    """F psi = c (i hbar psi_x) - (E~ - V_car)^2 psi / (2 m c^2).

    (E~ - V_car) psi = -i hbar psi_t - V_car psi, applied literally twice.
    """
    if psi.x_grid.n < 16 or psi.t_grid.n < 16:
        raise ValueError("grid too coarse for 4th-order stencils (need n >= 16)")
    hbar, m, c = constants.hbar, constants.m, constants.c
    V = v_car.v_xt(psi.x_grid.times, psi.t_grid.times)

    def a(v: np.ndarray) -> np.ndarray:
        return -1j * hbar * deriv_uniform(v, psi.t_grid.dt, 1, axis=1) - V * v

    out = deriv_uniform(psi.values, psi.x_grid.dt, 1, axis=0)
    out *= c * 1j * hbar
    out -= a(a(psi.values)) / (2 * m * c**2)
    return Field2D(psi.x_grid, psi.t_grid, out)


def gaussian_probes(x_grid: TimeGrid, t_grid: TimeGrid) -> list[Field2D]:
    """Three deterministic Gaussian bumps, compactly supported inside the grid."""
    X, T = np.meshgrid(x_grid.times, t_grid.times, indexing="ij")
    lx = x_grid.t_max - x_grid.t_min
    lt = t_grid.t_max - t_grid.t_min
    cx, ct = x_grid.t_min + 0.5 * lx, t_grid.t_min + 0.5 * lt
    specs = [
        (cx, ct, 0.10 * lx, 0.10 * lt, 0.3, -0.2),
        (cx - 0.08 * lx, ct + 0.05 * lt, 0.07 * lx, 0.12 * lt, -0.5, 0.4),
        (cx + 0.06 * lx, ct - 0.09 * lt, 0.12 * lx, 0.08 * lt, 0.2, 0.7),
    ]
    probes = []
    for x0, t0, sx, st, kx, kt in specs:
        vals = np.exp(-((X - x0) ** 2) / (2 * sx**2) - ((T - t0) ** 2) / (2 * st**2))
        vals = vals * np.exp(1j * (kx * X + kt * T))
        probes.append(Field2D(x_grid, t_grid, vals))
    return probes


def _interior_norm(values: np.ndarray, dx: float, dt: float) -> float:
    return float(np.sqrt(dx * dt * np.sum(np.abs(interior(values, MARGIN)) ** 2)))


def commutator_residual(
    v_sch: PotentialSpec,
    v_car: PotentialSpec,
    probes: list[Field2D],
    constants: PhysicalConstants = NATURAL,
) -> float:
    """max over probes of ||(HF - FH) psi|| / ||psi|| on interior points."""
    if not probes:
        raise ValueError("empty probe set")
    worst = 0.0
    for psi in probes:
        hf = apply_H(apply_F(psi, v_car, constants), v_sch, constants)
        fh = apply_F(apply_H(psi, v_sch, constants), v_car, constants)
        dx, dt = psi.x_grid.dt, psi.t_grid.dt
        r = _interior_norm(hf.values - fh.values, dx, dt) / _interior_norm(
            psi.values, dx, dt
        )
        worst = max(worst, r)
    return worst
