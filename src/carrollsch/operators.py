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

Each operator expression has one home: `_h` and `_f` take the field, its
potential and its stencils.  `apply_H` and `apply_F` take the stencils and
call them once; `commutator_residuals` runs all its cases in one pass per
probe, which takes each stencil of each field once and shares it between
every case that reads it (16 stencils per probe for the CLI's three cases,
against 30 for three separate compositions), and which keeps each field
only until its last reader.

Boundary rings polluted by the stencils are excluded from all norms by
`numerics.interior`; the `MARGIN` constant below is wide enough for the
doubly-applied operators.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants, NATURAL
from .numerics import TimeGrid, _scaled, complex_samples, deriv_uniform, interior, unit_phase
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


def _check_stencil_grid(x_grid: TimeGrid, t_grid: TimeGrid) -> None:
    if x_grid.n < 16 or t_grid.n < 16:
        raise ValueError("grid too coarse for 4th-order stencils (need n >= 16)")


def _h(u, V, u_xx, u_t, consts: PhysicalConstants) -> np.ndarray:
    """H u from u, its potential V and its stencils u_xx and u_t."""
    hbar, m = consts.hbar, consts.m
    return -(hbar**2) / (2 * m) * u_xx + V * u - 1j * hbar * u_t


def _f(u, V, u_x, u_t, dt: float, consts: PhysicalConstants) -> np.ndarray:
    """F u from u, its potential V and its stencils u_x and u_t; a(a(u)),
    a(v) = -i hbar v_t - V v, is applied literally twice and scaled by
    1/(2 m c^2) through `numerics._scaled`, bit for bit the division."""
    hbar, m, c = consts.hbar, consts.m, consts.c
    au = -1j * hbar * u_t - V * u
    aau = _scaled(-1j * hbar * deriv_uniform(au, dt, 1, axis=1) - V * au, 2 * m * c**2)
    del au  # before out exists: one field fewer at the shared pass's peak
    out = u_x * (c * 1j * hbar)
    out -= aau
    return out


def apply_H(
    psi: Field2D, v_sch: PotentialSpec, constants: PhysicalConstants = NATURAL
) -> Field2D:
    """H psi = -(hbar^2/2m) psi_xx + V_sch psi - i hbar psi_t."""
    _check_stencil_grid(psi.x_grid, psi.t_grid)
    u = psi.values
    V = v_sch.v_grid(psi.x_grid.times, psi.t_grid.times)
    u_xx = deriv_uniform(u, psi.x_grid.dt, 2, axis=0)
    u_t = deriv_uniform(u, psi.t_grid.dt, 1, axis=1)
    return Field2D(psi.x_grid, psi.t_grid, _h(u, V, u_xx, u_t, constants))


def apply_F(
    psi: Field2D, v_car: PotentialSpec, constants: PhysicalConstants = NATURAL
) -> Field2D:
    """F psi = c (i hbar psi_x) - (E~ - V_car)^2 psi / (2 m c^2).

    (E~ - V_car) psi = -i hbar psi_t - V_car psi, applied literally twice.
    """
    _check_stencil_grid(psi.x_grid, psi.t_grid)
    u, dt = psi.values, psi.t_grid.dt
    V = v_car.v_grid(psi.x_grid.times, psi.t_grid.times)
    u_x = deriv_uniform(u, psi.x_grid.dt, 1, axis=0)
    u_t = deriv_uniform(u, dt, 1, axis=1)
    return Field2D(psi.x_grid, psi.t_grid, _f(u, V, u_x, u_t, dt, constants))


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
        vals = vals * unit_phase(kx * X + kt * T)
        probes.append(Field2D(x_grid, t_grid, vals))
    return probes


def _interior_norm(values: np.ndarray, dx: float, dt: float) -> float:
    return float(np.sqrt(dx * dt * np.sum(np.abs(interior(values, MARGIN)) ** 2)))


def commutator_residuals(
    cases: list[tuple[PotentialSpec, PotentialSpec]],
    probes: list[Field2D],
    constants: PhysicalConstants = NATURAL,
) -> list[float]:
    """commutator_residual of every (v_sch, v_car) case, in one shared pass.

    Cases that hold equal potentials share one V and the inner field it
    makes.  Per probe each stencil of each field is taken once: the
    stencils of psi feed every inner F psi and H psi, those of an inner F psi
    every H(F psi), those of an inner H psi every F(H psi).  A field is
    dropped after its last reader; H(F psi) waits as its case's difference
    until F(H psi) is subtracted from it.  Every expression is that of
    apply_H and apply_F, so each residual has the bits of their composition.
    All probes must lie on one grid; a grid of at most 2 MARGIN samples on an
    axis raises "grid has no interior" at the first probe's norm, before any
    stencil is taken.  A non-finite inner F psi or difference
    raises, as a non-finite Field2D would, so a NaN residual cannot pass as
    max(0, nan) = 0.
    """
    if not probes:
        raise ValueError("empty probe set")
    x_grid, t_grid = probes[0].x_grid, probes[0].t_grid
    for psi in probes[1:]:
        if (psi.x_grid, psi.t_grid) != (x_grid, t_grid):
            raise ValueError(
                f"probes on different grids: {(psi.x_grid, psi.t_grid)} "
                f"differs from {(x_grid, t_grid)} of the first probe"
            )
    dx, dt = x_grid.dt, t_grid.dt

    V = {v: v.v_grid(x_grid.times, t_grid.times) for v in dict.fromkeys(v for pair in cases for v in pair)}
    sch = list(dict.fromkeys(vs for vs, _ in cases))
    car = list(dict.fromkeys(vc for _, vc in cases))

    worst = [0.0] * len(cases)
    for psi in probes:
        u = psi.values
        norm = _interior_norm(u, dx, dt)
        u_x = deriv_uniform(u, dx, 1, axis=0)
        u_t = deriv_uniform(u, dt, 1, axis=1)
        # F psi first, and checked: the composition rejected a non-finite
        # F psi before H could overflow hbar**2, and so does this pass
        f_u = {c: complex_samples(_f(u, V[c], u_x, u_t, dt, constants), u.shape) for c in car}
        del u_x
        u_xx = deriv_uniform(u, dx, 2, axis=0)
        h_u = {s: _h(u, V[s], u_xx, u_t, constants) for s in sch}
        del u_xx, u_t

        diffs = {}
        for c in car:
            w = f_u.pop(c)
            w_xx = deriv_uniform(w, dx, 2, axis=0)
            w_t = deriv_uniform(w, dt, 1, axis=1)
            for k, (s, kc) in enumerate(cases):
                if kc == c:
                    diffs[k] = _h(w, V[s], w_xx, w_t, constants)
            del w, w_xx, w_t

        for s in sch:
            w = h_u.pop(s)
            w_x = deriv_uniform(w, dx, 1, axis=0)
            w_t = deriv_uniform(w, dt, 1, axis=1)
            for k, (ks, c) in enumerate(cases):
                if ks == s:
                    diff = diffs.pop(k)
                    diff -= _f(w, V[c], w_x, w_t, dt, constants)
                    complex_samples(diff, u.shape)  # raises on a non-finite entry
                    worst[k] = max(worst[k], _interior_norm(diff, dx, dt) / norm)
                    del diff
            del w, w_x, w_t
    return worst


def commutator_residual(
    v_sch: PotentialSpec,
    v_car: PotentialSpec,
    probes: list[Field2D],
    constants: PhysicalConstants = NATURAL,
) -> float:
    """max over probes of ||(HF - FH) psi|| / ||psi|| on interior points."""
    return commutator_residuals([(v_sch, v_car)], probes, constants)[0]
