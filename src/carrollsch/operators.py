"""Discrete constraint operators and their compatibility test.

The Schrodinger constraint H = p^2/2m + V_sch - E (p = -i hbar d/dx,
E = +i hbar d/dt) and the Carroll constraint F = c p~ - (E~ - V_car)^2 / 2mc^2
(p~ = +i hbar d/dx, E~ = -i hbar d/dt) are realized with 4th-order central
differences.  The squared operator is applied literally twice, so the cross
term i hbar (dV_car/dt) appears automatically.

With A = E~ - V_car, W = V_sch + V_car, K = -(hbar^2/2m) d^2/dx^2 and
P = i hbar c d/dx, H = K + A + W and F = P - A^2/2mc^2.  Stencils along x
and along t commute exactly (tensor products), and d^2/dx^2 and d/dx commute
at every sample at least 4 from an edge, inside the `MARGIN` ring that all
norms exclude (`numerics.interior`).  There the commutator is the reduced
identity [H, F] = [V_sch, P] - ([K, A^2] + [W, A^2]) / 2mc^2, whose terms
are the paper's conditions: V_sch free of x, V_car free of x, W free of t.
`commutator_residuals` forms each bracket literally, skips [V_sch, P] or
[K, A^2] when V_sch or V_car has no x extent (there it is exactly zero), and
evaluates each distinct potential once and takes A^2 psi once per V_car:
11 stencils per probe for the CLI's three cases.  The matched time profiles
V_car = -V_sch + C make W the constant C, so their residual is roundoff.
H and F check no grid size: `deriv_uniform` checks its stencils' 7 samples.
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


def _a2(v, V, dt: float, hbar: float, v_t=None) -> np.ndarray:
    """A^2 v, A v = -i hbar v_t - V v applied literally twice; v_t is taken unless given."""
    av = -1j * hbar * (deriv_uniform(v, dt, 1, axis=1) if v_t is None else v_t) - V * v
    return -1j * hbar * deriv_uniform(av, dt, 1, axis=1) - V * av


def apply_H(
    psi: Field2D, v_sch: PotentialSpec, constants: PhysicalConstants = NATURAL
) -> Field2D:
    """H psi = -(hbar^2/2m) psi_xx + V_sch psi - i hbar psi_t."""
    hbar, m = constants.hbar, constants.m
    u = psi.values
    V = v_sch.v_grid(psi.x_grid.times, psi.t_grid.times)
    u_xx = deriv_uniform(u, psi.x_grid.dt, 2, axis=0)
    u_t = deriv_uniform(u, psi.t_grid.dt, 1, axis=1)
    return Field2D(psi.x_grid, psi.t_grid, -(hbar**2) / (2 * m) * u_xx + V * u - 1j * hbar * u_t)


def apply_F(
    psi: Field2D, v_car: PotentialSpec, constants: PhysicalConstants = NATURAL
) -> Field2D:
    """F psi = c (i hbar psi_x) - (E~ - V_car)^2 psi / (2 m c^2).

    (E~ - V_car) psi = -i hbar psi_t - V_car psi, applied literally twice and
    scaled by 1/(2 m c^2) through `numerics._scaled`, bit for bit the division.
    """
    hbar, m, c = constants.hbar, constants.m, constants.c
    u, dt = psi.values, psi.t_grid.dt
    V = v_car.v_grid(psi.x_grid.times, psi.t_grid.times)
    out = deriv_uniform(u, psi.x_grid.dt, 1, axis=0) * (c * 1j * hbar)
    out -= _scaled(_a2(u, V, dt, hbar), 2 * m * c**2)
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
    """commutator_residual of every (v_sch, v_car) case, from the reduced identity.

    Each case forms its brackets literally: [H, F] psi = [V_sch, P] psi +
    ([A^2, K] + [A^2, W]) psi / 2mc^2 with [A^2, W] psi = A^2 (W psi) -
    W A^2 psi, [A^2, K] psi = A^2 (K psi) - K A^2 psi and [V_sch, P] psi =
    V_sch P psi - P (V_sch psi); [A^2, K] only if V_car varies along x,
    [V_sch, P] only if V_sch does.  Each distinct (==) spec is evaluated once;
    per probe, psi_t is taken once and A^2 psi once per distinct V_car;
    nothing else is shared between cases.  All probes must lie on one grid; a
    grid of at most 2 MARGIN samples on an axis raises "grid has no interior"
    at the first probe's norm, before any stencil is taken.  A non-finite residual field raises, so a NaN residual
    cannot pass as max(0, nan) = 0.
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
    hbar, m, c = constants.hbar, constants.m, constants.c
    dx, dt = x_grid.dt, t_grid.dt

    def K(v):
        return -(hbar**2) / (2 * m) * deriv_uniform(v, dx, 2, axis=0)

    def P(v):
        return (c * 1j * hbar) * deriv_uniform(v, dx, 1, axis=0)

    # each distinct (==) spec on the grid, and each distinct V_car -> the cases of it
    values = {v: v.v_grid(x_grid.times, t_grid.times) for v in dict.fromkeys(v for case in cases for v in case)}
    groups = {}
    for k, (_, vc) in enumerate(cases):
        groups.setdefault(vc, []).append(k)
    worst = [0.0] * len(cases)
    for psi in probes:
        u = psi.values
        norm = _interior_norm(u, dx, dt)
        u_t = deriv_uniform(u, dt, 1, axis=1)
        for vc, group in groups.items():  # one A^2 psi alive at a time
            Vc = values[vc]
            a2u = _a2(u, Vc, dt, hbar, u_t)
            for k in group:
                Vs = values[cases[k][0]]
                W = Vs + Vc
                r = _a2(W * u, Vc, dt, hbar) - W * a2u
                # a grid of shape () or (1, n_t) has no x extent: its bracket is exactly zero
                if np.shape(Vc)[:1] not in ((), (1,)):
                    r += _a2(K(u), Vc, dt, hbar) - K(a2u)
                r = _scaled(r, 2 * m * c**2)
                if np.shape(Vs)[:1] not in ((), (1,)):
                    r += Vs * P(u) - P(Vs * u)
                complex_samples(r, u.shape)  # raises on a non-finite entry
                worst[k] = max(worst[k], _interior_norm(r, dx, dt) / norm)
    return worst


def commutator_residual(
    v_sch: PotentialSpec,
    v_car: PotentialSpec,
    probes: list[Field2D],
    constants: PhysicalConstants = NATURAL,
) -> float:
    """max over probes of ||(HF - FH) psi|| / ||psi|| on interior points."""
    return commutator_residuals([(v_sch, v_car)], probes, constants)[0]
