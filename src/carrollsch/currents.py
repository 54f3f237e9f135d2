"""Bridging the two continuity equations.

The Carroll continuity law turns into the Schrodinger one after two moves:
a unitary gauge factor strips the explicit potential from the density, and
the coordinate inversion (x, ct) -> (ct, x) swaps the roles of the axes.
Both moves are exact at the level of samples (unit-modulus phase, index
transpose), so the only numerics left is the derivative residual itself.
"""
from __future__ import annotations

import numpy as np

from .constants import PhysicalConstants, NATURAL
from .interaction import gauge_reduce
from .numerics import GridError, TimeGrid, deriv_uniform, interior
from .operators import MARGIN, Field2D
from .potentials import PotentialSpec


def schrodinger_density_current(
    psi: Field2D, constants: PhysicalConstants = NATURAL
) -> tuple[np.ndarray, np.ndarray]:
    """rho = |psi|^2 and J = (i hbar/2m)(psi dx psi* - psi* dx psi).

    J reduces to (hbar/m) Im(psi* dx psi); the x derivative is the 4th-order
    stencil shared with the operator module, so the continuity residual of an
    exact solution converges at the scheme order.
    """
    hbar, m = constants.hbar, constants.m
    rho = np.abs(psi.values)
    rho *= rho
    dpsi = deriv_uniform(psi.values, psi.x_grid.dt, 1, axis=0)
    np.multiply(np.conj(psi.values), dpsi, out=dpsi)
    j = hbar / m * dpsi.imag
    return rho, j


def coordinate_inversion(
    field: Field2D, constants: PhysicalConstants = NATURAL
) -> Field2D:
    """(x, ct) -> (ct, x): exact index transpose onto the rescaled grids.

    Requires a square grid with dx = c dt so the transposed grid is again
    uniform and no interpolation happens.  Involutive up to the c-rescaling.
    """
    c = constants.c
    xg, tg = field.x_grid, field.t_grid
    if xg.n != tg.n:
        raise GridError("coordinate inversion needs n_x = n_t")
    if abs(xg.dt - c * tg.dt) > 1e-12 * max(xg.dt, c * tg.dt):
        raise GridError("coordinate inversion needs dx = c dt")
    new_x = TimeGrid(c * tg.t_min, c * tg.t_max, tg.n)
    new_t = TimeGrid(xg.t_min / c, xg.t_max / c, xg.n)
    return Field2D(new_x, new_t, field.values.T.copy())


def continuity_equivalence(
    psi_car: Field2D,
    constants: PhysicalConstants = NATURAL,
    v_car: PotentialSpec | None = None,
    t0: float | None = None,
) -> float:
    """Schrodinger-form continuity residual of a transformed Carroll field.

    Strips v_car, when given, with `interaction.gauge_reduce`, applies the
    coordinate inversion, then evaluates max |d_t' rho + d_x' J| without the
    `MARGIN` edge ring, with rho, J from schrodinger_density_current.
    Converges to zero under refinement when psi_car solves the Carroll equation.
    """
    f = psi_car
    if v_car is not None:
        f = gauge_reduce(f, v_car, psi_car.t_grid.t_min if t0 is None else t0, constants)
    f = coordinate_inversion(f, constants)
    rho, j = schrodinger_density_current(f, constants)
    res = deriv_uniform(rho, f.t_grid.dt, 1, axis=1)
    res += deriv_uniform(j, f.x_grid.dt, 1, axis=0)
    return float(np.max(np.abs(interior(res, MARGIN))))
