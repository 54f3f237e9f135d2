"""Bridging the two continuity equations.

The Carroll continuity law turns into the Schrodinger one after two moves:
the gauge factor exp(-i Lambda), Lambda = (1/hbar) int V dt, strips the
potential, and the coordinate inversion (x, ct) -> (ct, x) swaps the axes.
rho is gauge invariant and d_x' Lambda = V / (hbar c) after the inversion,
so the gauge acts on the current in closed form: J[phi] = J[psi] - V rho / (m c).
The inversion is an index transpose and no integral is taken, so the only
numerics left is the derivative residual itself.
"""
from __future__ import annotations

import numpy as np

from .constants import PhysicalConstants, NATURAL
from .numerics import GridError, TimeGrid, deriv_uniform, interior, real_samples
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

    Inverts the coordinates and returns max |d_t' rho + d_x' J| off the `MARGIN`
    edge ring, rho and J from schrodinger_density_current, J - V rho / (m c)
    with V = v_car on psi_car's grid when given.  It converges to zero when
    psi_car solves the Carroll equation.  t0 is unused: the gauge anchor only
    shifts Lambda by a constant; the keyword stays for callers that pass it.
    """
    f = coordinate_inversion(psi_car, constants)
    rho, j = schrodinger_density_current(f, constants)
    if v_car is not None:
        V = real_samples(v_car.v_grid(psi_car.x_grid.times, psi_car.t_grid.times), "potential")
        j -= V.T * rho / (constants.m * constants.c)
    res = deriv_uniform(rho, f.t_grid.dt, 1, axis=1)
    res += deriv_uniform(j, f.x_grid.dt, 1, axis=0)
    return float(np.max(np.abs(interior(res, MARGIN))))
