"""Bridging the two continuity equations.

The Carroll continuity law turns into the Schrodinger one after two moves:
the gauge factor exp(-i Lambda), Lambda = (1/hbar) int V dt, strips the
potential, and the coordinate inversion (x, ct) -> (ct, x) swaps the axes.
rho is gauge invariant and d_x' Lambda = V / (hbar c) after the inversion,
so the gauge acts on the current in closed form: J[phi] = J[psi] - V rho / (m c).
The inversion only swaps the axes, onto the grids c t and x / c, which are
uniform for any grid, so the residual is taken in psi's own layout, d_t'
along psi's x axis and d_x' along its t axis, in row blocks of about
`numerics.BLOCK_BYTES`: rho on the block and its 2-row halo, J on the
block's own rows.  No inverted copy or full-field temporary is formed and no
integral is taken, so the only numerics left is the derivative residual itself.
"""
from __future__ import annotations

import numpy as np

from .constants import PhysicalConstants, NATURAL
from .numerics import TimeGrid, deriv_uniform, interior, real_samples, row_blocks
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
    return np.abs(psi.values) ** 2, _current(psi.values, psi.x_grid.dt, 0, constants)


def _current(values: np.ndarray, dx: float, axis: int, constants: PhysicalConstants) -> np.ndarray:
    """J = (hbar/m) Im(values* d values) with d along `axis` at spacing dx."""
    dpsi = deriv_uniform(values, dx, 1, axis=axis)
    return constants.hbar / constants.m * np.imag(np.conj(values) * dpsi)


def _inverted_grids(field: Field2D, constants: PhysicalConstants) -> tuple[TimeGrid, TimeGrid]:
    """The x and t grids of the inverted field, c t and x / c: uniform for any grid."""
    c = constants.c
    xg, tg = field.x_grid, field.t_grid
    return TimeGrid(c * tg.t_min, c * tg.t_max, tg.n), TimeGrid(xg.t_min / c, xg.t_max / c, xg.n)


def coordinate_inversion(
    field: Field2D, constants: PhysicalConstants = NATURAL
) -> Field2D:
    """(x, ct) -> (ct, x): exact index transpose onto the rescaled grids.

    The rescaled grids are uniform for any n_x, n_t and spacings, so no
    interpolation happens.  Involutive up to the c-rescaling.
    """
    new_x, new_t = _inverted_grids(field, constants)
    return Field2D(new_x, new_t, field.values.T.copy())


def continuity_equivalence(
    psi_car: Field2D,
    constants: PhysicalConstants = NATURAL,
    v_car: PotentialSpec | None = None,
    t0: float | None = None,
) -> float:
    """Schrodinger-form continuity residual of a transformed Carroll field.

    Returns max |d_t' rho + d_x' J| off the `MARGIN` edge ring of the inverted
    field, rho and J as schrodinger_density_current forms them, J - V rho / (m c)
    with V = v_car on psi_car's grid when given.  The inverted frame differs
    only by swapped axes, so the residual is taken in psi_car's layout: d_t'
    is the stencil along its x axis and J and d_x' J along its t axis, at the
    inverted grids' spacings, bit for bit the residual of the inverted copy.
    Interior rows go in blocks of about BLOCK_BYTES, each with a 2-row halo of
    rho, the reach of the central stencil; J, whose stencils run along the
    rows, is formed on the block's own rows.  It converges to zero when psi_car
    solves the Carroll equation.  t0 is unused: the gauge anchor only shifts
    Lambda by a constant; the keyword stays for callers that pass it.
    """
    new_x, new_t = _inverted_grids(psi_car, constants)
    n_x, n_t = psi_car.x_grid.n, psi_car.t_grid.n
    interior(psi_car.values, MARGIN)  # a grid without interior raises before any block
    x, t = psi_car.x_grid.times, psi_car.t_grid.times
    peaks = []
    # the order-1 stencil needs 7 rows: 3 of the block's own and the halo
    for rows in row_blocks(MARGIN, n_x - MARGIN, psi_car.values[0].nbytes, least=3):
        rho = np.abs(psi_car.values[rows.start - 2 : rows.stop + 2]) ** 2
        res = deriv_uniform(rho, new_t.dt, 1, axis=0)[2:-2]
        j = _current(psi_car.values[rows], new_x.dt, 1, constants)
        if v_car is not None:
            V = real_samples(v_car.v_grid(x[rows], t), "potential")
            j -= V * rho[2:-2] / (constants.m * constants.c)
        res += deriv_uniform(j, new_x.dt, 1, axis=1)
        peaks.append(np.max(np.abs(res[:, MARGIN : n_t - MARGIN])))
    return float(np.max(peaks))
