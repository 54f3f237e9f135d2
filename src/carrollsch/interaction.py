"""Interacting problems: finite-time quantization, gauge reduction and the
spatial Dyson expansion.

A purely time-dependent potential on a window [0, T] with Dirichlet ends
quantizes the energy label to E_n = n pi hbar / T; the unit-modulus gauge
phase keeps the density (2/T) sin^2(n pi t / T) independent of the profile.

For general V(x,t) the gauge factor exp[(i/hbar) int V dtau] removes the
potential from the temporal operator at the price of an interaction momentum
F(x,t) = int_{t0}^t d_x V dtau, leaving Schrodinger-type evolution in x:

    i hbar c d_x phi = -(hbar^2 / 2 m c^2) d_t^2 phi + c F phi,

solved here by symmetric (Strang) split-step, with F taken at each station
the steps read: one running trapezoid in t, no interpolation along x.  The
perturbative split of the potential term into g(t) + eps * eta(x) admits a
first-order Dyson expansion in x.  Since eta enters as a scalar at each
station, the split-step reference is exp(-i theta) U0 phi0 with theta =
eps int eta / hbar c, the integral being the steps' own trapezoid, so a sweep
of couplings steps U0 phi0 once.  The Dyson error is exactly the first-order
truncation |exp(-i theta) - 1 + i theta| ||U0 phi0||.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .constants import PhysicalConstants, NATURAL
from .numerics import (
    TimeGrid, cumulative_integral, kinetic_multiplier, real_samples, spectral_multiply, unit_phase,
    cubic_hermite as CubicSpline,  # unused in the package: only perfbench/tracer.py reads it
)
from .operators import Field2D
from .potentials import PotentialSpec
from .propagator import Wavefunction


@dataclass(frozen=True)
class SpectrumResult:
    T: float
    levels: np.ndarray
    modes: list[Wavefunction]

    def density(self, n: int) -> np.ndarray:
        """(2/T) sin^2(n pi t / T): exactly potential-independent.

        Evaluated from the closed form rather than |mode|^2 so two spectra
        with different time profiles produce bit-identical arrays; |mode|^2
        agrees with this to rounding.
        """
        t = self.modes[0].grid.times
        return (2.0 / self.T) * np.sin(n * np.pi * t / self.T) ** 2


@dataclass(frozen=True)
class InteractionMomentum:
    """F(x,t) = int_{t0}^{t} d_x V(x,tau) dtau, one row per station x on t_grid,
    taken as stations are read; `interaction_momentum` names this class too.

    The running trapezoid of `cumulative_integral` makes F 2nd order in dt.
    An anchor t0 off t_grid raises GridError at the first row read.
    """

    v: PotentialSpec
    t0: float
    x_grid: TimeGrid
    t_grid: TimeGrid

    def _check_station(self, x: float) -> None:
        """Raise unless x is in x_grid's range or past it by the roundoff of a summed station."""
        xg = self.x_grid.times
        slack = 1e-9 * (xg[-1] - xg[0])
        if not (xg[0] - slack <= x <= xg[-1] + slack):
            raise ValueError(f"x = {x} outside the sampled range")

    def at_x(self, x: float) -> np.ndarray:
        """Row of F at station x, exact there: the running trapezoid of d_x V(x, .)."""
        self._check_station(x)
        return cumulative_integral(self.v.dv_dx(x, self.t_grid.times)[0], self.t_grid, self.t0)


interaction_momentum = InteractionMomentum


def quantized_modes(
    T: float,
    n_max: int,
    p0: float | None,
    v_time: PotentialSpec,
    constants: PhysicalConstants = NATURAL,
) -> SpectrumResult:
    """Dirichlet spectrum on [0, T]: E_n = n pi hbar / T, amplitude sqrt(2/T), 1024 samples.

    Mode n carries the unit-modulus gauge phase exp[(i/hbar) int_0^t V];
    its density (2/T) sin^2(n pi t/T) is therefore independent of v_time.
    p0 is unused: no level or mode depends on it.  The TimeGrid rejects T <= 0.
    """
    if n_max < 1:
        raise ValueError("need at least one level")
    hbar = constants.hbar
    grid = TimeGrid(0.0, T, 1024)
    t = grid.times
    levels = np.arange(1, n_max + 1) * np.pi * hbar / T
    I = cumulative_integral(real_samples(v_time.v_t(t), "time profile"), grid, 0.0)
    phase = unit_phase(1.0 / hbar * I)
    amp = np.sqrt(2.0 / T)
    modes = [
        Wavefunction(0.0, grid, amp * np.sin(n * np.pi * t / T) * phase)
        for n in range(1, n_max + 1)
    ]
    return SpectrumResult(T=float(T), levels=levels, modes=modes)


def gauge_reduce(
    psi: Field2D,
    v: PotentialSpec,
    t0: float,
    constants: PhysicalConstants = NATURAL,
) -> Field2D:
    """phi = exp[-(i/hbar) int_{t0}^{t} V(x,tau) dtau] psi.

    |phi| = |psi| exactly; phi obeys the reduced x-evolution with the
    interaction momentum in place of the potential.  The sign is fixed by
    requiring the potential to cancel from the squared time operator: a
    solution of the interacting equation factors as exp[+(i/hbar) int V]
    times a solution of the reduced one, so the reduction strips that phase.

    The phase integral is the running trapezoid, 2nd order in dt.
    """
    V = real_samples(v.v_xt(psi.x_grid.times, psi.t_grid.times), "potential")
    I = cumulative_integral(V, psi.t_grid, t0, axis=1)
    I *= -1.0 / constants.hbar
    return Field2D(psi.x_grid, psi.t_grid, unit_phase(I) * psi.values)


def _split_step(
    values: np.ndarray,
    grid: TimeGrid,
    x0: float,
    x_end: float,
    n_steps: int,
    momentum: Callable[[float], np.ndarray] | np.ndarray,
    constants: PhysicalConstants,
) -> np.ndarray:
    """Strang steps of size h = (x_end - x0) / n_steps from station x0, along the
    last axis of values; n_steps < 1 raises, the one check of a split-step count.

    The factor exp(-i h F / 2 hbar) of the real momentum row F = momentum(x)
    (a complex row raises) is applied at both cell edges around the exact
    kinetic multiplier exp(-i beta h w^2).  Each station's row is evaluated
    once: the end factor of one step is the start factor of the next.  A
    momentum given as a row, not a callable, holds at every station, so its
    factor is built once.
    """
    if n_steps < 1:
        raise ValueError(f"need at least one step, got n = {n_steps}")
    h = (x_end - x0) / n_steps
    kin = kinetic_multiplier(grid, constants.beta, h)
    coef = -0.5 * h / constants.hbar

    def half_phase(row: np.ndarray) -> np.ndarray:
        return unit_phase(coef * real_samples(row, "interaction momentum"))

    x = x0
    phase = half_phase(momentum(x) if callable(momentum) else momentum)
    for _ in range(n_steps):
        values = values * phase
        values = spectral_multiply(values, kin)
        x += h
        if callable(momentum):
            phase = half_phase(momentum(x))
        values = values * phase
    return values


def evolve_interacting(
    phi0: Wavefunction,
    F: InteractionMomentum | Callable[[float, np.ndarray], np.ndarray],
    x0: float,
    x_end: float,
    n_steps: int,
    constants: PhysicalConstants = NATURAL,
) -> Wavefunction:
    """Strang split-step for i hbar c d_x phi = -(hbar^2/2mc^2) d_t^2 phi + c F phi.

    Kinetic half of the stencil is the exact spectral multiplier; the
    potential phase exp(-i F dx / hbar) is applied in half steps at the cell
    edges.  Unitary for real F; second order in the step size.  An
    InteractionMomentum must be sampled on phi0's own t grid and cover x0 and
    x_end, else ValueError before the first step (x0 by the first row read).
    """
    if isinstance(F, InteractionMomentum):
        if F.t_grid != phi0.grid:
            raise ValueError(f"F is sampled on {F.t_grid}, phi0 on {phi0.grid}")
        F._check_station(x_end)
    t = phi0.grid.times

    def momentum(x: float) -> np.ndarray:
        return F.at_x(x) if isinstance(F, InteractionMomentum) else np.asarray(F(x, t))

    vals = _split_step(phi0.values, phi0.grid, x0, x_end, n_steps, momentum, constants)
    return replace(phi0, x=x_end, values=vals)


def dyson_first_order(
    phi0: Wavefunction,
    g: PotentialSpec,
    eta: Callable[[np.ndarray], np.ndarray],
    eps: float,
    x0: float,
    x_end: float,
    n_steps: int,
    constants: PhysicalConstants = NATURAL,
) -> Wavefunction:
    """First-order Dyson solution for the split potential term g(t) + eps eta(x).

    phi ~ U0 phi0 - (i eps / hbar c) int_{x0}^{x} U0(x,xi) eta(xi) U0(xi,x0)
    phi0 dxi.  Because eta(xi) is a scalar it commutes with U0 and the
    xi-integral collapses to (int eta) U0 phi0; the truncation error is O(eps^2).
    This is the one-coupling dyson_sweep, so U0 and int eta are the split
    step's own.
    """
    dy = dyson_sweep(phi0, g, eta, [eps], x0, x_end, n_steps, constants)[1]
    return replace(phi0, x=x_end, values=dy[0])


def dyson_sweep(
    phi0: Wavefunction,
    g: PotentialSpec,
    eta: Callable[[np.ndarray], np.ndarray],
    eps: Sequence[float],
    x0: float,
    x_end: float,
    n_steps: int,
    constants: PhysicalConstants = NATURAL,
) -> tuple[np.ndarray, np.ndarray]:
    """Split-step references and first-order Dyson solutions for every coupling.

    Returns two (len(eps), n_t) arrays, rows exp(-i theta_k) U0 phi0 and
    (1 - i theta_k) U0 phi0 with theta_k = eps[k] I / hbar c: U0 phi0 is
    evolve_interacting(phi0, g(t) / c, x0, x_end, n_steps).values and I the
    trapezoid of eta over its n_steps + 1 stations.  eta(x) is a scalar there, so
    the first row is the split step with F_k = (g(t) + eps[k] eta(x)) / c to roundoff.
    The split steps run first, so n_steps < 1 raises their ValueError.
    """
    g_t = real_samples(g.v_t(phi0.grid.times), "time profile g") / constants.c
    u0 = _split_step(phi0.values, phi0.grid, x0, x_end, n_steps, g_t, constants)
    xi = np.linspace(x0, x_end, n_steps + 1)
    I_eta = cumulative_integral(np.broadcast_to(real_samples(eta(xi), "perturbation eta"), xi.shape), xi, x0)[-1]
    theta = np.asarray(eps, dtype=float)[:, None] * I_eta / (constants.hbar * constants.c)
    return unit_phase(-theta) * u0, (1.0 - 1j * theta) * u0


def dirichlet_eigenvalue_oracle(T: float, n_points: int, n_levels: int) -> np.ndarray:
    """Finite-difference Dirichlet eigenvalues of -phi'' = (E/hbar)^2 phi on [0,T].

    The lowest n_levels sqrt(lambda_k) of the second-difference matrix
    tridiag(-1, 2, -1) / dt^2 of size n_points, dt = T / (n_points + 1), in closed
    form, exact for this matrix: sin(k pi j dt / T) vanishes at j = 0 and
    n_points + 1, so it is the eigenvector of lambda_k = (2/dt)^2 sin^2(k pi dt / 2T).
    An independent check of the continuum spectrum: approaches k pi / T at O(dt^2).
    """
    if T <= 0:
        raise ValueError(f"window length T must be positive, got {T}")
    if not 1 <= n_levels <= n_points:
        raise ValueError(f"n_levels must lie in 1..n_points = {n_points}, got {n_levels}")
    dt = T / (n_points + 1)
    return 2.0 / dt * np.sin(np.arange(1, n_levels + 1) * np.pi / (2 * (n_points + 1)))
