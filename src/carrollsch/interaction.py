"""Interacting problems: finite-time quantization, gauge reduction and the
spatial Dyson expansion.

A purely time-dependent potential on a window [0, T] with Dirichlet ends
quantizes the energy label to E_n = n pi hbar / T; the unit-modulus gauge
phase keeps the density (2/T) sin^2(n pi t / T) independent of the profile.

For general V(x,t) the gauge factor exp[(i/hbar) int V dtau] removes the
potential from the temporal operator at the price of an interaction momentum
F(x,t) = int_{t0}^t d_x V dtau, leaving Schrodinger-type evolution in x:

    i hbar c d_x phi = -(hbar^2 / 2 m c^2) d_t^2 phi + c F phi,

solved here by symmetric (Strang) split-step.  The perturbative split of the
potential term into g(t) + eps * eta(x) admits a first-order Dyson expansion
in x; since eta enters as a scalar at each station, the correction exponentiates
to a global phase, which makes the O(eps^2) truncation directly measurable.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .constants import PhysicalConstants, NATURAL
from .numerics import (
    TimeGrid, cumulative_integral, cumulative_trapezoid, real_samples, spectral_multiply,
    cubic_spline as CubicSpline,  # the name perfbench/tracer.py patches to count spline builds
)
from .operators import Field2D
from .potentials import PotentialSpec
from .propagator import Wavefunction


@dataclass(frozen=True)
class SpectrumResult:
    T: float
    levels: np.ndarray
    modes: list[Wavefunction]
    p0: float

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
    """F(x,t) = int_{t0}^{t} d_x V(x,tau) dtau on a tensor grid."""

    field: Field2D
    t0: float

    @cached_property
    def _spline(self):
        """Cubic interpolant of F along the x axis, built once per instance."""
        values = real_samples(self.field.values, "interaction momentum")
        return CubicSpline(self.field.x_grid.times, values, axis=0)

    def at_x(self, x: float) -> np.ndarray:
        """Row of F at station x by cubic interpolation along the x axis.

        An x past the sampled range by roundoff only, as a station summed up
        step by step can be, is clamped to the end sample.
        """
        xg = self.field.x_grid.times
        slack = 1e-9 * (xg[-1] - xg[0])
        if not (xg[0] - slack <= x <= xg[-1] + slack):
            raise ValueError(f"x = {x} outside the sampled range")
        return self._spline(min(max(x, xg[0]), xg[-1]))


def quantized_modes(
    T: float,
    n_max: int,
    p0: float,
    v_time: PotentialSpec,
    constants: PhysicalConstants = NATURAL,
    n_samples: int = 1024,
) -> SpectrumResult:
    """Dirichlet spectrum on [0, T]: E_n = n pi hbar / T, amplitude sqrt(2/T).

    Mode n carries the unit-modulus gauge phase exp[(i/hbar) int_0^t V];
    its density (2/T) sin^2(n pi t/T) is therefore independent of v_time.
    """
    if T <= 0:
        raise ValueError("window length T must be positive")
    if n_max < 1:
        raise ValueError("need at least one level")
    hbar = constants.hbar
    grid = TimeGrid(0.0, T, n_samples)
    t = grid.times
    levels = np.arange(1, n_max + 1) * np.pi * hbar / T
    phase = np.exp(1j / hbar * cumulative_trapezoid(v_time.v_t(t), t))
    amp = np.sqrt(2.0 / T)
    modes = [
        Wavefunction(0.0, grid, amp * np.sin(n * np.pi * t / T) * phase)
        for n in range(1, n_max + 1)
    ]
    return SpectrumResult(T=float(T), levels=levels, modes=modes, p0=float(p0))


def interaction_momentum(
    v: PotentialSpec,
    t0: float,
    x_grid: TimeGrid,
    t_grid: TimeGrid,
) -> InteractionMomentum:
    """Accumulate F(x,t) = int_{t0}^{t} d_x V(x,tau) dtau on the tensor grid."""
    F = cumulative_integral(v.dv_dx(x_grid.times, t_grid.times), t_grid, t0, axis=1)
    return InteractionMomentum(field=Field2D(x_grid, t_grid, F), t0=float(t0))


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
    """
    V = v.v_xt(psi.x_grid.times, psi.t_grid.times)
    I = cumulative_integral(V, psi.t_grid, t0, axis=1)
    return Field2D(psi.x_grid, psi.t_grid, np.exp(-1j / constants.hbar * I) * psi.values)


def _split_step(
    values: np.ndarray,
    grid: TimeGrid,
    x0: float,
    h: float,
    n_steps: int,
    half_phase: Callable[[float], np.ndarray],
    constants: PhysicalConstants,
) -> np.ndarray:
    """Strang steps of size h from station x0, along the last axis of values.

    The potential factor half_phase(x) is applied at both cell edges around
    the exact spectral kinetic multiplier exp(-i beta h w^2).  Each station's
    factor is evaluated once: the end phase of one step is the start phase of
    the next.  Leading axes of values, and of the factors, are a batch.
    """
    kin = np.exp(-1j * constants.beta * h * grid.omegas**2)
    x = x0
    phase = half_phase(x)
    for _ in range(n_steps):
        values = values * phase
        values = spectral_multiply(values, kin)
        x += h
        phase = half_phase(x)
        values = values * phase
    return values


def _momentum_phase(row: np.ndarray, h: float, constants: PhysicalConstants) -> np.ndarray:
    """Half-step potential factor exp(-i h F / 2 hbar) of a real momentum row."""
    return np.exp(-0.5j * h / constants.hbar * real_samples(row, "interaction momentum"))


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
    edges.  Unitary for real F; second order in the step size.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    t = phi0.grid.times
    h = (x_end - x0) / n_steps

    def half_phase(x: float) -> np.ndarray:
        row = F.at_x(x) if isinstance(F, InteractionMomentum) else np.asarray(F(x, t))
        return _momentum_phase(row, h, constants)

    vals = _split_step(phi0.values, phi0.grid, x0, h, n_steps, half_phase, constants)
    return replace(phi0, x=x_end, values=vals)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson sum over an odd number of samples at abscissae x.

    The operations and their order are those of scipy's `simpson(y, x=x)` on
    an odd sample count (its `_basic_simpson` with explicit x), so the result
    is bit-identical to it.
    """

    def div(a, b):  # a / b, and 0 where b == 0
        return np.divide(a, b, out=np.zeros_like(b), where=b != 0)

    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    h0divh1 = div(h0, h1)
    tmp = hsum / 6.0 * (
        y[:-2:2] * (2.0 - div(1.0, h0divh1))
        + y[1:-1:2] * (hsum * div(hsum, h0 * h1))
        + y[2::2] * (2.0 - h0divh1)
    )
    return np.sum(tmp)


def _unperturbed(
    phi0: Wavefunction, g_t: np.ndarray, eta: Callable, x0: float, x_end: float,
    n_steps: int, constants: PhysicalConstants,
) -> tuple[np.ndarray, float]:
    """U0 phi0 and the Simpson integral of eta, on an even panel count."""
    if n_steps % 2 == 1:
        n_steps += 1  # composite Simpson needs an even panel count
    # unperturbed evolution U0, with the time profile g_t absorbed in a constant phase
    h = (x_end - x0) / n_steps
    pot = np.exp(-0.5j * h / (constants.hbar * constants.c) * g_t)
    u0 = _split_step(phi0.values, phi0.grid, x0, h, n_steps, lambda x: pot, constants)
    xi = np.linspace(x0, x_end, n_steps + 1)
    return u0, float(_simpson(np.asarray(eta(xi), dtype=float), xi))


def _dyson_factor(eps, I_eta: float, constants: PhysicalConstants):
    """1 - (i eps / hbar c) int eta: the first-order factor on U0 phi0."""
    return 1.0 - 1j * (eps * I_eta / (constants.hbar * constants.c))


def dyson_first_order(
    phi0: Wavefunction,
    g: PotentialSpec,
    eta: Callable[[np.ndarray], np.ndarray],
    eps: float,
    x0: float,
    x_end: float,
    n_steps: int = 256,
    constants: PhysicalConstants = NATURAL,
) -> Wavefunction:
    """First-order Dyson solution for the split potential term g(t) + eps eta(x).

    phi ~ U0 phi0 - (i eps / hbar c) int_{x0}^{x} U0(x,xi) eta(xi) U0(xi,x0)
    phi0 dxi.  Because eta(xi) is a scalar it commutes with U0 and the
    xi-integral collapses to Simpson quadrature of eta times the full U0
    propagation; the truncation error is O(eps^2).  An odd n_steps is
    rounded up to even.
    """
    g_t = real_samples(g.v_t(phi0.grid.times), "time profile g")
    u0, I_eta = _unperturbed(phi0, g_t, eta, x0, x_end, n_steps, constants)
    return replace(phi0, x=x_end, values=_dyson_factor(eps, I_eta, constants) * u0)


def dyson_sweep(
    phi0: Wavefunction,
    g: PotentialSpec,
    eta: Callable[[np.ndarray], np.ndarray],
    eps: Sequence[float],
    x0: float,
    x_end: float,
    n_steps: int = 256,
    constants: PhysicalConstants = NATURAL,
) -> tuple[np.ndarray, np.ndarray]:
    """Split-step references and first-order Dyson solutions for every coupling.

    Returns two (len(eps), n_t) arrays.  Row k of the first is
    evolve_interacting(phi0, F_k, x0, x_end, n_steps).values with
    F_k(x, t) = (g(t) + eps[k] eta(x)) / c; row k of the second is
    dyson_first_order(phi0, g, eta, eps[k], x0, x_end, n_steps).values.
    Both are bit-identical to those calls: the references run as one batch
    of split steps, and the coupling-independent U0 evolution runs once.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    h = (x_end - x0) / n_steps
    g_t = real_samples(g.v_t(phi0.grid.times), "time profile g")
    eps_col = np.asarray(eps, dtype=float)[:, None]

    def half_phase(x: float) -> np.ndarray:
        return _momentum_phase((g_t + eps_col * eta(x)) / constants.c, h, constants)

    batch = np.broadcast_to(phi0.values, (len(eps_col), phi0.grid.n))
    ref = _split_step(batch, phi0.grid, x0, h, n_steps, half_phase, constants)
    u0, I_eta = _unperturbed(phi0, g_t, eta, x0, x_end, n_steps, constants)
    return ref, _dyson_factor(eps_col, I_eta, constants) * u0


def dirichlet_eigenvalue_oracle(T: float, n_points: int, n_levels: int) -> np.ndarray:
    """Finite-difference Dirichlet eigenvalues of -phi'' = (E/hbar)^2 phi on [0,T].

    Standard tridiagonal second-difference matrix; returns the lowest
    n_levels values of sqrt(lambda), which approach n pi / T with O(dt^2)
    error.  Used as an independent check of the closed-form spectrum.
    """
    from scipy.linalg import eigh_tridiagonal

    dt = T / (n_points + 1)
    d = np.full(n_points, 2.0 / dt**2)
    e = np.full(n_points - 1, -1.0 / dt**2)
    w = eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, n_levels - 1))
    return np.sqrt(w)
