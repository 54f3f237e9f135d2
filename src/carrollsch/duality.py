"""Dictionary between a static potential and its time-reparametrized partner.

Forward direction: a time profile V_car(t) determines the reparametrization
x = delta(t) through delta-dot-dot/delta-dot = (2i/hbar) V_car, and a dual
static potential follows by direct substitution.

Inverse direction: for a target static V_sch(x) with reference energies
(E_sch, E0), the ratio sigma = y1/y2 of a fundamental pair of

    y'' = q(x) y,      q = (2m/hbar^2) (V_sch - E_sch)

has Schwarzian {sigma, x} = -2q.  tau(x) = (hbar/E0) theta, with theta the
pi-unwrapped angle arctan(sigma), is continuous across the zeros of y2 and
strictly monotone (theta' = -W/(y1^2 + y2^2), W = 1), so it inverts to delta
on the whole interval.  Correctness is asserted through residuals on tau
alone (the Schwarzian, reconstruction and inversion identities), which has
no poles; sigma, only fixed up to a Mobius action of the basis choice and
singular at every zero of y2, is kept for the CSV.

Note the ratio sigma of y'' + Q y = 0 has Schwarzian +2Q, so the pair is
integrated with Q = -q to realize {sigma, x} = -2q.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import PhysicalConstants, NATURAL
from .numerics import (
    FundamentalPair,
    TimeGrid,
    cubic_spline,
    cumulative_integral,
    deriv_uniform,
    integrate_fundamental_pair,
    interior,
    schwarzian,
)
from .potentials import PotentialSpec


#: edge samples (per side) left out of the Schwarzian and roundtrip residuals
_MARGIN = 4


class BranchError(ValueError):
    """No usable map: an overflowing pair, too few samples, a non-monotone tau or a vanishing delta-dot."""


@dataclass(frozen=True)
class DualityMap:
    E0: float
    E_sch: float
    x: np.ndarray
    sigma: np.ndarray
    tau: np.ndarray
    q: np.ndarray
    delta_t: np.ndarray
    delta: np.ndarray
    pair: FundamentalPair = field(repr=False)
    constants: PhysicalConstants

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @cached_property
    def _tau_spline(self):
        """Cubic interpolant of tau(x), built once per map."""
        return cubic_spline(self.x, self.tau)

    def tau_at(self, x: float) -> float:
        if not (self.x[0] <= x <= self.x[-1]):
            raise ValueError(f"x = {x} outside the map's interval [{self.x[0]}, {self.x[-1]}]")
        return float(self._tau_spline(x))


def forward_delta(
    v_car: PotentialSpec,
    C0: complex,
    C1: complex,
    t_grid: TimeGrid,
    constants: PhysicalConstants = NATURAL,
) -> np.ndarray:
    """delta(t) = C1 + C0 int^t exp((2i/hbar) int^t' V_car) dt'."""
    t = t_grid.times
    V = v_car.v_t(t)
    phase = cumulative_integral(V, t_grid, anchor=t[0])
    integrand = np.exp(2j / constants.hbar * phase)
    return C1 + C0 * cumulative_integral(integrand, t_grid, anchor=t[0])


def vsch_from_vcar(
    v_car: PotentialSpec,
    delta: np.ndarray,
    t_grid: TimeGrid,
    E_sch: float,
    E0: float,
    constants: PhysicalConstants = NATURAL,
) -> np.ndarray:
    """Dual static potential sampled along x = delta(t).

    V_sch = E_sch + [i hbar dV_car/dt + V_car^2 - E0^2] / (2 m delta-dot^2).
    Returns the V_sch samples parametrized by the t grid, at x = delta.
    """
    hbar, m = constants.hbar, constants.m
    t = t_grid.times
    V = v_car.v_t(t)
    dV = v_car.dv_t(t)
    ddelta = deriv_uniform(delta, t_grid.dt, 1)
    if np.min(np.abs(ddelta)) < 1e-12:
        raise BranchError("delta-dot vanishes; map degenerate")
    return E_sch + (1j * hbar * dV + V**2 - E0**2) / (2 * m * ddelta**2)


def inverse_tau(
    v_sch: PotentialSpec,
    E_sch: float,
    E0: float,
    x_range: tuple[float, float],
    constants: PhysicalConstants = NATURAL,
    n: int = 2048,
) -> DualityMap:
    """Construct the duality map for a static target potential."""
    if E0 == 0:
        raise ValueError("E0 must be nonzero for the inverse construction")
    hbar, m = constants.hbar, constants.m
    x_lo, x_hi = x_range

    def q_fn(x):
        return (2 * m / hbar**2) * (v_sch.v_x(x) - E_sch)

    # integrate y'' = q y, i.e. y'' + (-q) y = 0, so {y1/y2, x} = -2q
    pair = integrate_fundamental_pair(lambda x: -q_fn(x), x_lo, x_hi, n)
    finite = np.isfinite(pair.y1) & np.isfinite(pair.y2)
    if not np.all(finite):
        raise BranchError(f"fundamental pair overflows from x = {pair.x[np.argmin(finite)]:.6g}: unresolved at n = {n}")
    xs = pair.x[2:-2]  # 2 samples off each end; y2(x_lo) = 0 by the canonical data
    if len(xs) < 16:
        raise BranchError(f"too few samples for the map: {len(xs)} after the end trim, need 16")
    sigma = pair.y1[2:-2] / pair.y2[2:-2]
    # unwrap adds an exact 0 where no branch jump occurs
    tau = (hbar / E0) * np.unwrap(np.arctan(sigma), period=np.pi)
    dtau = np.diff(tau)
    if not (np.all(dtau > 0) or np.all(dtau < 0)):
        with np.errstate(over="ignore", invalid="ignore"):  # a finite pair's W may overflow
            drift = np.max(np.abs(pair.wronskian - 1.0))
        drift_text = f"{drift:.1e}" if np.isfinite(drift) else "beyond the float range"
        raise BranchError(f"tau is not strictly monotone: pair unresolved, Wronskian drift {drift_text}")

    # invert tau on a uniform t grid spanning its range; tau is strictly monotone
    order = slice(None) if dtau[0] > 0 else slice(None, None, -1)
    inv = cubic_spline(tau[order], xs[order])
    delta_t = np.linspace(tau.min(), tau.max(), len(xs))
    delta = inv(delta_t)

    return DualityMap(
        E0=E0,
        E_sch=E_sch,
        x=xs,
        sigma=sigma,
        tau=tau,
        q=q_fn(xs),
        delta_t=delta_t,
        delta=delta,
        pair=pair,
        constants=constants,
    )


def _stride(target_step: float, step: float, n: int, min_samples: int) -> int:
    """The sample stride nearest target_step / step, at most n // min_samples and at least 1."""
    return max(1, min(int(round(target_step / step)), n // min_samples))


def _slope_and_schwarzian(f: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(f', {f, x}) of samples f at spacing h, from three stencils: f' is taken once."""
    f1 = deriv_uniform(f, h, 1)
    return f1, schwarzian(f1, deriv_uniform(f, h, 2), deriv_uniform(f, h, 3))


def _tau_stencils(dmap: DualityMap, target_step: float, min_samples: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(stride, tau', {tau, x}) on tau strided to near target_step (3rd-difference roundoff ~ eps/h^3)."""
    stride = _stride(target_step, dmap.dx, len(dmap.tau), min_samples)
    return (stride, *_slope_and_schwarzian(dmap.tau[::stride], dmap.dx * stride))


def schwarzian_residual(dmap: DualityMap) -> float:
    """max |{sigma, x} + 2q| over interior samples, by finite differences on tau.

    sigma = tan(E0 tau / hbar) and {tan theta, x} = {theta, x} + 2 theta'^2,
    so {sigma, x} + 2q = {tau, x} + 2 (E0 tau'/hbar)^2 + 2q exactly; tau has
    no poles where y2 vanishes, so no sample needs special handling.
    """
    stride, tau_p, S_tau = _tau_stencils(dmap, 2e-3, 2 * _MARGIN + 32)
    r = S_tau + 2 * (dmap.E0 / dmap.constants.hbar * tau_p) ** 2 + 2 * dmap.q[::stride]
    return float(np.max(np.abs(interior(r, _MARGIN))))


def roundtrip_residual(dmap: DualityMap, v_sch: PotentialSpec) -> float:
    """Relative deviation of the potential rebuilt from the constructed map.

    V_sch(delta(t)) - E_sch = (hbar^2/4m) {delta,t}/delta-dot^2
                              - (E0^2/2m) / delta-dot^2,
    pulled back to the x side with the inversion identities
    ({delta,t}/delta-dot^2)|_{t=tau} = -{tau,x} and (1/delta-dot^2)| = tau'^2.
    As q = (2m/hbar^2)(V_sch - E_sch), V_rec - V_sch = -(hbar^2/4m) ({tau,x}
    + 2 (E0 tau'/hbar)^2 + 2q): the Schwarzian residual's defect in potential
    units over the scale below, at a stride near 5e-3 rather than 2e-3.
    """
    hbar, m = dmap.constants.hbar, dmap.constants.m
    stride, tau_p, S_tau = _tau_stencils(dmap, 5e-3, 64)
    v_rec = dmap.E_sch - (hbar**2 / (4 * m)) * S_tau - (dmap.E0**2 / (2 * m)) * tau_p**2
    v_tgt = v_sch.v_x(dmap.x[::stride])
    scale = max(float(np.max(np.abs(v_tgt - dmap.E_sch))), dmap.E0**2 / (2 * m))
    return float(np.max(np.abs(interior(v_rec, _MARGIN) - interior(v_tgt, _MARGIN))) / scale)


def inversion_identity_residual(dmap: DualityMap) -> float:
    """Check ({delta,t}/delta-dot^2)|_{t=tau(x)} = -{tau,x} numerically.

    Evaluated on the well-conditioned part of the t range: edge samples and
    points where |delta-dot| exceeds three times its minimum are excluded,
    since the finite-difference Schwarzian of a steep delta is dominated by
    truncation there rather than by the identity under test.  The best step
    depends on how steep delta is; as the identity holds at every step, the
    minimum over steps of 1/150, 1/250, 1/500 and 1/1000 of the t span is kept.
    """
    span = float(dmap.delta_t[-1] - dmap.delta_t[0])
    return min(_identity_residual(dmap, span / den) for den in (150, 250, 500, 1000))


def _identity_residual(dmap: DualityMap, target_step: float) -> float:
    """The inversion identity residual with both sides strided to near target_step."""
    margin = 8  # edge samples (per side) left out
    dt = float(dmap.delta_t[1] - dmap.delta_t[0])
    st = _stride(target_step, dt, len(dmap.delta), 2 * margin + 32)
    delta = dmap.delta[::st]
    ddot, S_delta = _slope_and_schwarzian(delta, dt * st)
    S_delta = S_delta / ddot**2

    sx, _, S_tau = _tau_stencils(dmap, target_step, 2 * margin + 32)
    # pull -{tau,x} to the t grid: x = delta(t)
    xs = interior(dmap.x[::sx], margin)
    spl = cubic_spline(xs, -interior(S_tau, margin))
    ok = np.abs(ddot) <= 3.0 * np.min(np.abs(ddot))
    ok[:margin] = False
    ok[len(ok) - margin :] = False
    ok &= (delta >= xs[0]) & (delta <= xs[-1])
    if not np.any(ok):
        raise ValueError("no well-conditioned samples for the identity check")
    return float(np.max(np.abs(S_delta[ok] - spl(delta[ok]))))
