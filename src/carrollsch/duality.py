"""Dictionary between a static potential and its time-reparametrized partner.

Forward direction: a time profile V_car(t) determines the reparametrization
x = delta(t) through delta-dot-dot/delta-dot = (2i/hbar) V_car, and a dual
static potential follows by direct substitution.

Inverse direction: for a target static V_sch(x) with reference energies
(E_sch, E0), the ratio sigma = y1/y2 of a fundamental pair of

    y'' = q(x) y,      q = (2m/hbar^2) (V_sch - E_sch)

has Schwarzian {sigma, x} = -2q, and tau(x) = (hbar/E0) arctan(sigma) inverts
to delta on any interval where y2 has no zeros.  Correctness is asserted
through the basis-independent Schwarzian residual and the reconstruction
residual, never through sigma itself (sigma is only fixed up to a Mobius
action of the basis choice).

Note the ratio sigma of y'' + Q y = 0 has Schwarzian +2Q, so the pair is
integrated with Q = -q to realize {sigma, x} = -2q.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .constants import PhysicalConstants, NATURAL
from .numerics import (
    FundamentalPair,
    TimeGrid,
    cubic_spline,
    cumulative_integral,
    deriv_uniform,
    integrate_fundamental_pair,
    schwarzian_samples,
)
from .potentials import PotentialSpec


class BranchError(ValueError):
    """No usable coordinate patch (y2 zeros, |sigma| = 1 crossing, ...)."""


@dataclass(frozen=True)
class DualityMap:
    E0: float
    E_sch: float
    x: np.ndarray
    sigma: np.ndarray
    tau: np.ndarray
    q: np.ndarray
    delta_t: Optional[np.ndarray]
    delta: Optional[np.ndarray]
    branch: str  # "standard" | "hermitian"
    monotone_interval: tuple[float, float]
    pair: FundamentalPair = field(repr=False, default=None)
    constants: PhysicalConstants = NATURAL

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def tau_at(self, x: float) -> complex:
        lo, hi = self.monotone_interval
        if not (lo <= x <= hi):
            raise ValueError(f"x = {x} outside monotone interval [{lo}, {hi}]")
        value = cubic_spline(self.x, self.tau)(x)
        return complex(value) if np.iscomplexobj(self.tau) else float(value)

    def delta_at(self, t: float) -> float:
        if self.delta is None:
            raise ValueError("map carries no sampled delta")
        return float(cubic_spline(self.delta_t, self.delta)(t))

    def reconstruct_v_car(self) -> np.ndarray:
        """V_car at t = tau(x) from the inverse-function quotient.

        delta-dot-dot/delta-dot at t = tau(x) equals -tau''/tau'^2, so
        V_car = (i hbar / 2) tau'' / tau'^2, evaluated by finite differences
        on the tau samples.
        """
        hbar = self.constants.hbar
        tp = deriv_uniform(self.tau, self.dx, 1)
        tpp = deriv_uniform(self.tau, self.dx, 2)
        return 0.5j * hbar * tpp / tp**2


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
) -> tuple[np.ndarray, np.ndarray]:
    """Dual static potential sampled along x = delta(t).

    V_sch = E_sch + [i hbar dV_car/dt + V_car^2 - E0^2] / (2 m delta-dot^2).
    Returns (x_samples, v_sch_samples) parametrized by the t grid.
    """
    hbar, m = constants.hbar, constants.m
    t = t_grid.times
    V = v_car.v_t(t)
    dV = v_car.dv_t(t)
    ddelta = deriv_uniform(delta, t_grid.dt, 1)
    if np.min(np.abs(ddelta)) < 1e-12:
        raise BranchError("delta-dot vanishes; map degenerate")
    v = E_sch + (1j * hbar * dV + V**2 - E0**2) / (2 * m * ddelta**2)
    return delta, v


def _zero_free_patch(y2: np.ndarray, guard: int = 2) -> tuple[int, int]:
    """Largest index run on which y2 keeps one sign, trimmed by a guard band."""
    sgn = np.sign(y2)
    breaks = [0]
    for i in range(1, len(y2)):
        if sgn[i] == 0 or (sgn[i - 1] != 0 and sgn[i] != sgn[i - 1]):
            breaks.append(i)
    breaks.append(len(y2))
    best = (0, 0)
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b - a > best[1] - best[0]:
            best = (a, b)
    a, b = best[0] + guard, best[1] - guard
    if b - a < 16:
        raise BranchError("no usable zero-free patch of y2")
    return a, b


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
    a, b = _zero_free_patch(pair.y2)
    xs = pair.x[a:b]
    sigma = pair.y1[a:b] / pair.y2[a:b]
    tau = (hbar / E0) * np.arctan(sigma)
    dtau = np.diff(tau)
    if not (np.all(dtau > 0) or np.all(dtau < 0)):
        raise BranchError("tau is not strictly monotone on the trimmed patch")

    # invert tau on a uniform t grid spanning its range
    order = np.argsort(tau)
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
        branch="standard",
        monotone_interval=(float(xs[0]), float(xs[-1])),
        pair=pair,
        constants=constants,
    )


def _window_extrema(a: np.ndarray, size: int = 9) -> tuple[np.ndarray, np.ndarray]:
    """Running max and min over `size` samples centred on each point (odd size).

    The ends are padded by repeating the edge samples, as scipy.ndimage's
    mode="nearest" does.
    """
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(a, size // 2, mode="edge"), size)
    return windows.max(axis=1), windows.min(axis=1)


def schwarzian_residual(dmap: DualityMap, margin: int = 4, target_step: float = 2e-3) -> float:
    """max |{sigma, x} + 2q| over interior samples, by finite differences.

    Two conditioning devices keep the stencils honest: the samples are
    strided so the effective step is near `target_step` (third-derivative
    roundoff scales as eps/h^3), and wherever |sigma| is large the
    Mobius-equivalent ratio 1/sigma = y2/y1 is differentiated instead
    (same Schwarzian, bounded samples near zeros of y2).
    """
    n = len(dmap.sigma)
    stride = max(1, min(int(round(target_step / dmap.dx)), n // (2 * margin + 32)))
    sig = dmap.sigma[::stride]
    q = dmap.q[::stride]
    h = dmap.dx * stride

    S_lo = schwarzian_samples(sig, h)
    with np.errstate(divide="ignore", invalid="ignore"):
        S_hi = schwarzian_samples(1.0 / sig, h)
    r_lo = np.abs(S_lo + 2 * q)
    r_hi = np.abs(S_hi + 2 * q)
    wmax, wmin = _window_extrema(np.abs(sig))
    r = np.where(wmax <= 1.0, r_lo, np.where(wmin >= 1.0, r_hi, np.minimum(r_lo, r_hi)))
    core = r[margin:-margin]
    core = core[np.isfinite(core)]
    return float(np.max(core))


def hermitian_branch(dmap: DualityMap) -> DualityMap:
    """Constant rescaling sigma -> i sigma selecting a real-valued V_car.

    tau_H = i (hbar/E0) artanh(sigma); requires |sigma| != 1 on the patch.
    The Schwarzian is invariant under the rescaling, so the reconstruction
    of V_sch is untouched.
    """
    absr = np.abs(dmap.sigma) - 1.0
    if np.any(absr == 0) or np.any(np.sign(absr[:-1]) != np.sign(absr[1:])):
        raise BranchError("|sigma| crosses 1 inside the interval")
    hbar, E0 = dmap.constants.hbar, dmap.E0
    sigma_h = 1j * dmap.sigma
    tau_h = 1j * (hbar / E0) * np.arctanh(dmap.sigma.astype(complex))
    return replace(dmap, sigma=sigma_h, tau=tau_h, delta_t=None, delta=None, branch="hermitian")


def roundtrip_residual(
    dmap: DualityMap,
    v_sch: PotentialSpec,
    margin: int = 4,
) -> float:
    """Relative deviation of the potential rebuilt from the constructed map.

    V_sch(delta(t)) - E_sch = (hbar^2/4m) {delta,t}/delta-dot^2
                              - (E0^2/2m) / delta-dot^2,
    pulled back to the x side with the inversion identities
    ({delta,t}/delta-dot^2)|_{t=tau} = -{tau,x} and (1/delta-dot^2)| = tau'^2.
    """
    hbar, m = dmap.constants.hbar, dmap.constants.m
    stride = max(1, min(int(round(5e-3 / dmap.dx)), len(dmap.tau) // 64))
    tau = dmap.tau[::stride]
    h = dmap.dx * stride
    tau_p = deriv_uniform(tau, h, 1)
    S_tau = schwarzian_samples(tau, h)
    v_rec = dmap.E_sch - (hbar**2 / (4 * m)) * S_tau - (dmap.E0**2 / (2 * m)) * tau_p**2
    v_tgt = v_sch.v_x(dmap.x[::stride])
    core = slice(margin, -margin)
    scale = max(float(np.max(np.abs(v_tgt - dmap.E_sch))), dmap.E0**2 / (2 * m))
    return float(np.max(np.abs(v_rec[core] - v_tgt[core])) / scale)


def inversion_identity_residual(
    dmap: DualityMap, margin: int = 8, target_step: float | None = None
) -> float:
    """Check ({delta,t}/delta-dot^2)|_{t=tau(x)} = -{tau,x} numerically.

    Evaluated on the well-conditioned part of the t range: edge samples and
    points where |delta-dot| exceeds three times its minimum are excluded,
    since the finite-difference Schwarzian of a steep delta is dominated by
    truncation there rather than by the identity under test.
    """
    if dmap.delta is None:
        raise ValueError("map carries no sampled delta")
    if target_step is None:
        # the optimal step balancing truncation against roundoff depends on
        # how steep delta is; since the identity holds at every step, evaluate
        # over a bracket of steps and keep the best-conditioned measurement
        span = float(dmap.delta_t[-1] - dmap.delta_t[0])
        return min(
            inversion_identity_residual(dmap, margin, span / den)
            for den in (150, 250, 500, 1000)
        )
    dt = float(dmap.delta_t[1] - dmap.delta_t[0])
    st = max(1, min(int(round(target_step / dt)), len(dmap.delta) // (2 * margin + 32)))
    delta = dmap.delta[::st]
    ddot = deriv_uniform(delta, dt * st, 1)
    S_delta = schwarzian_samples(delta, dt * st) / ddot**2

    sx = max(1, min(int(round(target_step / dmap.dx)), len(dmap.tau) // (2 * margin + 32)))
    S_tau = schwarzian_samples(dmap.tau[::sx], dmap.dx * sx)
    # pull -{tau,x} to the t grid: x = delta(t)
    xs = dmap.x[::sx]
    spl = cubic_spline(xs[margin:-margin], -S_tau[margin:-margin])
    ok = np.abs(ddot) <= 3.0 * np.min(np.abs(ddot))
    ok[:margin] = ok[-margin:] = False
    ok &= (delta >= xs[margin]) & (delta <= xs[-margin - 1])
    if not np.any(ok):
        raise ValueError("no well-conditioned samples for the identity check")
    return float(np.max(np.abs(S_delta[ok] - spl(delta[ok]))))
