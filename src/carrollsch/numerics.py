"""Shared numerical substrate.

Uniform grids with a periodic (endpoint-excluded) convention; the one check
of complex samples and the one rule for a real V; the spectral multiplier
and derivative; the lazily loaded cubic spline; the fixed-step RK4 loop,
finite-difference stencils along any axis, the Schwarzian of sampled
functions and cumulative quadrature.  Everything here is a pure function of
its inputs, and this module loads numpy only (scipy on the first spline).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class GridError(ValueError):
    """Invalid grid construction or use."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform periodic-convention grid: samples t_k = t_min + k dt, k < n.

    The endpoint t_max is excluded so the DFT sees one full period.
    """

    t_min: float
    t_max: float
    n: int

    def __post_init__(self) -> None:
        if not (self.t_max > self.t_min):
            raise GridError(f"degenerate interval [{self.t_min}, {self.t_max}]")
        if self.n < 8 or not _is_power_of_two(self.n):
            raise GridError(f"n must be a power of two >= 8, got {self.n}")

    @property
    def dt(self) -> float:
        return (self.t_max - self.t_min) / self.n

    @property
    def times(self) -> np.ndarray:
        return self.t_min + self.dt * np.arange(self.n)

    @property
    def omegas(self) -> np.ndarray:
        """Angular frequencies in standard wrap-around (fftfreq) order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, self.dt)


def complex_samples(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """`values` as a complex array, checked to have `shape` and finite entries."""
    v = np.asarray(values, dtype=complex)
    if v.shape != shape:
        raise ValueError(f"expected samples of shape {shape}, got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("samples contain non-finite entries")
    return v


def real_samples(values: np.ndarray, what: str) -> np.ndarray:
    """`values` as a real array; any nonzero imaginary part raises, naming `what`."""
    v = np.asarray(values)
    if v.dtype.kind != "c":
        return v
    if np.any(v.imag):
        raise ValueError(f"complex {what} rejected")
    return v.real


def spectral_multiply(values: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The Fourier multiplier m applied along the last axis: ifft(m fft(values))."""
    return np.fft.ifft(m * np.fft.fft(values))


def spectral_derivative(values: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Spectral derivative along the periodic grid: ifft(i w fft(values))."""
    return spectral_multiply(values, 1j * grid.omegas)


def cubic_spline(x: np.ndarray, y: np.ndarray, axis: int = 0):
    """scipy's CubicSpline of y at x, imported on first use so this module loads numpy only."""
    from scipy.interpolate import CubicSpline

    return CubicSpline(x, y, axis=axis)


@dataclass(frozen=True)
class FundamentalPair:
    """Fundamental system of y'' + q(x) y = 0 with Wronskian one.

    y1 has initial data (1, 0) and y2 has (0, 1) at the left endpoint; with
    no first-derivative term the Wronskian y1 y2' - y1' y2 is constant.
    """

    x: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    y1_prime: np.ndarray
    y2_prime: np.ndarray
    q: np.ndarray = field(repr=False, default=None)

    @property
    def wronskian(self) -> np.ndarray:
        return self.y1 * self.y2_prime - self.y1_prime * self.y2


def integrate_fundamental_pair(
    q: Callable[[np.ndarray], np.ndarray],
    x_lo: float,
    x_hi: float,
    n: int,
) -> FundamentalPair:
    """Integrate y'' + q(x) y = 0 with fixed-step classical RK4.

    Returns n + 1 samples on [x_lo, x_hi] inclusive.
    """
    if not x_hi > x_lo:
        raise ValueError("x_hi must exceed x_lo")
    h = (x_hi - x_lo) / n
    xs = x_lo + h * np.arange(n + 1)

    def qv(x: float) -> float:
        val = q(np.asarray(x))
        if np.iscomplexobj(val) or not math.isfinite(val):
            raise ValueError(f"q must be real and finite, got {val} at x = {x}")
        return float(val)

    def rhs(x: float, s: np.ndarray) -> np.ndarray:
        qx = qv(x)
        return np.array([s[1], -qx * s[0], s[3], -qx * s[2]])

    # state: (y1, y1', y2, y2')
    y = rk4(rhs, np.array([1.0, 0.0, 0.0, 1.0]), xs, h)
    return FundamentalPair(
        x=xs,
        y1=y[:, 0],
        y1_prime=y[:, 1],
        y2=y[:, 2],
        y2_prime=y[:, 3],
        q=np.array([qv(x) for x in xs]),
    )


def rk4(
    rhs: Callable[[float, np.ndarray], np.ndarray], s0: np.ndarray, xs: np.ndarray, h: float
) -> np.ndarray:
    """Classical RK4 for s' = rhs(x, s), s(xs[0]) = s0: the state at every node of xs.

    `h` is passed, not read off `xs`: xs[1] - xs[0] need not equal it bit for bit.
    """
    s = np.asarray(s0)
    out = np.empty((len(xs),) + s.shape, dtype=s.dtype)
    out[0] = s
    for k in range(len(xs) - 1):
        x = xs[k]
        k1 = rhs(x, s)
        k2 = rhs(x + 0.5 * h, s + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h, s + 0.5 * h * k2)
        k4 = rhs(x + h, s + h * k3)
        s = s + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = s
    return out


def deriv_uniform(values: np.ndarray, dx: float, order: int = 1, axis: int = 0) -> np.ndarray:
    """Derivative of values sampled uniformly along `axis`.

    4th-order central differences in the interior, one-sided 2nd-order at the
    edges.  Supports order 1, 2, 3.
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    v = np.asarray(values).swapaxes(axis, 0)
    if v.shape[0] < (9 if order == 3 else 7):
        raise ValueError(f"need at least {9 if order == 3 else 7} samples")
    out = np.empty_like(v, dtype=complex if np.iscomplexobj(v) else float)
    if order == 1:
        out[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * dx)
        out[:2] = (-3 * v[:2] + 4 * v[1:3] - v[2:4]) / (2 * dx)
        out[-2:] = (3 * v[-2:] - 4 * v[-3:-1] + v[-4:-2]) / (2 * dx)
    elif order == 2:
        out[2:-2] = (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:]) / (12 * dx * dx)
        out[:2] = (2 * v[:2] - 5 * v[1:3] + 4 * v[2:4] - v[3:5]) / (dx * dx)
        out[-2:] = (2 * v[-2:] - 5 * v[-3:-1] + 4 * v[-4:-2] - v[-5:-3]) / (dx * dx)
    else:
        out[3:-3] = (
            v[:-6] - 8 * v[1:-5] + 13 * v[2:-4] - 13 * v[4:-2] + 8 * v[5:-1] - v[6:]
        ) / (8 * dx**3)
        # 2nd-order one-sided third derivative
        out[:3] = (-2.5 * v[:3] + 9 * v[1:4] - 12 * v[2:5] + 7 * v[3:6] - 1.5 * v[4:7]) / dx**3
        out[-3:] = (
            2.5 * v[-3:] - 9 * v[-4:-1] + 12 * v[-5:-2] - 7 * v[-6:-3] + 1.5 * v[-7:-4]
        ) / dx**3
    return out.swapaxes(0, axis)


def schwarzian_samples(values: np.ndarray, dx: float) -> np.ndarray:
    """Schwarzian of a sampled function; trustworthy on interior points only."""
    f1 = deriv_uniform(values, dx, 1)
    f2 = deriv_uniform(values, dx, 2)
    f3 = deriv_uniform(values, dx, 3)
    return f3 / f1 - 1.5 * (f2 / f1) ** 2


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Composite-trapezoid running integral along `axis`, starting at 0.

    Same operations in the same order as scipy's
    `cumulative_trapezoid(y, x, axis=axis, initial=0)`, so the result is
    bit-identical to it.
    """
    y = np.moveaxis(np.asarray(y), axis, -1)
    res = np.cumsum(np.diff(x) * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)
    res = np.concatenate((np.zeros_like(res[..., :1]), res), axis=-1)
    return np.moveaxis(res, -1, axis)


def cumulative_integral(
    values: np.ndarray, grid: TimeGrid | np.ndarray, anchor: float, axis: int = -1
) -> np.ndarray:
    """Composite-trapezoid antiderivative along `axis`, vanishing at the anchor.

    The anchor must be a grid point; the integral is taken over `grid` and
    the values at the anchor index are subtracted.
    """
    ts = grid.times if isinstance(grid, TimeGrid) else np.asarray(grid, dtype=float)
    if not (ts[0] - 1e-12 <= anchor <= ts[-1] + 1e-12):
        raise GridError(f"anchor {anchor} outside grid [{ts[0]}, {ts[-1]}]")
    idx = int(np.argmin(np.abs(ts - anchor)))
    if abs(ts[idx] - anchor) > 1e-9 * max(1.0, abs(anchor)):
        raise GridError(f"anchor {anchor} is not a grid point")
    F = cumulative_trapezoid(values, ts, axis=axis)
    return F - np.take(F, [idx], axis=axis)
