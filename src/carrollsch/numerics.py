"""Shared numerical substrate.

Uniform grids with a periodic (endpoint-excluded) convention; the one check
of complex samples and the one rule for a real V; the spectral product
m fft(samples), the inverse transform, which a chain of free x-steps takes
only where its samples are read, and the spectral multiplier that composes
the two, so every FFT of the package is taken here; the kinetic multiplier
exp(-i beta h w^2), built once per (grid, beta, h) and returned read-only,
with one entry kept; the package's one interpolant, the cubic Hermite of
values and slopes; the unit phase exp(i theta), cos and sin in one complex
buffer; the RK4 stage layout and the checked up-front sample of a
coefficient on it, whose first bad value is reported in stepping order;
the one scalar RK4 loop, for a' = -b/d, b' = slope(c, a), and its array twin
for a slope that reads no state, as two running sums; the fundamental pair
of y'' + q y = 0, two chains of that loop; finite-difference stencils along
any axis, each order's interior one array expression, a complex sum scaled
by its scale's exact complex reciprocal, which has the division's bits (see
`_scaled`: numpy divides by a real scalar on Smith's branch, whose two
products the complex multiply forms in SIMD), the slope and
Schwarzian of sampled functions, the anchored cumulative integral, scipy's
running-trapezoid expression, the interior slice and the split of a field's
rows into blocks of about BLOCK_BYTES, so the continuity bridge over a field
far beyond L2 keeps each block's temporaries in it.
Everything here is a pure function of its inputs (the one cache returns an
array equal to a fresh build; `_scaled` overwrites only the fresh sum it is
handed), and this module, like the package, loads
numpy only.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


#: bytes of field rows per block: 512 KiB, so the few working arrays of a block stay near L2 size (2 MiB)
BLOCK_BYTES = 1 << 19


class GridError(ValueError):
    """Invalid grid construction or use."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform periodic-convention grid: samples t_k = t_min + k dt, k < n.

    The endpoint t_max is excluded so the DFT sees one full period.
    """

    t_min: float
    t_max: float
    n: int

    def __post_init__(self) -> None:
        try:
            n = operator.index(self.n)
        except TypeError:
            raise GridError(f"n must be an integer, got {self.n!r}") from None
        if not (self.t_max > self.t_min):
            raise GridError(f"degenerate interval [{self.t_min}, {self.t_max}]")
        if n < 8 or n & (n - 1):
            raise GridError(f"n must be a power of two >= 8, got {n}")
        if not 0 < self.dt < np.inf:  # an infinite bound, or a width that over- or underflows
            raise GridError(f"spacing dt = {self.dt} of [{self.t_min}, {self.t_max}] not positive and finite")

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


def spectral_product(values: np.ndarray, m: np.ndarray) -> np.ndarray:
    """m fft(values) along the last axis.

    It is the one expression m * fft(values): from 256 KiB up numpy forms it
    in the transform's buffer with the operands swapped, and that order sets
    its last bits.
    """
    return m * np.fft.fft(values)


def inverse_transform(spectrum: np.ndarray) -> np.ndarray:
    """ifft(spectrum) along the last axis: the samples whose spectrum it is."""
    return np.fft.ifft(spectrum)


def spectral_multiply(values: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The Fourier multiplier m applied along the last axis: ifft(m fft(values))."""
    return inverse_transform(spectral_product(values, m))


@functools.lru_cache(maxsize=1)
def kinetic_multiplier(grid: TimeGrid, beta: float, h: float) -> np.ndarray:
    """The free x-step exp(-i beta h w^2) on the grid's frequencies, read-only.

    One entry is kept: the steps of one evolution share (grid, beta, h), so a
    loop of them builds the multiplier once and holds one extra array.
    """
    m = np.exp(-1j * beta * h * grid.omegas**2)
    m.flags.writeable = False
    return m


def unit_phase(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) of a real phase, as cos theta and sin theta written into one
    complex buffer; equal to np.exp of the complex 0 + i theta, signed zeros included."""
    theta = np.asarray(theta)
    z = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    return z


def cubic_hermite(x: np.ndarray, y: np.ndarray, dydx: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The cubic Hermite interpolant of values y and slopes dydx at x, as a callable.

    Each piece is the cubic of its two nodes' values and slopes: local, with no
    linear system.  A call finds the pieces with np.searchsorted (the end ones
    past the ends) and sums each as the nearer node's value plus a correction
    in s = (xv - x_i)/(x_{i+1} - x_i), so s = 0 or 1 gives the node value bit
    for bit.  An x that is not 1-D, finite and strictly increasing with 2 or
    more samples, or a y or dydx not finite and of x's shape, raise ValueError.
    """
    x, y, d = np.asarray(x, dtype=float), np.asarray(y), np.asarray(dydx)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError(f"need a 1-D x of at least 2 samples, got shape {x.shape}")
    if y.shape != x.shape or d.shape != x.shape:
        raise ValueError(f"y and dydx must have the shape of x {x.shape}, got {y.shape} and {d.shape}")
    dx = np.diff(x)
    if not (np.all(np.isfinite(x)) and np.all(dx > 0)):
        raise ValueError("x must be finite and strictly increasing")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(d))):
        raise ValueError("y or dydx contains non-finite entries")

    def hermite(xv: np.ndarray) -> np.ndarray:
        xv = np.asarray(xv, dtype=float)
        i = np.searchsorted(x[1:-1], xv, side="right")  # the piece of xv, end pieces past the ends
        h = dx[i]
        s = (xv - x[i]) / h
        r = 1 - s
        dy = y[i + 1] - y[i]
        bend = s * r * ((h * d[i] - dy) * r - (h * d[i + 1] - dy) * s)  # the cubic less the chord
        return np.where(s < 0.5, y[i] + (s * dy + bend), y[i + 1] - (r * dy - bend))

    return hermite


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

    @property
    def wronskian(self) -> np.ndarray:
        return self.y1 * self.y2_prime - self.y1_prime * self.y2


def integrate_fundamental_pair(
    q: Callable[[np.ndarray], np.ndarray],
    x_lo: float,
    x_hi: float,
    n: int,
) -> FundamentalPair:
    """Integrate y'' + q(x) y = 0 with n fixed steps of classical RK4.

    Returns n + 1 samples on [x_lo, x_hi] inclusive; n < 1 raises ValueError
    (`rk4_abscissae`).  q is called once on each of the three stage arrays,
    only where RK4 reads it.  It may return a scalar; a non-finite value or a
    nonzero imaginary part raises ValueError naming the first such x.  y1 and
    y2 are two `rk4` chains on (y, y') with d = -1 and slope -q y.
    """
    if not x_hi > x_lo:
        raise ValueError("x_hi must exceed x_lo")
    h, nodes, stages = rk4_abscissae(x_lo, x_hi, n)
    c = [-v for v in rk4_samples(q, stages, "q must be real and finite, got {v} at x = {x}")]
    y1, y1_prime = rk4(operator.mul, c, 1.0, 0.0, h, -1.0)
    y2, y2_prime = rk4(operator.mul, c, 0.0, 1.0, h, -1.0)
    return FundamentalPair(x=nodes, y1=y1, y2=y2, y1_prime=y1_prime, y2_prime=y2_prime)


def rk4(
    slope: Callable[[float, float], float], c: Sequence[np.ndarray], a: float, b: float, h: float, d: float
) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 for a' = -b / d, b' = slope(c, a): the n + 1 values of a and of b.

    c holds the coefficient on each of `rk4_abscissae`'s three stage arrays,
    as `rk4_samples` returns them; the loop reads them as float lists.  This
    is the one scalar RK4 loop: the fundamental pair (d = -1, slope -q y) and
    a ray in a V(x, t) (d = m c^3, slope d_x V(x, t)) both step through it.
    """
    h2, h6 = 0.5 * h, h / 6.0
    av, bv = [a], [b]
    for c1, c2, c3 in zip(*(np.asarray(u, dtype=float).tolist() for u in c)):
        ka1, kb1 = -b / d, slope(c1, a)
        a2, b2 = a + h2 * ka1, b + h2 * kb1
        ka2, kb2 = -b2 / d, slope(c2, a2)
        a3, b3 = a + h2 * ka2, b + h2 * kb2
        ka3, kb3 = -b3 / d, slope(c2, a3)
        a4, b4 = a + h * ka3, b + h * kb3
        ka4, kb4 = -b4 / d, slope(c3, a4)
        a = a + h6 * (((ka1 + 2 * ka2) + 2 * ka3) + ka4)
        b = b + h6 * (((kb1 + 2 * kb2) + 2 * kb3) + kb4)
        av.append(a)
        bv.append(b)
    return np.array(av), np.array(bv)


def rk4_sums(
    g: tuple[np.ndarray, np.ndarray, np.ndarray], t0: float, q0: float, h: float, d: float
) -> tuple[np.ndarray, np.ndarray]:
    """`rk4` with a slope that reads no state, dq/dx = g: the n + 1 values of t and of q.

    It equals `rk4(lambda g, a: g, g, t0, q0, h, d)` bit for bit, evaluated
    as arrays.  g holds the samples on `rk4_abscissae`'s stages, as
    `rk4_samples` returns them: the n nodes that start a step, the midpoints
    and the step ends.  q is one running sum of its RK4 increments, and t a
    second one of the stage slopes -q_j / d; `np.cumsum` adds in stepping
    order, as the loop does.
    """
    g0, g1, g2 = g
    h2, h6 = 0.5 * h, h / 6.0
    q = np.cumsum(np.concatenate(([float(q0)], h6 * (((g0 + 2 * g1) + 2 * g1) + g2))))
    qk = q[:-1]
    k1, k2 = -qk / d, -(qk + h2 * g0) / d
    k3, k4 = -(qk + h2 * g1) / d, -(qk + h * g1) / d
    t = np.cumsum(np.concatenate(([float(t0)], h6 * (((k1 + 2 * k2) + 2 * k3) + k4))))
    return t, q


def rk4_abscissae(x0: float, x1: float, n: int) -> tuple[float, np.ndarray, tuple[np.ndarray, ...]]:
    """The step h = (x1 - x0) / n of n RK4 steps from x0 to x1 (n < 1 raises, the
    one check of an RK4 step count), the n + 1 nodes x_k = x0 + k h and the
    three stage arrays of n each that the steps read: the nodes that start a
    step, the midpoints x_k + h/2 and the step ends x_k + h."""
    if n < 1:
        raise ValueError(f"need at least one step, got n = {n}")
    h = (x1 - x0) / n
    xs = x0 + h * np.arange(n + 1)
    return h, xs, (xs[:-1], xs[:-1] + 0.5 * h, xs[:-1] + h)


def rk4_samples(
    f: Callable[[np.ndarray], np.ndarray], x_stages: tuple[np.ndarray, ...], fault: str
) -> list[np.ndarray]:
    """f on each stage array, as float arrays indexed [stage][k].

    f is called once per array and may return a scalar.  A non-finite sample,
    or one with a nonzero imaginary part (the rule of `real_samples`), raises
    ValueError(fault.format(x=..., v=...)) for the first one in stepping
    order, (k, stage) ascending: the bad x that `rk4` would reach first, the
    smallest of an upward run, the largest of a downward one.
    """
    samples = [np.broadcast_to(f(u), u.shape) for u in x_stages]
    bad = [
        (i, stage)
        for stage, v in enumerate(samples)
        for i in np.flatnonzero((np.imag(v) != 0) | ~np.isfinite(v))[:1]
    ]
    if bad:
        i, stage = min(bad)
        raise ValueError(fault.format(x=x_stages[stage][i], v=samples[stage][i]))
    return [np.real(v).astype(float) for v in samples]


def _scaled(num: np.ndarray, den: float) -> np.ndarray:
    """num / den, bit for bit; a complex128 num over a positive float den is scaled in place.

    numpy divides a complex z by the complex den + 0i on Smith's branch,
    ((zr + zi*0) * r, (zi - zr*0) * r) with r = 1/den, through a scalar loop.
    z * complex(r, -0.0) forms the same two products in the SIMD multiply but
    adds the signed zero after the product, not before, which differs only
    where a nonzero part's product rounds to zero: that needs r <= 1/2 and a
    part below 2**-1073 den, so such a num divides.  The plain real factor
    z * r flips signed zeros, and for a negative den no complex factor
    matches, so those divide too, as do a real num, which must not move, and
    any other dtype.
    """
    if num.dtype == complex and isinstance(den, float) and den > 0:
        r = 1.0 / den
        if r > 0.5 or np.min(np.abs(num.ravel("K").view(float)), initial=np.inf) >= 2.0**-1073 * den:
            num *= complex(r, -0.0)
            return num
    return num / den


def deriv_uniform(values: np.ndarray, dx: float, order: int = 1, axis: int = 0) -> np.ndarray:
    """Derivative of values sampled uniformly along `axis`.

    4th-order central differences in the interior, one-sided 2nd-order at the
    edges.  Supports order 1, 2, 3.  Each region is its stencil sum over its
    scale (12 dx, 2 dx, dx^2, ...), a real sum divided as written and a complex
    one multiplied by the scale's exact complex reciprocal, which gives the
    division's bits; `_scaled` divides where the product could differ.
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    v = np.asarray(values).swapaxes(axis, 0)
    if v.shape[0] < (9 if order == 3 else 7):
        raise ValueError(f"need at least {9 if order == 3 else 7} samples")
    out = np.empty_like(v, dtype=complex if np.iscomplexobj(v) else float)
    if order == 1:
        out[2:-2] = _scaled(v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:], 12 * dx)
        out[:2] = _scaled(-3 * v[:2] + 4 * v[1:3] - v[2:4], 2 * dx)
        out[-2:] = _scaled(3 * v[-2:] - 4 * v[-3:-1] + v[-4:-2], 2 * dx)
    elif order == 2:
        out[2:-2] = _scaled(-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:], 12 * dx * dx)
        out[:2] = _scaled(2 * v[:2] - 5 * v[1:3] + 4 * v[2:4] - v[3:5], dx * dx)
        out[-2:] = _scaled(2 * v[-2:] - 5 * v[-3:-1] + 4 * v[-4:-2] - v[-5:-3], dx * dx)
    else:
        out[3:-3] = _scaled(
            v[:-6] - 8 * v[1:-5] + 13 * v[2:-4] - 13 * v[4:-2] + 8 * v[5:-1] - v[6:], 8 * dx**3
        )
        # 2nd-order one-sided third derivative
        out[:3] = _scaled(-2.5 * v[:3] + 9 * v[1:4] - 12 * v[2:5] + 7 * v[3:6] - 1.5 * v[4:7], dx**3)
        out[-3:] = _scaled(
            2.5 * v[-3:] - 9 * v[-4:-1] + 12 * v[-5:-2] - 7 * v[-6:-3] + 1.5 * v[-7:-4], dx**3
        )
    return out.swapaxes(0, axis)


def slope_and_schwarzian(values: np.ndarray, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """(f1, {f, x}) of samples f at spacing dx, from the stencils f1, f2, f3 of
    orders 1, 2, 3 as {f, x} = f3/f1 - 1.5 (f2/f1)^2; trustworthy on interior points only."""
    f1, f2, f3 = (deriv_uniform(values, dx, k) for k in (1, 2, 3))
    return f1, f3 / f1 - 1.5 * (f2 / f1) ** 2


def schwarzian_samples(values: np.ndarray, dx: float) -> np.ndarray:
    """Schwarzian of a sampled function; trustworthy on interior points only."""
    return slope_and_schwarzian(values, dx)[1]


def cumulative_integral(
    values: np.ndarray, grid: TimeGrid | np.ndarray, anchor: float, axis: int = -1
) -> np.ndarray:
    """Composite-trapezoid antiderivative along `axis`, vanishing at the anchor.

    The anchor must be a grid point; `grid` may be a TimeGrid or any
    monotone abscissae, increasing or decreasing.  The running sum takes the
    operations, in their order, of scipy.integrate's running trapezoid with
    initial=0, as its whole-array expression, so with the anchor at the first
    sample the result is bit-identical to scipy's.  The running trapezoid is
    2nd order in the spacing, below the 4th order of the stencils; every
    caller inherits it.
    """
    ts = grid.times if isinstance(grid, TimeGrid) else np.asarray(grid, dtype=float)
    lo, hi = sorted((ts[0], ts[-1]))
    if not (lo - 1e-12 <= anchor <= hi + 1e-12):
        raise GridError(f"anchor {anchor} outside grid [{lo}, {hi}]")
    idx = int(np.argmin(np.abs(ts - anchor)))
    if abs(ts[idx] - anchor) > 1e-9 * max(1.0, abs(anchor)):
        raise GridError(f"anchor {anchor} is not a grid point")
    y = np.moveaxis(np.asarray(values), axis, -1)
    F = np.cumsum((y[..., 1:] + y[..., :-1]) * np.diff(ts) / 2.0, axis=-1)
    F = np.concatenate((np.zeros(y.shape[:-1] + (1,), F.dtype), F), axis=-1)
    if idx:  # anchored at the first sample, F already vanishes there
        F -= F[..., idx : idx + 1]
    return np.moveaxis(F, -1, axis)


def interior(values: np.ndarray, margin: int) -> np.ndarray:
    """`values` without `margin` samples at either end of every axis.

    margin = 0 keeps every sample; a margin that leaves no sample raises.
    """
    if any(n <= 2 * margin for n in values.shape):
        raise ValueError(f"grid has no interior: shape {values.shape} with margin {margin}")
    return values[tuple(slice(margin, n - margin) for n in values.shape)]


def row_blocks(start: int, stop: int, row_nbytes: int, least: int) -> list[slice]:
    """Rows start..stop as consecutive slices of near-equal length, each of at least
    max(least, BLOCK_BYTES // row_nbytes) rows unless fewer rows are there in all."""
    k = max(1, (stop - start) // max(least, BLOCK_BYTES // row_nbytes))
    bounds = [start + (stop - start) * i // k for i in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
