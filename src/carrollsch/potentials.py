"""Potentials V(x, t), each one callable on broadcastable float arrays, with
d_x V and, for a V of t alone, d_t V; a derivative not given in closed form
is a 4-point central difference.  V may be complex; the kernels that need a
real V reject a complex one by the one rule of `numerics.real_samples`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import real_samples

_FD_REL = 1e-5  # step for callable finite differences


def _fd4(fn: Callable, u: np.ndarray, h) -> np.ndarray:
    """4-point central difference of fn at u with step h."""
    return (fn(u - 2 * h) - 8 * fn(u - h) + 8 * fn(u + h) - fn(u + 2 * h)) / (12 * h)


def _derivative(fn: Callable, df: Optional[Callable]) -> Callable:
    """df, or the difference of fn with step _FD_REL * max(|u|, 1)."""
    if df is not None:
        return df
    return lambda u: _fd4(fn, u, np.maximum(_FD_REL * np.abs(u), _FD_REL))


def _zero(x, t) -> float:
    return 0.0


def _eval(fn: Callable, x, t) -> np.ndarray:
    """fn at float arrays x and t, in their broadcast shape (filled only if it lacks it)."""
    v = np.asarray(fn(x, t))
    shape = x.shape if x.shape == t.shape else np.broadcast(x, t).shape
    return v if v.shape == shape else np.full(shape, v)


def _tensor(fn: Callable, x, t) -> np.ndarray:
    """fn on the tensor grid of x and t, shaped (n_x, n_t)."""
    x, t = (np.atleast_1d(np.asarray(u, dtype=float)) for u in (x, t))
    return _eval(fn, x[:, None], t[None, :])


@dataclass(frozen=True)
class PotentialSpec:
    """V = f(x, t) and d_x V = f_x(x, t); d_t V = f_t(x, t) if V does not
    depend on x, else f_t is None.  in_t says whether V depends on t."""

    f: Callable
    f_x: Callable
    f_t: Optional[Callable] = None
    in_t: bool = True

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls.constant(0.0)

    @classmethod
    def constant(cls, v0: float) -> "PotentialSpec":
        v0 = float(v0)
        return cls(lambda x, t: v0, _zero, _zero, in_t=False)

    @classmethod
    def time_profile(cls, f, df=None) -> "PotentialSpec":
        df = _derivative(f, df)
        return cls(lambda x, t: f(t), _zero, lambda x, t: df(t))

    @classmethod
    def space_profile(cls, f, df=None) -> "PotentialSpec":
        df = _derivative(f, df)
        return cls(lambda x, t: f(x), lambda x, t: df(x), in_t=False)

    @classmethod
    def separable(cls, a, b, da=None) -> "PotentialSpec":
        da = _derivative(a, da)
        return cls(lambda x, t: a(x) * b(t), lambda x, t: da(x) * b(t))

    @classmethod
    def space_time(cls, f) -> "PotentialSpec":
        return cls(f, lambda x, t: _fd4(lambda u: f(u, t), x, _FD_REL))

    def _of_t(self, fn: Optional[Callable], t) -> np.ndarray:
        if self.f_t is None:
            raise ValueError("potential depends on x, not on t alone")
        t = np.asarray(t, dtype=float)
        return _eval(fn, t, t)  # f and f_t ignore x here

    def v_t(self, t: np.ndarray) -> np.ndarray:
        """Values of a potential of t alone."""
        return self._of_t(self.f, t)

    def dv_t(self, t: np.ndarray) -> np.ndarray:
        return self._of_t(self.f_t, t)

    def v_x(self, x: np.ndarray) -> np.ndarray:
        """Values of a potential of x alone."""
        if self.in_t:
            raise ValueError("potential depends on t, not on x alone")
        x = np.asarray(x, dtype=float)
        return _eval(self.f, x, x)  # f ignores t here

    def v_xt(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Values on the tensor grid, shaped (n_x, n_t)."""
        return _tensor(self.f, x, t)

    def dv_dx(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Spatial derivative on the tensor grid, shaped (n_x, n_t)."""
        return _tensor(self.f_x, x, t)

    def dvdx_at(self, x, t):
        """Spatial derivative at the paired points (x[i], t[i]): a float for
        scalar x and t, else an array of their broadcast shape.  A gradient
        with a nonzero imaginary part is rejected."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        # 1-element arrays, not 0-d: numpy scalar arithmetic can round differently
        dv = real_samples(_eval(self.f_x, *np.atleast_1d(x, t)), "potential gradient")
        return float(dv[0]) if x.ndim == t.ndim == 0 else dv

    def at(self, x: float, t: float) -> float:
        return float(real_samples(_tensor(self.f, x, t)[0, 0], "potential"))
