"""Potential profiles over t, x, or (x, t).

A PotentialSpec wraps a closed form (callables, with optional analytic
derivatives).  Real-valued unless explicitly flagged complex; the complex
branch is needed by the velocity-profile construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_FD_REL = 1e-5  # step for callable finite differences


def _fd4(fn: Callable, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    h = np.maximum(_FD_REL * np.abs(u), _FD_REL)
    return (fn(u - 2 * h) - 8 * fn(u - h) + 8 * fn(u + h) - fn(u + 2 * h)) / (12 * h)


@dataclass(frozen=True)
class PotentialSpec:
    kind: str
    v0: float = 0.0
    f_t: Optional[Callable] = None
    df_t: Optional[Callable] = None
    f_x: Optional[Callable] = None
    df_x: Optional[Callable] = None
    f_xt: Optional[Callable] = None
    allow_complex: bool = False

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls(kind="zero")

    @classmethod
    def constant(cls, v0: float) -> "PotentialSpec":
        return cls(kind="constant", v0=float(v0))

    @classmethod
    def time_profile(cls, f, df=None, allow_complex: bool = False) -> "PotentialSpec":
        return cls(kind="time_profile", f_t=f, df_t=df, allow_complex=allow_complex)

    @classmethod
    def space_profile(cls, f, df=None) -> "PotentialSpec":
        return cls(kind="space_profile", f_x=f, df_x=df)

    @classmethod
    def separable(cls, a, b, da=None) -> "PotentialSpec":
        # V(x, t) = a(x) b(t)
        return cls(kind="separable", f_x=a, df_x=da, f_t=b)

    @classmethod
    def space_time(cls, f) -> "PotentialSpec":
        return cls(kind="space_time", f_xt=f)

    # -- evaluation ---------------------------------------------------------
    @property
    def time_only(self) -> bool:
        return self.kind in ("zero", "constant", "time_profile")

    @property
    def space_only(self) -> bool:
        return self.kind in ("zero", "constant", "space_profile")

    def v_t(self, t: np.ndarray) -> np.ndarray:
        """Values of a purely time-dependent potential."""
        t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(t)
        if self.kind == "constant":
            return np.full_like(t, self.v0)
        if self.kind == "time_profile":
            return np.asarray(self.f_t(t))
        raise ValueError(f"potential of kind {self.kind!r} is not time-only")

    def dv_t(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind in ("zero", "constant"):
            return np.zeros_like(t)
        if self.kind == "time_profile":
            if self.df_t is not None:
                return np.asarray(self.df_t(t))
            return _fd4(self.f_t, t)
        raise ValueError(f"potential of kind {self.kind!r} is not time-only")

    def v_x(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "constant":
            return np.full_like(x, self.v0)
        if self.kind == "space_profile":
            return np.asarray(self.f_x(x))
        raise ValueError(f"potential of kind {self.kind!r} is not space-only")

    def v_xt(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Values on the tensor grid, shaped (n_x, n_t)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.kind == "zero":
            return np.zeros((x.size, t.size))
        if self.kind == "constant":
            return np.full((x.size, t.size), self.v0)
        if self.kind == "time_profile":
            return np.broadcast_to(np.asarray(self.f_t(t)), (x.size, t.size)).copy()
        if self.kind == "space_profile":
            return np.broadcast_to(np.asarray(self.f_x(x))[:, None], (x.size, t.size)).copy()
        if self.kind == "separable":
            return np.asarray(self.f_x(x))[:, None] * np.asarray(self.f_t(t))[None, :]
        if self.kind == "space_time":
            return np.asarray(self.f_xt(x[:, None], t[None, :]))
        raise ValueError(f"unknown kind {self.kind!r}")

    def _gradient(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """d_x V at the points (x, t) of two broadcastable float arrays."""
        if self.kind in ("zero", "constant", "time_profile"):
            return np.zeros(np.broadcast(x, t).shape)
        if self.kind in ("space_profile", "separable"):
            da = np.asarray(self.df_x(x)) if self.df_x is not None else _fd4(self.f_x, x)
            return da if self.kind == "space_profile" else da * np.asarray(self.f_t(t))
        if self.kind == "space_time":
            h = _FD_REL
            return (
                self.f_xt(x - 2 * h, t)
                - 8 * self.f_xt(x - h, t)
                + 8 * self.f_xt(x + h, t)
                - self.f_xt(x + 2 * h, t)
            ) / (12 * h)
        raise ValueError(f"unknown kind {self.kind!r}")

    def dv_dx(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Spatial derivative on the tensor grid, shaped (n_x, n_t)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        t = np.atleast_1d(np.asarray(t, dtype=float))
        dv = self._gradient(x[:, None], t[None, :])
        return np.broadcast_to(dv, (x.size, t.size)).copy()

    def dvdx_at(self, x, t):
        """Spatial derivative at the paired points (x[i], t[i]).

        Scalar x and t give a float, arrays an array of their broadcast shape.
        A gradient with a non-negligible imaginary part is rejected.
        """
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        # 1-element arrays, not 0-d: numpy scalar arithmetic can round differently
        dv = np.real_if_close(self._gradient(np.atleast_1d(x), np.atleast_1d(t)))
        if np.iscomplexobj(dv):
            raise ValueError("complex potential gradient rejected")
        return float(dv[0]) if x.ndim == t.ndim == 0 else dv

    def at(self, x: float, t: float) -> float:
        return float(np.real_if_close(self.v_xt(np.array([x]), np.array([t]))[0, 0]))
