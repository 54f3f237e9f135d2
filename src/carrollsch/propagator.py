"""Equal-x evolution of temporal wavefunctions.

A Wavefunction is a complex profile in t at a fixed spatial station x.  Free
x-evolution is the spectral multiplier exp(-i beta dx w^2) with
beta = hbar/(2 m c^3), which is exactly unitary on the discrete grid.  It
comes from `numerics.kinetic_multiplier`, built once per (grid, beta, dx),
read-only, with one entry kept, so a loop of equal steps builds it once.  On
L2(R_t) the step is diagonal in frequency, so a chain of steps is a product of
phases on one spectrum: each output of `evolve_free` holds only its spectrum,
read-only, and the next step multiplies it.  The output's values are the
inverse transform of that spectrum, formed on first read (one inverse FFT,
then the finiteness check every packet gets) and kept, so a chain of k steps
whose last station alone is read makes one forward and one inverse FFT.  A
packet the caller builds (`gaussian_exact`, `Wavefunction(...)`,
`dataclasses.replace`) holds no spectrum and is transformed from its values
on every call, and so is an output whose values have been read and made
writeable again, so nothing is cached on an array a caller may still write.
The closed-form dispersing Gaussian packet provides an independent oracle
for the spectral path, including the carrier-drift case.

Periodic grid semantics stand in for decay at t -> +-inf; callers should keep
boundary density below 1e-10 of peak so wrap-around stays under tolerance.
The grid must also resolve the packet: free evolution keeps |psi_hat|, and
evolve_free cannot undo aliasing already in its input samples, so for a
Gaussian of width sigma the spectral tail exp(-sigma^2 w_N^2 / 2) at the
Nyquist frequency w_N = pi/dt must lie below the tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants, NATURAL
from .numerics import (
    TimeGrid, complex_samples, inverse_transform, kinetic_multiplier, real_samples, spectral_multiply,
    spectral_product,
)
from .operators import Field2D
from .potentials import PotentialSpec


@dataclass(frozen=True)
class Wavefunction:
    """Complex samples of t at the station x.

    An output of `evolve_free` holds its spectrum instead: its `values` are
    formed on first read as the inverse transform of that spectrum (one
    inverse FFT of n samples), checked as any packet's are, and kept on the
    instance, read-only since the spectrum is.  Later reads cost nothing.
    """

    x: float
    grid: TimeGrid
    values: np.ndarray

    _spectrum = None  # not a field: evolve_free sets it on its own outputs

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", complex_samples(self.values, (self.grid.n,)))

    def __getattr__(self, name: str):
        # called only for an attribute the instance lacks: the values of an
        # evolve_free output that has not been read yet
        spectrum = self._spectrum
        if name != "values" or spectrum is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        values = complex_samples(inverse_transform(spectrum), (self.grid.n,))
        values.flags.writeable = spectrum.flags.writeable
        object.__setattr__(self, "values", values)
        return values

    def norm(self) -> float:
        """Discrete L2 norm with the grid measure dt."""
        return float(np.sqrt(self.grid.dt * np.sum(np.abs(self.values) ** 2)))

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


@dataclass(frozen=True)
class GaussianParams:
    sigma: float
    t0: float = 0.0
    omega0: float = 0.0  # carrier frequency, E0 = hbar * omega0

    def __post_init__(self) -> None:
        if not (self.sigma > 0 and np.isfinite((self.sigma, self.t0, self.omega0)).all()):
            raise ValueError("sigma must be positive, and sigma, t0 and omega0 finite")


def evolve_free(
    psi: Wavefunction, dx: float, constants: PhysicalConstants = NATURAL
) -> Wavefunction:
    """Advance the station by dx with the unitary spectral multiplier.

    The output holds only its spectrum, read-only; its values are the inverse
    transform of it, formed on first read (one inverse FFT) and kept.  A step
    from an output multiplies its spectrum and transforms nothing, so a chain
    of k steps makes one forward FFT, plus one inverse FFT per station read.
    An input that holds no spectrum (any packet built by the caller), or
    whose values have been read and made writeable again, is transformed
    from its values.
    """
    kin = kinetic_multiplier(psi.grid, constants.beta, dx)
    values = vars(psi).get("values")  # read only if formed: a lazy read would transform
    held = psi._spectrum if values is None or not values.flags.writeable else None
    spectrum = spectral_product(psi.values, kin) if held is None else kin * held
    spectrum.flags.writeable = False
    out = object.__new__(type(psi))
    for name, value in (("x", psi.x + dx), ("grid", psi.grid), ("_spectrum", spectrum)):
        object.__setattr__(out, name, value)
    return out


def _packet(
    params: GaussianParams, x, t: np.ndarray, constants: PhysicalConstants
) -> np.ndarray:
    """Closed-form packet samples at stations x and times t, broadcast together."""
    hbar, m, c = constants.hbar, constants.m, constants.c
    s, t0, w0 = params.sigma, params.t0, params.omega0
    chi = hbar * x / (m * c**3 * s**2)
    D = 1.0 + 1j * chi
    drift = 2.0 * constants.beta * x * w0  # = hbar w0 x / (m c^3)
    envelope = (np.pi * s**2) ** (-0.25) / np.sqrt(D) * np.exp(
        -((t - drift - t0) ** 2) / (2 * s**2 * D)
    )
    carrier = np.exp(1j * w0 * (t - t0)) * np.exp(-1j * constants.beta * x * w0**2)
    return envelope * carrier


def gaussian_exact(
    params: GaussianParams,
    x: float,
    grid: TimeGrid,
    constants: PhysicalConstants = NATURAL,
) -> Wavefunction:
    """Closed-form dispersing Gaussian at station x.

    Without a carrier: psi = (pi s^2)^(-1/4) D^(-1/2) exp[-(t-t0)^2/(2 s^2 D)]
    with D = 1 + i chi, chi = hbar x/(m c^3 s^2).  A carrier exp(i w0 (t-t0))
    shifts the frequency content to w0, which drags the envelope center to
    t0 + (hbar w0/(m c^3)) x and adds the global phase exp(-i beta x w0^2).
    """
    values = _packet(params, x, grid.times, constants)
    return Wavefunction(x=x, grid=grid, values=values)


def gaussian_field(
    params: GaussianParams,
    x_grid: TimeGrid,
    t_grid: TimeGrid,
    constants: PhysicalConstants = NATURAL,
) -> Field2D:
    """The closed-form packet on a tensor grid: row i is gaussian_exact at x_grid.times[i]."""
    values = _packet(params, x_grid.times[:, None], t_grid.times, constants)
    return Field2D(x_grid, t_grid, values)


def effective_width(sigma: float, x: float, constants: PhysicalConstants = NATURAL) -> float:
    """Dispersed temporal width sqrt(sigma^2 + (hbar x / (m c^3 sigma))^2)."""
    hbar, m, c = constants.hbar, constants.m, constants.c
    return float(np.sqrt(sigma**2 + (hbar * x / (m * c**3 * sigma)) ** 2))


def carrier_center(
    t0: float, E0: float, x: float, constants: PhysicalConstants = NATURAL
) -> float:
    """Stationary-phase packet center t0 + (E0 / m c^3) x."""
    return t0 + E0 / constants.mc3 * x


def measured_moments(psi: Wavefunction) -> tuple[float, float, float]:
    """(norm, centroid, std deviation) of |psi|^2 by trapezoid on the grid."""
    t = psi.grid.times
    rho = psi.density()
    w = psi.grid.dt
    total = w * np.sum(rho)
    mean = w * np.sum(t * rho) / total
    var = w * np.sum((t - mean) ** 2 * rho) / total
    return float(np.sqrt(total)), float(mean), float(np.sqrt(var))


def carroll_density_current(
    psi: Wavefunction,
    v_car: PotentialSpec,
    constants: PhysicalConstants = NATURAL,
) -> tuple[np.ndarray, np.ndarray]:
    """Carroll density rho_car and temporal current j_t at the station.

    rho_car = (i hbar / 2 m c^3)(psi* dt psi - psi dt psi*) + |psi|^2 V/(m c^3),
    j_t     = (hbar / m c^3) Im(psi* dt psi).
    With V = 0 the two coincide up to sign (rho_car = -j_t); both are exposed
    because the potential term lives only in rho_car.  V must be real: a
    nonzero imaginary part raises, by `numerics.real_samples`' rule.
    """
    hbar = constants.hbar
    mc3 = constants.mc3
    dpsi = spectral_multiply(psi.values, 1j * psi.grid.omegas)  # the spectral d/dt
    im = np.imag(np.conj(psi.values) * dpsi)
    j_t = hbar / mc3 * im
    V = real_samples(v_car.v_t(psi.grid.times), "potential")
    rho = -hbar / mc3 * im + psi.density() * V / mc3
    return rho, j_t
