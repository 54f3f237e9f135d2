"""Tests for the discrete constraint operators and their compatibility check."""
from __future__ import annotations

import numpy as np
import pytest

from carrollsch import (
    Field2D,
    PhysicalConstants,
    PotentialSpec,
    TimeGrid,
    apply_F,
    apply_H,
    commutator_residual,
    gaussian_probes,
)
from carrollsch.numerics import deriv_uniform, interior
from carrollsch.operators import MARGIN


def _plane_wave(xg: TimeGrid, tg: TimeGrid, k: float, omega: float) -> Field2D:
    X, T = np.meshgrid(xg.times, tg.times, indexing="ij")
    return Field2D(xg, tg, np.exp(1j * (k * X - omega * T)))


class TestField2D:
    def test_shape_mismatch_rejected(self):
        g = TimeGrid(0.0, 1.0, 16)
        with pytest.raises(ValueError):
            Field2D(g, g, np.zeros((16, 8)))

    def test_nonfinite_rejected(self):
        g = TimeGrid(0.0, 1.0, 16)
        v = np.zeros((16, 16), dtype=complex)
        v[0, 0] = np.inf
        with pytest.raises(ValueError):
            Field2D(g, g, v)

    def test_interior_trims_margin(self):
        values = np.arange(32 * 16.0).reshape(32, 16)
        f = Field2D(TimeGrid(0.0, 1.0, 32), TimeGrid(0.0, 1.0, 16), values)
        assert np.array_equal(interior(f.values, 4), f.values[4:28, 4:12])


class TestApplyH:
    def test_plane_wave_kernel(self):
        # e^{i(kx - E_k t)} with E_k = k^2/2 annihilates the static operator
        g = TimeGrid(-4.0, 4.0, 128)
        k = 1.3
        psi = _plane_wave(g, g, k, 0.5 * k**2)
        res = apply_H(psi, PotentialSpec.zero())
        assert np.max(np.abs(interior(res.values, MARGIN))) < 1e-6

    def test_constant_potential_shifts_energy(self):
        g = TimeGrid(-4.0, 4.0, 128)
        k, v0 = 1.3, 0.4
        psi = _plane_wave(g, g, k, 0.5 * k**2 + v0)
        res = apply_H(psi, PotentialSpec.constant(v0))
        assert np.max(np.abs(interior(res.values, MARGIN))) < 5e-6

    def test_coarse_grid_rejected(self):
        g = TimeGrid(0.0, 1.0, 8)
        psi = Field2D(g, g, np.ones((8, 8)))
        with pytest.raises(ValueError):
            apply_H(psi, PotentialSpec.zero())


class TestApplyF:
    def test_plane_wave_kernel(self):
        # with V = 0 the kernel condition is -hbar c k = (hbar w)^2/(2 m c^2)
        g = TimeGrid(-4.0, 4.0, 128)
        omega = 1.0
        psi = _plane_wave(g, g, -0.5 * omega**2, omega)
        res = apply_F(psi, PotentialSpec.zero())
        assert np.max(np.abs(interior(res.values, MARGIN))) < 1e-6

    def test_coarse_grid_rejected(self):
        g = TimeGrid(0.0, 1.0, 8)
        psi = Field2D(g, g, np.ones((8, 8)))
        with pytest.raises(ValueError):
            apply_F(psi, PotentialSpec.zero())


class TestOneBuffer:
    """F scaled and summed in one buffer equals its one-expression form."""

    CASES = [
        (PotentialSpec.time_profile(np.sin, np.cos), PhysicalConstants()),
        (PotentialSpec.space_time(lambda x, t: 0.2 * np.sin(x + t)), PhysicalConstants(hbar=1.0546, m=0.7, c=1.3)),
    ]

    @pytest.mark.parametrize("v, consts", CASES)
    def test_apply_F(self, v, consts):
        g = TimeGrid(-4.0, 4.0, 32)
        psi = gaussian_probes(g, g)[2]
        hbar, m, c = consts.hbar, consts.m, consts.c
        V = v.v_xt(g.times, g.times)

        def a(u):
            return -1j * hbar * deriv_uniform(u, g.dt, 1, axis=1) - V * u

        expected = c * 1j * hbar * deriv_uniform(psi.values, g.dt, 1, axis=0) - a(a(psi.values)) / (2 * m * c**2)
        assert apply_F(psi, v, consts).values.tobytes() == expected.tobytes()


class TestCommutator:
    def test_compatible_pair_vanishes(self):
        # a time profile against its negated-and-shifted partner commutes
        v_sch = PotentialSpec.time_profile(np.sin, np.cos)
        v_car = PotentialSpec.time_profile(lambda t: -np.sin(t) + 0.7)
        g = TimeGrid(-4.0, 4.0, 128)
        r = commutator_residual(v_sch, v_car, gaussian_probes(g, g))
        assert r < 1e-8

    def test_incompatible_pair_stays_positive(self):
        v_sch = PotentialSpec.space_profile(lambda x: x, lambda x: np.ones_like(x))
        v_car = PotentialSpec.time_profile(lambda t: -np.sin(t) + 0.7)
        g = TimeGrid(-4.0, 4.0, 128)
        r = commutator_residual(v_sch, v_car, gaussian_probes(g, g))
        assert r > 0.1

    def test_empty_probe_set_rejected(self):
        with pytest.raises(ValueError):
            commutator_residual(PotentialSpec.zero(), PotentialSpec.zero(), [])


class TestGaussianProbes:
    def test_three_normalized_shapes(self):
        xg = TimeGrid(-4.0, 4.0, 64)
        tg = TimeGrid(-3.0, 5.0, 32)
        probes = gaussian_probes(xg, tg)
        assert len(probes) == 3
        for p in probes:
            assert p.values.shape == (64, 32)
            assert np.all(np.isfinite(p.values))

    def test_deterministic(self):
        g = TimeGrid(-4.0, 4.0, 32)
        a = gaussian_probes(g, g)
        b = gaussian_probes(g, g)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.values, pb.values)
