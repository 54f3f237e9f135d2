"""Tests for the reparametrization map between static and time profiles."""
from __future__ import annotations

import numpy as np
import pytest

from carrollsch import (
    BranchError,
    PotentialSpec,
    TimeGrid,
    forward_delta,
    hermitian_branch,
    inverse_tau,
    inversion_identity_residual,
    roundtrip_residual,
    schwarzian_residual,
    vsch_from_vcar,
)
from carrollsch.duality import _window_extrema
from carrollsch.numerics import deriv_uniform, schwarzian_samples

TARGETS = [
    ("free", PotentialSpec.zero(), 0.0, (0.0, 2.0), 1e-6),
    ("constant", PotentialSpec.constant(2.0), 0.0, (0.0, 0.6), 1e-6),
    ("harmonic", PotentialSpec.space_profile(lambda x: 0.5 * x**2), 0.25, (-1.5, 1.5), 1e-4),
    ("coulomb-like", PotentialSpec.space_profile(lambda x: -1.0 / x), -0.5, (0.5, 3.0), 1e-4),
]


class TestForwardDelta:
    def test_zero_profile_is_affine(self):
        tg = TimeGrid(-1.0, 1.0, 256)
        delta = forward_delta(PotentialSpec.zero(), 1.0, 0.0, tg)
        np.testing.assert_allclose(delta, tg.times - tg.times[0], atol=1e-12)

    def test_constant_profile_velocity(self):
        tg = TimeGrid(-1.0, 1.0, 2048)
        v0 = 0.7
        delta = forward_delta(PotentialSpec.constant(v0), 1.0, 0.0, tg)
        ddot = deriv_uniform(delta, tg.dt, 1)
        ref = np.exp(2j * v0 * (tg.times - tg.times[0]))
        np.testing.assert_allclose(ddot[4:-4], ref[4:-4], atol=1e-5)

    def test_velocity_profile(self):
        # the profile V = -(i hbar/2) vdot/v realizes delta-dot = v up to the
        # anchor constant, absorbed here into C0 = v(t_min)
        tg = TimeGrid(-1.0, 1.0, 2048)
        t = tg.times
        v_car = PotentialSpec.time_profile(lambda s: -0.5j * 2 * s / (1 + s**2))
        delta = forward_delta(v_car, complex(1 + t[0] ** 2), 0.0, tg)
        ddot = deriv_uniform(delta, tg.dt, 1)
        np.testing.assert_allclose(ddot[4:-4], 1 + t[4:-4] ** 2, atol=1e-5)
        assert np.max(np.abs(delta.imag)) == 0.0


class TestVschFromVcar:
    def test_velocity_form_agreement(self):
        tg = TimeGrid(-1.0, 1.0, 2048)
        t = tg.times
        v = 1 + t**2
        v_car = PotentialSpec.time_profile(lambda s: -0.5j * 2 * s / (1 + s**2))
        delta = forward_delta(v_car, complex(1 + t[0] ** 2), 0.0, tg)
        e_sch, e0 = 0.3, 1.0
        xs, vs = vsch_from_vcar(v_car, delta, tg, e_sch, e0)
        w = 2 * t / v
        wdot = (2 * v - 2 * t * 2 * t) / v**2
        ref = e_sch + (0.5 * wdot - 0.25 * w**2 - e0**2) / (2 * v**2)
        np.testing.assert_allclose(vs[8:-8], ref[8:-8], atol=1e-6)

    def test_degenerate_velocity_rejected(self):
        tg = TimeGrid(-1.0, 1.0, 256)
        delta = np.ones(256)
        with pytest.raises(BranchError):
            vsch_from_vcar(PotentialSpec.zero(), delta, tg, 0.0, 1.0)


class TestInverseTau:
    def test_free_tau_closed_form(self):
        dmap = inverse_tau(PotentialSpec.zero(), 0.0, 1.0, (0.0, 2.0))
        assert float(np.real(dmap.tau_at(1.0))) == pytest.approx(np.pi / 4, abs=1e-8)
        # with the canonical initial data the ratio is 1/x, so tau = arctan(1/x)
        np.testing.assert_allclose(np.real(dmap.tau), np.arctan(1.0 / dmap.x), atol=1e-8)

    def test_delta_inverts_tau(self):
        dmap = inverse_tau(PotentialSpec.zero(), 0.0, 1.0, (0.0, 2.0))
        # delta(tau(x)) = x on the sampled interval
        mid = dmap.x[len(dmap.x) // 2]
        assert dmap.delta_at(float(np.real(dmap.tau_at(mid)))) == pytest.approx(
            mid, abs=1e-8
        )

    def test_tau_outside_interval_rejected(self):
        dmap = inverse_tau(PotentialSpec.zero(), 0.0, 1.0, (0.0, 2.0))
        with pytest.raises(ValueError):
            dmap.tau_at(5.0)

    def test_zero_reference_energy_rejected(self):
        with pytest.raises(ValueError):
            inverse_tau(PotentialSpec.zero(), 0.0, 0.0, (0.0, 1.0))


class TestResiduals:
    @pytest.mark.parametrize("name,v,e_sch,x_range,tol", TARGETS)
    def test_schwarzian_identity(self, name, v, e_sch, x_range, tol):
        dmap = inverse_tau(v, e_sch, 1.0, x_range)
        assert schwarzian_residual(dmap) <= 1e-5

    @pytest.mark.parametrize("name,v,e_sch,x_range,tol", TARGETS)
    def test_roundtrip(self, name, v, e_sch, x_range, tol):
        dmap = inverse_tau(v, e_sch, 1.0, x_range)
        assert roundtrip_residual(dmap, v) <= tol

    @pytest.mark.parametrize("name,v,e_sch,x_range,tol", TARGETS[:3])
    def test_inversion_identity(self, name, v, e_sch, x_range, tol):
        dmap = inverse_tau(v, e_sch, 1.0, x_range)
        assert inversion_identity_residual(dmap) <= 1e-5

    def test_chain_rule_between_sigma_and_tau(self):
        # sigma = tan(E0 tau / hbar), so
        # {sigma, x} = {tau, x} + 2 (E0/hbar)^2 tau'^2
        _, v, e_sch, x_range, _ = TARGETS[2]
        dmap = inverse_tau(v, e_sch, 1.0, x_range)
        stride = max(1, int(round(5e-3 / dmap.dx)))
        sig = dmap.sigma[::stride]
        tau = dmap.tau[::stride]
        h = dmap.dx * stride
        keep = np.abs(sig) < 1.0
        keep[:8] = keep[-8:] = False
        s_sig = schwarzian_samples(sig, h)
        s_tau = schwarzian_samples(tau, h)
        tau_p = deriv_uniform(tau, h, 1)
        lhs = s_sig[keep]
        rhs = s_tau[keep] + 2.0 * tau_p[keep] ** 2
        assert np.max(np.abs(lhs - rhs)) <= 1e-5


class TestHermitianBranch:
    def test_crossing_rejected(self):
        # the free-case ratio passes through magnitude one inside (0, 2)
        dmap = inverse_tau(PotentialSpec.zero(), 0.0, 1.0, (0.0, 2.0))
        with pytest.raises(BranchError):
            hermitian_branch(dmap)

    def test_rescaled_map(self):
        dmap = inverse_tau(PotentialSpec.zero(), 0.0, 1.0, (0.0, 0.6))
        h = hermitian_branch(dmap)
        assert h.branch == "hermitian"
        np.testing.assert_array_equal(h.q, dmap.q)
        np.testing.assert_allclose(h.sigma, 1j * dmap.sigma, atol=0)
        np.testing.assert_allclose(
            h.tau, 1j * np.arctanh(dmap.sigma.astype(complex)), atol=1e-12
        )

    def test_tau_at_splines_real_and_imaginary_parts_alike(self):
        from scipy.interpolate import CubicSpline

        h = hermitian_branch(inverse_tau(PotentialSpec.zero(), 0.0, 1.0, (0.0, 0.6)))
        xs = np.linspace(*h.monotone_interval, 17)
        parts = CubicSpline(h.x, h.tau.real)(xs) + 1j * CubicSpline(h.x, h.tau.imag)(xs)
        assert np.array_equal([h.tau_at(x) for x in xs], parts)

    def test_reconstruction_is_real(self):
        dmap = inverse_tau(PotentialSpec.zero(), 0.0, 1.0, (0.0, 0.6))
        h = hermitian_branch(dmap)
        v_car = h.reconstruct_v_car()
        interior = v_car[8:-8]
        assert np.max(np.abs(np.imag(interior))) <= 1e-6 * max(
            1.0, np.max(np.abs(interior))
        )


class TestWindowExtrema:
    @pytest.mark.parametrize("n", [1, 5, 9, 200])
    def test_matches_ndimage_nearest(self, n):
        from scipy.ndimage import maximum_filter1d, minimum_filter1d

        a = np.abs(np.random.default_rng(n).standard_cauchy(n))
        wmax, wmin = _window_extrema(a)
        assert np.array_equal(wmax, maximum_filter1d(a, size=9, mode="nearest"))
        assert np.array_equal(wmin, minimum_filter1d(a, size=9, mode="nearest"))
