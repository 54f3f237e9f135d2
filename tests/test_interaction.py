"""Tests for finite-window quantization, gauge reduction and the Dyson term."""
from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid

from carrollsch import (
    Field2D,
    GaussianParams,
    GridError,
    InteractionMomentum,
    PhysicalConstants,
    PotentialSpec,
    TimeGrid,
    dirichlet_eigenvalue_oracle,
    dyson_first_order,
    dyson_sweep,
    evolve_free,
    evolve_interacting,
    gauge_reduce,
    gaussian_exact,
    interaction_momentum,
    quantized_modes,
)
from carrollsch import interaction
from carrollsch.numerics import cumulative_integral, deriv_uniform, kinetic_multiplier, unit_phase


class TestQuantizedModes:
    def test_levels(self):
        spec = quantized_modes(np.pi, 3, 1.0, PotentialSpec.zero())
        np.testing.assert_array_equal(spec.levels, [1.0, 2.0, 3.0])

    def test_unit_norm(self):
        spec = quantized_modes(2.0, 4, 1.0, PotentialSpec.time_profile(np.sin, np.cos))
        for mode in spec.modes:
            total = mode.grid.dt * float(np.sum(np.abs(mode.values) ** 2))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_density_profile_independent(self):
        a = quantized_modes(np.pi, 3, 1.0, PotentialSpec.zero())
        b = quantized_modes(np.pi, 3, 1.0, PotentialSpec.time_profile(np.cos, lambda t: -np.sin(t)))
        for n in (1, 2, 3):
            assert np.array_equal(a.density(n), b.density(n))
            np.testing.assert_allclose(
                np.abs(b.modes[n - 1].values) ** 2, b.density(n), atol=1e-13
            )

    @pytest.mark.parametrize("consts", [PhysicalConstants(), PhysicalConstants(hbar=1.0546), PhysicalConstants(hbar=0.3)])
    def test_modes_are_the_complex_exponential(self, consts):
        T, v = 2.0, PotentialSpec.time_profile(lambda t: 0.5 * np.sin(3 * t) - 0.2, lambda t: 1.5 * np.cos(3 * t))
        spec = quantized_modes(T, 3, None, v, consts)
        t = spec.modes[0].grid.times
        phase = np.exp(1j / consts.hbar * cumulative_integral(v.v_t(t), spec.modes[0].grid, 0.0))
        for n, mode in enumerate(spec.modes, start=1):
            expected = np.sqrt(2.0 / T) * np.sin(n * np.pi * t / T) * phase
            assert mode.values.tobytes() == expected.tobytes()

    def test_complex_profile_rejected(self):
        with pytest.raises(ValueError, match="complex time profile"):
            quantized_modes(1.0, 1, None, PotentialSpec.time_profile(lambda t: 1j * np.sin(t), np.cos))

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            quantized_modes(-1.0, 3, 1.0, PotentialSpec.zero())
        with pytest.raises(ValueError):
            quantized_modes(1.0, 0, 1.0, PotentialSpec.zero())


class TestDirichletOracle:
    def test_matches_closed_form(self):
        T = np.pi
        oracle = dirichlet_eigenvalue_oracle(T, 2000, 3)
        np.testing.assert_allclose(oracle, [1.0, 2.0, 3.0], atol=1e-5)

    def test_second_order_convergence(self):
        T = 2.0
        exact = np.arange(1, 4) * np.pi / T
        errs = [
            np.max(np.abs(dirichlet_eigenvalue_oracle(T, npts, 3) - exact))
            for npts in (400, 800)
        ]
        assert errs[0] / errs[1] >= 3.5

    @pytest.mark.parametrize("n_points", [64, 256, 512])
    def test_matches_dense_second_difference_spectrum(self, n_points):
        # eigvalsh's error is absolute, ~eps times the largest eigenvalue, so
        # the bound is relative to that; per level the lowest one reads
        # 4.8e-12 relative at n_points = 512
        T = np.pi
        dt = T / (n_points + 1)
        off = np.full(n_points - 1, -1.0)
        A = (np.diag(np.full(n_points, 2.0)) + np.diag(off, 1) + np.diag(off, -1)) / dt**2
        lam = np.linalg.eigvalsh(A)
        closed = dirichlet_eigenvalue_oracle(T, n_points, n_points) ** 2
        np.testing.assert_allclose(closed, lam, rtol=0, atol=1e-12 * lam[-1])

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_rejects_nonpositive_window(self, T):
        with pytest.raises(ValueError, match="T must be positive"):
            dirichlet_eigenvalue_oracle(T, 10, 2)

    @pytest.mark.parametrize("n_levels", [0, 11])
    def test_rejects_levels_beyond_the_matrix(self, n_levels):
        # k = n_points + 1 would give sin(pi/2), which is no eigenvalue
        with pytest.raises(ValueError, match=r"1\.\.n_points = 10, got"):
            dirichlet_eigenvalue_oracle(1.0, 10, n_levels)


def _trapezoid_from(y, t, i0):
    """The running trapezoid of y over t written out, vanishing at t[i0]."""
    F = np.concatenate([[0.0], np.cumsum((y[1:] + y[:-1]) * np.diff(t) / 2.0)])
    return F - F[i0]


class TestInteractionMomentum:
    def _grids(self):
        return TimeGrid(0.0, 2.0, 64), TimeGrid(0.0, 2 * np.pi, 1024)

    def _packet_potential(self):
        # the perfbench interaction job's V, whose d_x V is a 4-point difference
        return PotentialSpec.space_time(lambda x, t: 0.6 * np.sin(2.0 * x) * np.exp(-(((t - 1.0) / 3.0) ** 2)))

    def test_time_only_gives_zero(self):
        xg, tg = self._grids()
        F = interaction_momentum(PotentialSpec.time_profile(np.sin, np.cos), 0.0, xg, tg)
        for x in (xg.times[0], 0.37, xg.times[-1]):
            assert np.max(np.abs(F.at_x(x))) == 0.0

    def test_static_profile_grows_linearly(self):
        xg, tg = self._grids()
        F = interaction_momentum(PotentialSpec.space_profile(np.sin, np.cos), 0.0, xg, tg)
        for x in (xg.times[0], 0.37, xg.times[31], 1.2345, xg.times[-1]):
            np.testing.assert_allclose(F.at_x(x), np.cos(x) * tg.times, rtol=0, atol=1e-10)

    def test_separable_quadrature(self):
        """V = x^2 sin t gives F = 2x (1 - cos t), matched to the trapezoid's O(dt^2):
        the error is within 2x T dt^2 / 12 and falls 4-fold per halving of dt."""
        v = PotentialSpec.separable(lambda x: x**2, np.sin, da=lambda x: 2 * x)
        xg = TimeGrid(0.0, 2.0, 64)
        for x in (0.5, 0.37, xg.times[-1]):
            errs = []
            for n in (256, 512):
                tg = TimeGrid(0.0, 2 * np.pi, n)
                err = np.max(np.abs(interaction_momentum(v, 0.0, xg, tg).at_x(x) - 2 * x * (1.0 - np.cos(tg.times))))
                assert err <= 2 * x * 2 * np.pi * tg.dt**2 / 12
                errs.append(err)
            assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)

    def test_at_x_interpolates(self):
        xg, tg = self._grids()
        v = PotentialSpec.separable(lambda x: x**2, np.sin, da=lambda x: 2 * x)
        F = interaction_momentum(v, 0.0, xg, tg)
        row = F.at_x(0.5)
        np.testing.assert_allclose(row, 2 * 0.5 * (1.0 - np.cos(tg.times)), atol=1e-4)

    @pytest.mark.parametrize("anchor", [0, 300, -1])
    def test_row_is_the_integral_written_out(self, anchor):
        """At node stations and off them, the row is the running trapezoid of d_x V at
        the station, written out here, bit for bit."""
        xg, tg = self._grids()
        v = self._packet_potential()
        t0 = tg.times[anchor]
        F = interaction_momentum(v, t0, xg, tg)
        for x in (xg.times[0], 0.37, xg.times[31], 1.2345, xg.times[-1]):
            expected = _trapezoid_from(v.dv_dx(x, tg.times)[0], tg.times, anchor % tg.n)
            assert np.array_equal(F.at_x(x), expected)

    @pytest.mark.parametrize("anchor", [0, 300])
    def test_node_rows_are_the_tensor_construction(self, anchor):
        """At every x_grid sample the row is that row of F built on the whole
        (n_x, n_t) tensor grid, bit for bit."""
        xg, tg = self._grids()
        v = self._packet_potential()
        t0 = tg.times[anchor]
        tensor = cumulative_integral(v.dv_dx(xg.times, tg.times), tg, t0, axis=1)
        F = interaction_momentum(v, t0, xg, tg)
        for k, x in enumerate(xg.times):
            assert np.array_equal(F.at_x(x), tensor[k])

    def test_anchor_off_the_grid_raises_before_any_step(self, monkeypatch):
        xg, tg = TimeGrid(0.0, 1.0, 16), TimeGrid(-10.0, 10.0, 128)
        F = interaction_momentum(self._packet_potential(), tg.t_min + 0.5 * tg.dt, xg, tg)
        with pytest.raises(GridError, match="not a grid point"):
            F.at_x(0.0)
        steps = []
        monkeypatch.setattr(interaction, "spectral_multiply", lambda *a: steps.append(a))
        phi0 = gaussian_exact(GaussianParams(sigma=1.0), 0.0, tg)
        with pytest.raises(GridError, match="not a grid point"):
            evolve_interacting(phi0, F, 0.0, 0.5, 8)
        assert steps == []

    def test_at_x_out_of_range(self):
        """Stations past the x samples raise; an overshoot by roundoff does not."""
        xg, tg = self._grids()
        F = interaction_momentum(PotentialSpec.zero(), 0.0, xg, tg)
        for x in (10.0, xg.times[-1] + 1e-6, xg.times[0] - 1e-6):
            with pytest.raises(ValueError, match="outside the sampled range"):
                F.at_x(x)
        for x in (xg.times[-1] + 1e-12, xg.times[0] - 1e-12):
            assert np.array_equal(F.at_x(x), np.zeros(tg.n))

    @pytest.mark.parametrize("n_steps", [100, 1000])
    def test_evolve_to_last_sample(self, n_steps):
        # x += h overshoots the last x sample by roundoff: 0.9843750000000018 at 100 steps
        xg, tg = TimeGrid(0.0, 1.0, 64), TimeGrid(-10.0, 10.0, 256)
        v = PotentialSpec.separable(np.sin, np.cos, da=np.cos)
        F = interaction_momentum(v, tg.t_min, xg, tg)
        last = F.at_x(xg.times[-1])
        np.testing.assert_allclose(F.at_x(xg.times[-1] + 1e-15), last, rtol=0, atol=1e-14 * np.max(np.abs(last)))
        phi0 = gaussian_exact(GaussianParams(sigma=1.0), 0.0, tg)
        out = evolve_interacting(phi0, F, 0.0, xg.times[-1], n_steps)
        assert out.norm() == pytest.approx(phi0.norm(), rel=1e-12)


class TestGaugeReduce:
    def test_zero_potential_is_identity(self):
        g = TimeGrid(0.0, 2.0, 64)
        psi = Field2D(g, g, np.exp(1j * np.random.default_rng(0).uniform(size=(64, 64))))
        out = gauge_reduce(psi, PotentialSpec.zero(), 0.0)
        np.testing.assert_array_equal(out.values, psi.values)

    @settings(max_examples=25, deadline=None)
    @given(*(st.floats(-3.0, 3.0) for _ in range(3)), st.floats(0.1, 5.0))
    def test_modulus_preserved(self, a0, a1, b0, w):
        g = TimeGrid(0.0, 2.0, 64)
        psi = Field2D(g, g, np.ones((64, 64), dtype=complex))
        v = PotentialSpec.separable(lambda x: a0 + a1 * x, lambda t: b0 + np.sin(w * t))
        out = gauge_reduce(psi, v, 0.0)
        np.testing.assert_allclose(np.abs(out.values), np.abs(psi.values), rtol=1e-14)

    def test_inverse_phase_roundtrip(self):
        g = TimeGrid(0.0, 2.0, 64)
        psi = Field2D(g, g, np.full((64, 64), 1.0 + 0.5j))
        v = PotentialSpec.time_profile(np.sin, np.cos)
        phi = gauge_reduce(psi, v, 0.0)
        t = g.times
        phase = cumulative_trapezoid(np.sin(t), t, initial=0.0)
        back = Field2D(g, g, np.exp(1j * phase)[None, :] * phi.values)
        np.testing.assert_allclose(back.values, psi.values, atol=1e-14)

    @pytest.mark.parametrize(
        "consts", [PhysicalConstants(), PhysicalConstants(hbar=1.0546, m=0.7, c=1.3), PhysicalConstants(hbar=0.3)]
    )
    @pytest.mark.parametrize("anchor", [0, 40, -1])
    def test_phase_is_the_complex_exponential(self, consts, anchor):
        """The phase filled by unit_phase, times psi, is np.exp(-1j / hbar * I) * psi bit
        for bit: every value and every sign of zero in both parts."""
        rng = np.random.default_rng(anchor % 7)
        xg, tg = TimeGrid(-3.0, 3.0, 32), TimeGrid(-4.0, 4.0, 64)
        vals = rng.standard_normal((32, 64)) + 1j * rng.standard_normal((32, 64))
        vals[0, :4] = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0)]
        vals[:, anchor] = complex(-0.0, 0.0)  # zero phase times zero samples
        psi = Field2D(xg, tg, vals)
        v = PotentialSpec.space_time(lambda x, t: 0.3 * np.cos(x) * np.exp(-(t**2)) - 0.1 * t)
        t0 = tg.times[anchor]
        out = gauge_reduce(psi, v, t0, consts)
        I = cumulative_integral(v.v_xt(xg.times, tg.times), tg, t0, axis=1)
        expected = np.exp(-1j / consts.hbar * I) * psi.values
        assert out.values.tobytes() == expected.tobytes()
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(out.values)), np.signbit(part(expected)))

    def test_complex_potential_rejected(self):
        g = TimeGrid(0.0, 2.0, 16)
        psi = Field2D(g, g, np.ones((16, 16), dtype=complex))
        with pytest.raises(ValueError, match="complex potential"):
            gauge_reduce(psi, PotentialSpec.time_profile(lambda t: 1j * t, lambda t: 1j + 0 * t), 0.0)

    def test_quantized_mode_reduces_to_free_solution(self):
        # a dressed separated mode strips to plane wave x sine, which must
        # satisfy the free first-order-in-x equation
        T, n = np.pi, 1
        v = PotentialSpec.time_profile(np.sin, np.cos)
        spec = quantized_modes(T, n, 1.0, v)
        e_n = spec.levels[0]
        p0 = e_n**2 / 2.0  # c p0 = E_n^2 / (2 m c^2) in natural units
        xg = TimeGrid(0.0, 2.0, 256)
        tg = spec.modes[0].grid
        X = xg.times[:, None]
        psi = np.exp(-1j * p0 * X) * spec.modes[0].values[None, :]
        phi = gauge_reduce(Field2D(xg, tg, psi), v, 0.0)
        dphi_dx = deriv_uniform(phi.values, xg.dt, 1, axis=0)
        res = 1j * dphi_dx + 0.5 * deriv_uniform(phi.values, tg.dt, 2, axis=1)
        assert np.max(np.abs(res[8:-8, 8:-8])) <= 1e-6


class TestEvolveInteracting:
    def _phi0(self, grid=None):
        grid = grid or TimeGrid(-20.0, 20.0, 512)
        return gaussian_exact(GaussianParams(sigma=1.0), 0.0, grid)

    def test_zero_momentum_matches_free(self):
        phi0 = self._phi0()
        a = evolve_interacting(phi0, lambda x, t: np.zeros_like(t), 0.0, 1.0, 64)
        b = evolve_free(phi0, 1.0)
        assert np.max(np.abs(a.values - b.values)) <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(*(st.floats(-3.0, 3.0) for _ in range(3)), st.floats(0.1, 4.0))
    def test_unitary_for_real_momentum(self, a, b, k, w):
        phi0 = self._phi0()
        F = lambda x, t: a + b * np.cos(w * t + k * x)
        out = evolve_interacting(phi0, F, 0.0, 1.0, 128)
        assert out.norm() == pytest.approx(phi0.norm(), abs=1e-8)

    def test_complex_momentum_rejected(self):
        phi0 = self._phi0()
        with pytest.raises(ValueError):
            evolve_interacting(phi0, lambda x, t: 1j * t, 0.0, 1.0, 16)

    def test_complex_sampled_momentum_rejected(self):
        phi0 = self._phi0(TimeGrid(-20.0, 20.0, 64))
        xg = TimeGrid(0.0, 1.0, 32)
        v = PotentialSpec.space_time(lambda x, t: (1.0 + 1e-3j) * x * np.sin(t))
        with pytest.raises(ValueError, match="complex interaction momentum"):
            evolve_interacting(phi0, interaction_momentum(v, phi0.grid.t_min, xg, phi0.grid), 0.0, 0.5, 8)
        # a complex dtype with no imaginary part is the real F
        F, F_real = (
            interaction_momentum(PotentialSpec.separable(np.sin, b, np.cos), phi0.grid.t_min, xg, phi0.grid)
            for b in (lambda t: np.sin(t) + 0j, np.sin)
        )
        assert np.array_equal(
            evolve_interacting(phi0, F, 0.0, 0.5, 8).values,
            evolve_interacting(phi0, F_real, 0.0, 0.5, 8).values,
        )

    def test_self_convergence_second_order(self):
        phi0 = self._phi0()
        f = lambda x, t: 0.5 * np.sin(t) * (1.0 + 0.2 * x)
        dense = evolve_interacting(phi0, f, 0.0, 1.0, 1024)
        errs = []
        for n in (32, 64):
            coarse = evolve_interacting(phi0, f, 0.0, 1.0, n)
            errs.append(
                np.sqrt(phi0.grid.dt * np.sum(np.abs(coarse.values - dense.values) ** 2))
            )
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)

    @pytest.mark.parametrize(
        "t_grid", [TimeGrid(-5.0, 5.0, 512), TimeGrid(-20.0, 20.0, 256)], ids=["same-n", "other-n"]
    )
    def test_momentum_on_another_t_grid_rejected(self, t_grid):
        # F sampled on another t grid would silently step phi0 with the wrong
        # rows (same n) or fail in numpy broadcasting (other n)
        phi0 = self._phi0()
        v = PotentialSpec.separable(np.sin, lambda t: np.exp(-(t**2)), np.cos)
        F = interaction_momentum(v, 0.0, TimeGrid(0.0, 1.0, 16), t_grid)
        with pytest.raises(ValueError, match=re.escape(f"F is sampled on {t_grid}, phi0 on {phi0.grid}")):
            evolve_interacting(phi0, F, 0.0, 0.5, 8)

    def test_time_only_momentum_against_dense_reference(self):
        phi0 = self._phi0()
        f = lambda x, t: 1.0 - np.cos(t)
        coarse = evolve_interacting(phi0, f, 0.0, 1.0, 256)
        dense = evolve_interacting(phi0, f, 0.0, 1.0, 2048)
        err = np.sqrt(phi0.grid.dt * np.sum(np.abs(coarse.values - dense.values) ** 2))
        assert err <= 1e-6


def _two_evaluation_strang(phi0, F, x0, x_end, n_steps, constants):
    """Strang split-step that evaluates the potential factor twice per step."""
    t = phi0.grid.times
    h = (x_end - x0) / n_steps
    kin = np.exp(-1j * constants.beta * h * phi0.grid.omegas**2)

    def half_phase(x):
        row = F.at_x(x) if isinstance(F, InteractionMomentum) else np.asarray(F(x, t))
        return np.exp(-0.5j * h / constants.hbar * np.real(row))

    values, x = phi0.values, x0
    for _ in range(n_steps):
        values = values * half_phase(x)
        values = np.fft.ifft(kin * np.fft.fft(values))
        x += h
        values = values * half_phase(x)
    return values


_CONSTANTS = st.builds(
    PhysicalConstants,
    hbar=st.floats(0.5, 2.0),
    m=st.floats(0.5, 2.0),
    c=st.floats(0.7, 1.5),
)


class TestPhaseReuse:
    """One potential factor per station gives the two-evaluation loop's result."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 24), st.floats(-1.0, 1.0), st.floats(0.1, 2.0), _CONSTANTS)
    def test_callable_momentum(self, n_steps, x0, length, consts):
        grid = TimeGrid(-10.0, 10.0, 128)
        phi0 = gaussian_exact(GaussianParams(sigma=1.0, omega0=0.5), x0, grid, consts)
        f = lambda x, t: 0.5 * np.sin(t) * (1.0 + 0.2 * x)
        out = evolve_interacting(phi0, f, x0, x0 + length, n_steps, consts)
        looped = _two_evaluation_strang(phi0, f, x0, x0 + length, n_steps, consts)
        assert np.array_equal(out.values, looped)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 24), st.floats(0.2, 1.0), _CONSTANTS)
    def test_interaction_momentum(self, n_steps, amp, consts):
        tg = TimeGrid(-10.0, 10.0, 128)
        v = PotentialSpec.space_time(lambda x, t: amp * np.sin(2.0 * x) * np.exp(-(t**2) / 9.0))
        F = interaction_momentum(v, tg.t_min, TimeGrid(0.0, 2.0, 16), tg)
        phi0 = gaussian_exact(GaussianParams(sigma=1.0), 0.0, tg, consts)
        out = evolve_interacting(phi0, F, 0.0, 1.5, n_steps, consts)
        looped = _two_evaluation_strang(phi0, F, 0.0, 1.5, n_steps, consts)
        assert np.array_equal(out.values, looped)


class TestDysonSweep:
    """Both rows of the sweep are phases of the one U0 row; the reference is the
    per-coupling split step to roundoff."""

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.floats(1e-3, 0.2), min_size=1, max_size=4),
        st.integers(1, 40),
        st.floats(0.2, 2.0),
        _CONSTANTS,
    )
    def test_rows_equal_looped_calls(self, eps, n_steps, x_end, consts):
        grid = TimeGrid(-10.0, 10.0, 128)
        phi0 = gaussian_exact(GaussianParams(sigma=1.0), 0.0, grid, consts)
        g = PotentialSpec.time_profile(lambda t: 0.3 * np.cos(t))
        eta = lambda x: 1.0 + 0.5 * np.sin(np.asarray(x))
        ref, dy = dyson_sweep(phi0, g, eta, eps, 0.0, x_end, n_steps, consts)
        assert ref.shape == dy.shape == (len(eps), grid.n)
        # bit for bit: theta = eps (trapezoid of eta over the stations) / hbar c
        u0 = evolve_interacting(phi0, lambda x, t: np.real(g.v_t(t)) / consts.c, 0.0, x_end, n_steps, consts)
        xi = np.linspace(0.0, x_end, n_steps + 1)
        I_eta = cumulative_integral(eta(xi), xi, 0.0)[-1]
        theta = np.asarray(eps)[:, None] * I_eta / (consts.hbar * consts.c)
        assert np.array_equal(ref, unit_phase(-theta) * u0.values)
        assert np.array_equal(dy, (1.0 - 1j * theta) * u0.values)
        for k, e in enumerate(eps):
            # eta commutes with every Strang step, so the coupling-k split step
            # is the phase row up to roundoff (below 4e-15 in 300 random draws)
            def f_full(x, t, _e=e):
                return (np.real(g.v_t(t)) + _e * eta(x)) / consts.c

            one = evolve_interacting(phi0, f_full, 0.0, x_end, n_steps, consts)
            np.testing.assert_allclose(ref[k], one.values, rtol=0, atol=1e-13)
            one = dyson_first_order(phi0, g, eta, e, 0.0, x_end, n_steps, consts)
            assert np.array_equal(dy[k], one.values)

    def test_one_split_step_row_per_sweep(self, monkeypatch):
        calls = []

        def counted(values, *args):
            calls.append(np.shape(values))
            return split_step(values, *args)

        split_step = interaction._split_step
        monkeypatch.setattr(interaction, "_split_step", counted)
        phi0 = gaussian_exact(GaussianParams(sigma=1.0), 0.0, TimeGrid(-10.0, 10.0, 64))
        eta = lambda x: 1.0 + 0.5 * np.sin(np.asarray(x))
        ref, dy = dyson_sweep(phi0, PotentialSpec.time_profile(np.cos), eta, [0.01, 0.02, 0.05], 0.0, 1.0, 32)
        assert ref.shape == dy.shape == (3, 64)
        assert calls == [(64,)]

    def test_the_momentum_row_is_phased_once_per_sweep(self, monkeypatch):
        calls = []

        def counted(theta):
            calls.append(np.shape(theta))
            return phase(theta)

        phase = interaction.unit_phase
        monkeypatch.setattr(interaction, "unit_phase", counted)
        phi0 = gaussian_exact(GaussianParams(sigma=1.0), 0.0, TimeGrid(-10.0, 10.0, 64))
        eta = lambda x: 1.0 + 0.5 * np.sin(np.asarray(x))
        dyson_sweep(phi0, PotentialSpec.time_profile(np.cos), eta, [0.01, 0.02, 0.05], 0.0, 1.0, 32)
        # one half-step phase of the row g(t)/c, then the couplings' phases exp(-i theta_k)
        assert calls == [(64,), (3, 1)]

    @pytest.mark.parametrize("n_steps", [7, 255, 256])
    @pytest.mark.parametrize(
        "consts", [PhysicalConstants(), PhysicalConstants(hbar=0.7, m=1.3, c=1.4)], ids=["natural", "scaled"]
    )
    def test_error_is_the_exact_first_order_truncation(self, n_steps, consts):
        # eta is a scalar at each station, so the reference is exp(-i theta) U0 phi0
        # with theta = eps (trapezoid of eta) / hbar c; U0 is unitary
        grid = TimeGrid(-20.0, 20.0, 1024)
        phi0 = gaussian_exact(GaussianParams(sigma=1.0), 0.0, grid, consts)
        g = PotentialSpec.time_profile(lambda t: 0.3 * np.cos(t))
        eta = lambda x: 1.0 + 0.5 * np.sin(np.asarray(x))
        eps = np.array([0.005, 0.01, 0.02, 0.05])
        ref, dy = dyson_sweep(phi0, g, eta, eps, 0.0, 1.0, n_steps, consts)
        err = np.sqrt(grid.dt * np.sum(np.abs(ref - dy) ** 2, axis=1))
        xi = np.linspace(0.0, 1.0, n_steps + 1)
        theta = eps * np.trapezoid(eta(xi), xi) / (consts.hbar * consts.c)
        exact = np.abs(np.exp(-1j * theta) - 1.0 + 1j * theta) * phi0.norm()
        np.testing.assert_allclose(err, exact, rtol=1e-11, atol=0)

    def test_odd_step_sweeps_share_one_multiplier(self):
        # the sweep steps U0 alone, with one step size
        phi0 = gaussian_exact(GaussianParams(sigma=1.0), 0.0, TimeGrid(-10.0, 10.0, 64))
        g = PotentialSpec.time_profile(np.cos)
        eta = lambda x: 1.0 + 0.5 * np.sin(np.asarray(x))
        kinetic_multiplier.cache_clear()
        for _ in range(2):
            dyson_sweep(phi0, g, eta, [0.01, 0.02], 0.0, 1.0, 255)
        info = kinetic_multiplier.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_scalar_eta_equals_the_sampled_constant(self):
        # a constant eta may return a Python float; the sweep broadcasts it
        phi0 = gaussian_exact(GaussianParams(sigma=1.0), 0.0, TimeGrid(-10.0, 10.0, 64))
        g = PotentialSpec.time_profile(np.cos)
        scalar = dyson_sweep(phi0, g, lambda x: 1.0, [0.01, 0.02], 0.0, 1.0, 16)
        sampled = dyson_sweep(phi0, g, lambda x: np.full(np.shape(x), 1.0), [0.01, 0.02], 0.0, 1.0, 16)
        assert all(np.array_equal(a, b) for a, b in zip(scalar, sampled))
        one = dyson_first_order(phi0, g, lambda x: 1.0, 0.02, 0.0, 1.0, 16)
        assert np.array_equal(one.values, sampled[1][1])

    def test_complex_perturbation_rejected(self):
        phi0 = gaussian_exact(GaussianParams(sigma=1.0), 0.0, TimeGrid(-10.0, 10.0, 64))
        g = PotentialSpec.time_profile(np.cos)
        with pytest.raises(ValueError, match="complex perturbation eta"):
            dyson_sweep(phi0, g, lambda x: 1j + 0.0 * np.asarray(x), [0.1, 0.2], 0.0, 1.0, 8)

    def test_complex_time_profile_rejected(self):
        phi0 = gaussian_exact(GaussianParams(sigma=1.0), 0.0, TimeGrid(-10.0, 10.0, 64))
        g = PotentialSpec.time_profile(lambda t: 0.3 * np.cos(t) + 0.1j * np.sin(t))
        eta = lambda x: 1.0 + 0.5 * np.sin(np.asarray(x))
        with pytest.raises(ValueError, match="complex time profile"):
            dyson_sweep(phi0, g, eta, [0.1, 0.2], 0.0, 1.0, 8)
        with pytest.raises(ValueError, match="complex time profile"):
            dyson_first_order(phi0, g, eta, 0.1, 0.0, 1.0, 8)


class TestDysonFirstOrder:
    def _setup(self):
        grid = TimeGrid(-20.0, 20.0, 512)
        phi0 = gaussian_exact(GaussianParams(sigma=1.0), 0.0, grid)
        g = PotentialSpec.time_profile(lambda t: 0.3 * np.cos(t))
        return grid, phi0, g

    def test_zero_coupling_is_unperturbed(self):
        grid, phi0, g = self._setup()
        eta = lambda x: 1.0 + 0.5 * np.sin(np.asarray(x))
        dy = dyson_first_order(phi0, g, eta, 0.0, 0.0, 1.0, 128)
        ref = dyson_first_order(phi0, g, lambda x: np.zeros_like(np.asarray(x)), 1.0, 0.0, 1.0, 128)
        np.testing.assert_allclose(dy.values, ref.values, atol=1e-14)

    def test_constant_perturbation_quadratic_error(self):
        # for eta = const the exact answer is a pure phase; the first-order
        # truncation error must scale as the coupling squared
        grid, phi0, g = self._setup()
        eta0 = 1.0
        errs = []
        for eps in (0.02, 0.01):
            u0 = dyson_first_order(phi0, g, lambda x: np.zeros_like(np.asarray(x)), 1.0, 0.0, 1.0, 128)
            exact = np.exp(-1j * eps * eta0 * 1.0) * u0.values
            dy = dyson_first_order(phi0, g, lambda x: np.full(np.shape(x), eta0), eps, 0.0, 1.0, 128)
            errs.append(np.sqrt(grid.dt * np.sum(np.abs(dy.values - exact) ** 2)))
        assert 3.2 <= errs[0] / errs[1] <= 4.8

    def test_error_against_split_step_quadratic(self):
        grid, phi0, g = self._setup()
        eta = lambda x: 1.0 + 0.5 * np.sin(np.asarray(x))
        errs = []
        for eps in (0.02, 0.01):
            def f_full(x, t, _e=eps):
                return np.real(g.v_t(t)) + _e * eta(x)

            ref = evolve_interacting(phi0, f_full, 0.0, 1.0, 128)
            dy = dyson_first_order(phi0, g, eta, eps, 0.0, 1.0, 128)
            errs.append(np.sqrt(grid.dt * np.sum(np.abs(ref.values - dy.values) ** 2)))
        assert 3.2 <= errs[0] / errs[1] <= 4.8
