"""Tests for spectral x-evolution and the dispersing-Gaussian oracle."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carrollsch import (
    GaussianParams,
    PhysicalConstants,
    PotentialSpec,
    TimeGrid,
    Wavefunction,
    carrier_center,
    carroll_density_current,
    continuity_residual,
    effective_width,
    evolve_free,
    gaussian_exact,
    gaussian_field,
    measured_moments,
)
from carrollsch.numerics import spectral_derivative


def _random_packet(seed: int, grid: TimeGrid) -> Wavefunction:
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    return Wavefunction(x=0.0, grid=grid, values=vals)


class TestEvolveFree:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-10.0, 10.0))
    def test_unitary(self, seed, dx):
        psi = _random_packet(seed, TimeGrid(-8.0, 8.0, 128))
        assert evolve_free(psi, dx).norm() == pytest.approx(psi.norm(), rel=1e-12)

    def test_composition(self):
        psi = _random_packet(3, TimeGrid(-8.0, 8.0, 256))
        one = evolve_free(evolve_free(psi, 1.3), 0.9)
        two = evolve_free(psi, 2.2)
        np.testing.assert_allclose(one.values, two.values, atol=1e-12)
        assert one.x == pytest.approx(two.x)

    def test_inverse_step(self):
        psi = _random_packet(5, TimeGrid(-8.0, 8.0, 256))
        back = evolve_free(evolve_free(psi, 4.0), -4.0)
        np.testing.assert_allclose(back.values, psi.values, atol=1e-12)

    def test_matches_gaussian_oracle(self):
        params = GaussianParams(sigma=1.0)
        grid = TimeGrid(-40.0, 40.0, 2048)
        psi = gaussian_exact(params, 0.0, grid)
        evolved = evolve_free(psi, 3.0)
        exact = gaussian_exact(params, 3.0, grid)
        assert np.max(np.abs(evolved.values - exact.values)) < 1e-8

    def test_constants_passed_like_every_kernel(self):
        consts = PhysicalConstants(hbar=1.3, m=0.8, c=1.1)
        params = GaussianParams(sigma=1.0, omega0=1.5)
        grid = TimeGrid(-40.0, 60.0, 4096)
        evolved = evolve_free(gaussian_exact(params, 0.0, grid, consts), 3.0, consts)
        exact = gaussian_exact(params, 3.0, grid, consts)
        assert np.max(np.abs(evolved.values - exact.values)) < 1e-8

    def test_carrier_case_matches_oracle(self):
        params = GaussianParams(sigma=1.0, omega0=2.0)
        grid = TimeGrid(-40.0, 60.0, 4096)
        evolved = evolve_free(gaussian_exact(params, 0.0, grid), 4.0)
        exact = gaussian_exact(params, 4.0, grid)
        assert np.max(np.abs(evolved.values - exact.values)) < 1e-8


class TestGaussianExact:
    def test_normalized(self):
        grid = TimeGrid(-30.0, 30.0, 2048)
        for x in (0.0, 2.0, 5.0):
            psi = gaussian_exact(GaussianParams(sigma=1.0), x, grid)
            assert psi.norm() == pytest.approx(1.0, abs=1e-10)

    def test_width_growth(self):
        grid = TimeGrid(-40.0, 40.0, 2048)
        _, _, std = measured_moments(gaussian_exact(GaussianParams(sigma=1.0), 3.0, grid))
        # density profile exp(-t^2/w^2) has std w/sqrt(2)
        assert np.sqrt(2.0) * std == pytest.approx(effective_width(1.0, 3.0), rel=1e-8)

    def test_carrier_drift(self):
        omega0 = 2.0
        grid = TimeGrid(-40.0, 60.0, 4096)
        _, mean, _ = measured_moments(
            gaussian_exact(GaussianParams(sigma=1.0, omega0=omega0), 4.0, grid)
        )
        assert mean == pytest.approx(carrier_center(0.0, omega0, 4.0), abs=1e-8)

    def test_nontrivial_constants_thread_through(self):
        consts = PhysicalConstants(hbar=0.5, m=2.0, c=1.5)
        grid = TimeGrid(-30.0, 30.0, 2048)
        psi = gaussian_exact(GaussianParams(sigma=1.0), 2.0, grid, consts)
        _, _, std = measured_moments(psi)
        assert np.sqrt(2.0) * std == pytest.approx(
            effective_width(1.0, 2.0, consts), rel=1e-8
        )

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            GaussianParams(sigma=0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(0.3, 2.0),
        st.floats(-2.0, 2.0).filter(lambda t0: t0 != 0.0),
        st.floats(-3.0, 3.0).filter(lambda w0: w0 != 0.0),
        st.floats(-5.0, 5.0),
        st.sampled_from([8, 16, 32]),
        st.floats(0.5, 2.0),
        st.floats(0.5, 2.0),
        st.floats(0.7, 1.5),
    )
    def test_field_rows_equal_stations(self, sigma, t0, w0, x_min, n_x, hbar, m, c):
        consts = PhysicalConstants(hbar=hbar, m=m, c=c)
        params = GaussianParams(sigma=sigma, t0=t0, omega0=w0)
        xg = TimeGrid(x_min, x_min + 3.0, n_x)
        tg = TimeGrid(-15.0, 15.0, 64)
        field = gaussian_field(params, xg, tg, consts)
        rows = np.stack([gaussian_exact(params, x, tg, consts).values for x in xg.times])
        assert np.array_equal(field.values, rows)


class TestDensityCurrent:
    def test_free_density_equals_minus_current(self):
        grid = TimeGrid(-30.0, 30.0, 1024)
        psi = gaussian_exact(GaussianParams(sigma=1.0, omega0=1.0), 1.0, grid)
        rho, j_t = carroll_density_current(psi, PotentialSpec.zero())
        np.testing.assert_array_equal(rho, -j_t)

    def test_potential_term_shifts_density_only(self):
        grid = TimeGrid(-30.0, 30.0, 1024)
        psi = gaussian_exact(GaussianParams(sigma=1.0, omega0=1.0), 1.0, grid)
        rho0, j0 = carroll_density_current(psi, PotentialSpec.zero())
        v0 = 0.7
        rho1, j1 = carroll_density_current(psi, PotentialSpec.constant(v0))
        np.testing.assert_array_equal(j0, j1)
        np.testing.assert_allclose(rho1 - rho0, v0 * psi.density(), atol=1e-12)

    def test_continuity_residual_second_order(self):
        params = GaussianParams(sigma=1.0, omega0=1.0)
        grid = TimeGrid(-40.0, 40.0, 2048)
        res = []
        for dx in (0.1, 0.05):
            a = gaussian_exact(params, 1.0, grid)
            b = gaussian_exact(params, 1.0 + dx, grid)
            res.append(continuity_residual(a, b, PotentialSpec.zero()))
        assert res[0] / res[1] == pytest.approx(4.0, rel=0.2)

    def test_continuity_residual_is_total_current_form(self):
        # d_x |psi|^2 + d_t [j_t - V |psi|^2 / mc^3], written out with j_t
        params = GaussianParams(sigma=1.0, omega0=1.0)
        grid = TimeGrid(-40.0, 40.0, 2048)
        for v in (PotentialSpec.zero(), PotentialSpec.time_profile(lambda t: 0.3 * np.cos(t))):
            for dx in (0.1, 0.05):
                a = gaussian_exact(params, 1.0, grid)
                b = gaussian_exact(params, 1.0 + dx, grid)
                V = v.v_t(grid.times)

                def total(psi, hbar=1.0, mc3=1.0):
                    im = np.imag(np.conj(psi.values) * psi.dt_values())
                    return hbar / mc3 * im - V * psi.density() / mc3

                j_mid = 0.5 * (total(a) + total(b))
                dj = np.real(spectral_derivative(j_mid, grid))
                drho_dx = (b.density() - a.density()) / (b.x - a.x)
                expected = float(np.max(np.abs(drho_dx + dj)))
                assert continuity_residual(a, b, v) == expected

    def test_coincident_stations_rejected(self):
        grid = TimeGrid(-10.0, 10.0, 256)
        psi = gaussian_exact(GaussianParams(sigma=1.0), 0.0, grid)
        with pytest.raises(ValueError):
            continuity_residual(psi, psi, PotentialSpec.zero())
