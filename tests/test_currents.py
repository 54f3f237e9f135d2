"""Tests for the continuity-equation bridge between the two pictures."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid

from carrollsch import (
    Field2D,
    GaussianParams,
    PhysicalConstants,
    PotentialSpec,
    TimeGrid,
    coordinate_inversion,
    continuity_equivalence,
    gauge_reduce,
    gaussian_exact,
    schrodinger_density_current,
)
from carrollsch.numerics import GridError, deriv_uniform


def _static_gaussian_field(n: int, a: float = 1.0) -> Field2D:
    """Dispersing Gaussian in x evolving in t: an exact static-equation solution."""
    xg = TimeGrid(-12.0, 12.0, n)
    tg = TimeGrid(-12.0, 12.0, n)
    X, T = np.meshgrid(xg.times, tg.times, indexing="ij")
    D = 1.0 + 1j * T / (2 * a**2)
    vals = (2 * np.pi * a**2) ** (-0.25) / np.sqrt(D) * np.exp(-(X**2) / (4 * a**2 * D))
    return Field2D(xg, tg, vals)


def _free_carroll_field(n: int) -> Field2D:
    params = GaussianParams(sigma=1.0)
    tg = TimeGrid(-12.0, 12.0, n)
    xg = TimeGrid(-12.0, 12.0, n)
    vals = np.stack([gaussian_exact(params, x, tg).values for x in xg.times])
    return Field2D(xg, tg, vals)


class TestSchrodingerDensityCurrent:
    def test_exact_solution_conserves(self):
        f = _static_gaussian_field(256)
        rho, j = schrodinger_density_current(f)
        dt, dx = f.t_grid.dt, f.x_grid.dt
        res = deriv_uniform(rho, dt, 1, axis=1) + deriv_uniform(j, dx, 1, axis=0)
        assert np.max(np.abs(res[8:-8, 8:-8])) < 1e-5

    def test_density_is_modulus_squared(self):
        f = _static_gaussian_field(128)
        rho, _ = schrodinger_density_current(f)
        np.testing.assert_array_equal(rho, np.abs(f.values) ** 2)


class TestGaugeRemove:
    @settings(max_examples=15, deadline=None)
    @given(*(st.floats(-3.0, 3.0) for _ in range(3)), st.floats(0.1, 5.0))
    def test_modulus_preserved_exactly(self, a0, a1, b0, w):
        f = _free_carroll_field(128)
        v = PotentialSpec.separable(lambda x: a0 + a1 * x, lambda t: b0 + np.sin(w * t))
        g = gauge_reduce(f, v, f.t_grid.t_min)
        np.testing.assert_allclose(np.abs(g.values), np.abs(f.values), rtol=1e-14)

    def test_strips_constructed_phase(self):
        f = _free_carroll_field(128)
        t = f.t_grid.times
        phase = cumulative_trapezoid(np.sin(t), t, initial=0.0)
        dressed = Field2D(f.x_grid, f.t_grid, np.exp(1j * phase)[None, :] * f.values)
        v = PotentialSpec.time_profile(np.sin, np.cos)
        stripped = gauge_reduce(dressed, v, t[0])
        np.testing.assert_allclose(stripped.values, f.values, atol=1e-13)

    def test_offgrid_anchor_rejected(self):
        f = _free_carroll_field(64)
        with pytest.raises(GridError):
            gauge_reduce(f, PotentialSpec.time_profile(np.sin), 0.123456)


class TestCoordinateInversion:
    def test_transpose(self):
        f = _free_carroll_field(64)
        g = coordinate_inversion(f)
        np.testing.assert_array_equal(g.values, f.values.T)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.sampled_from([8, 32, 64]), st.floats(1.0, 20.0), st.floats(0.25, 4.0)
    )
    def test_involution(self, seed, n, half, c):
        rng = np.random.default_rng(seed)
        consts = PhysicalConstants(c=c)
        tg = TimeGrid(-half, half, n)
        xg = TimeGrid(-half * c, half * c, n)  # dx = c dt
        f = Field2D(xg, tg, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        g = coordinate_inversion(coordinate_inversion(f, consts), consts)
        np.testing.assert_array_equal(g.values, f.values)
        # the grids come back up to the roundoff of (a / c) * c
        for back, orig in ((g.x_grid, f.x_grid), (g.t_grid, f.t_grid)):
            assert back.n == orig.n
            np.testing.assert_allclose([back.t_min, back.t_max], [orig.t_min, orig.t_max], rtol=1e-15)

    def test_rescales_axes(self):
        consts = PhysicalConstants(c=2.0)
        xg = TimeGrid(-4.0, 4.0, 64)
        tg = TimeGrid(-2.0, 2.0, 64)  # dx = 2 dt = c dt
        f = Field2D(xg, tg, np.ones((64, 64)))
        g = coordinate_inversion(f, consts)
        assert g.x_grid.t_max == pytest.approx(4.0)  # c * t_max
        assert g.t_grid.t_max == pytest.approx(2.0)  # x_max / c

    def test_rejects_rectangular_grid(self):
        xg = TimeGrid(-4.0, 4.0, 64)
        tg = TimeGrid(-4.0, 4.0, 32)
        with pytest.raises(GridError):
            coordinate_inversion(Field2D(xg, tg, np.ones((64, 32))))

    def test_rejects_anisotropic_spacing(self):
        xg = TimeGrid(-4.0, 4.0, 64)
        tg = TimeGrid(-2.0, 2.0, 64)
        with pytest.raises(GridError):
            coordinate_inversion(Field2D(xg, tg, np.ones((64, 64))))


class TestContinuityEquivalence:
    def test_refinement_ratio(self):
        res = [continuity_equivalence(_free_carroll_field(n)) for n in (128, 256)]
        assert res[0] / res[1] >= 3.5

    def test_gauge_path_matches_free(self):
        # dress the free solution with the exact potential phase; removing the
        # same trapezoid integral cancels bit-for-bit
        f = _free_carroll_field(128)
        t = f.t_grid.times
        phase = cumulative_trapezoid(np.sin(t), t, initial=0.0)
        dressed = Field2D(f.x_grid, f.t_grid, np.exp(1j * phase)[None, :] * f.values)
        v = PotentialSpec.time_profile(np.sin, np.cos)
        r_free = continuity_equivalence(f)
        r_gauge = continuity_equivalence(dressed, v_car=v, t0=t[0])
        assert r_gauge == pytest.approx(r_free, rel=1e-10)
