"""Unit tests for grids, transforms, stencils and quadrature."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carrollsch.numerics import (
    GridError,
    TimeGrid,
    cumulative_integral,
    cumulative_trapezoid,
    deriv_uniform,
    integrate_fundamental_pair,
    schwarzian_samples,
)
from carrollsch.operators import Field2D
from carrollsch.propagator import Wavefunction


class TestTimeGrid:
    def test_samples_exclude_endpoint(self):
        g = TimeGrid(0.0, 1.0, 8)
        assert len(g.times) == 8
        assert g.times[0] == 0.0
        assert g.times[-1] == pytest.approx(1.0 - g.dt)

    def test_dt(self):
        assert TimeGrid(-2.0, 2.0, 16).dt == 0.25

    @pytest.mark.parametrize("n", [0, 4, 7, 12, 100])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(GridError):
            TimeGrid(0.0, 1.0, n)

    def test_rejects_degenerate_interval(self):
        with pytest.raises(GridError):
            TimeGrid(1.0, 1.0, 8)

    def test_omegas_wraparound_order(self):
        g = TimeGrid(0.0, 2 * np.pi, 8)
        assert g.omegas[0] == 0.0
        assert g.omegas[1] == pytest.approx(1.0)
        assert g.omegas[-1] == pytest.approx(-1.0)


class TestUnitaryDFT:
    def test_rejects_nonfinite(self):
        g = TimeGrid(0.0, 1.0, 8)
        v = np.ones(8, dtype=complex)
        v[3] = np.nan
        with pytest.raises(ValueError):
            Wavefunction(x=0.0, grid=g, values=v)
        # the two sample containers share one validator
        bad = [
            lambda: Wavefunction(x=0.0, grid=g, values=np.ones((8, 1))),
            lambda: Wavefunction(x=0.0, grid=g, values=np.full(8, complex(0.0, np.inf))),
            lambda: Field2D(g, TimeGrid(0.0, 1.0, 16), np.ones((16, 8))),
        ]
        for make in bad:
            with pytest.raises(ValueError):
                make()


class TestFundamentalPair:
    def test_oscillatory_solutions(self):
        pair = integrate_fundamental_pair(lambda x: np.ones_like(x), 0.0, 2 * np.pi, 2048)
        np.testing.assert_allclose(pair.y1, np.cos(pair.x), atol=1e-9)
        np.testing.assert_allclose(pair.y2, np.sin(pair.x), atol=1e-9)

    def test_hyperbolic_solutions(self):
        pair = integrate_fundamental_pair(lambda x: -np.ones_like(x), 0.0, 2.0, 1024)
        np.testing.assert_allclose(pair.y1, np.cosh(pair.x), rtol=1e-9)
        np.testing.assert_allclose(pair.y2, np.sinh(pair.x), atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.0, 4.0), st.floats(-1.0, 1.0), st.floats(0.5, 5.0))
    def test_wronskian_constant_one(self, a, b, k):
        pair = integrate_fundamental_pair(lambda x: a + b * np.cos(k * x), -1.0, 4.0, 2048)
        np.testing.assert_allclose(pair.wronskian, 1.0, atol=1e-10)

    def test_sample_count(self):
        pair = integrate_fundamental_pair(lambda x: 0 * x, 0.0, 1.0, 100)
        assert len(pair.x) == 101

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            integrate_fundamental_pair(lambda x: 0 * x, 1.0, 0.0, 10)

    def test_rejects_nonfinite_q(self):
        with np.errstate(divide="ignore"), pytest.raises(ValueError):
            integrate_fundamental_pair(lambda x: 1.0 / (x - 0.5), 0.0, 1.0, 64)

    def test_rejects_complex_q(self):
        # a complex q used to be truncated to its real part with a ComplexWarning
        with pytest.raises(ValueError, match="real"):
            integrate_fundamental_pair(lambda x: (1 + 0.5j) * np.ones_like(x), 0.0, 1.0, 32)


class TestSchwarzian:
    def test_sampled_matches_pointwise(self):
        # {tan x, x} = 2, {e^x, x} = -1/2, and a Moebius map gives 0
        x = np.linspace(0.2, 1.2, 501)
        cases = [(np.tan(x), 2.0), (np.exp(x), -0.5), ((2 * x + 1) / (x + 3), 0.0)]
        for values, expected in cases:
            s = schwarzian_samples(values, x[1] - x[0])
            np.testing.assert_allclose(s[5:-5], expected, atol=1e-5)


class TestDerivUniform:
    def setup_method(self):
        self.x = np.linspace(0.0, 2.0, 401)
        self.h = self.x[1] - self.x[0]
        self.v = np.sin(self.x)

    def test_first(self):
        d = deriv_uniform(self.v, self.h, 1)
        np.testing.assert_allclose(d[2:-2], np.cos(self.x[2:-2]), atol=1e-8)

    def test_second(self):
        d = deriv_uniform(self.v, self.h, 2)
        np.testing.assert_allclose(d[2:-2], -np.sin(self.x[2:-2]), atol=1e-7)

    def test_third(self):
        d = deriv_uniform(self.v, self.h, 3)
        np.testing.assert_allclose(d[3:-3], -np.cos(self.x[3:-3]), atol=1e-6)

    def test_third_exact_for_cubic(self):
        v = self.x**3
        d = deriv_uniform(v, self.h, 3)
        np.testing.assert_allclose(d, 6.0, atol=1e-8)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            deriv_uniform(self.v, self.h, 4)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_axis_matches_transpose(self, order, dtype):
        rng = np.random.default_rng(order)
        v = rng.standard_normal((12, 20)).astype(dtype)
        if dtype is complex:
            v = v + 1j * rng.standard_normal((12, 20))
        expected = deriv_uniform(v.T, self.h, order, axis=0).T
        for axis in (1, -1):
            assert np.array_equal(deriv_uniform(v, self.h, order, axis=axis), expected)


class TestCumulativeIntegral:
    def test_antiderivative(self):
        g = TimeGrid(0.0, 2 * np.pi, 1024)
        F = cumulative_integral(np.cos(g.times), g, anchor=0.0)
        np.testing.assert_allclose(F, np.sin(g.times), atol=1e-5)

    def test_anchor_shifts_constant(self):
        g = TimeGrid(0.0, 1.0, 64)
        mid = g.times[32]
        F = cumulative_integral(np.ones(64), g, anchor=mid)
        assert F[32] == 0.0

    def test_rejects_offgrid_anchor(self):
        g = TimeGrid(0.0, 1.0, 64)
        with pytest.raises(GridError):
            cumulative_integral(np.ones(64), g, anchor=0.33333)

    def test_rejects_outside_anchor(self):
        g = TimeGrid(0.0, 1.0, 64)
        with pytest.raises(GridError):
            cumulative_integral(np.ones(64), g, anchor=2.0)

    def test_axis_matches_rows(self):
        g = TimeGrid(0.0, 1.0, 64)
        rows = np.sin(np.arange(3)[:, None] + g.times[None, :])
        F = cumulative_integral(rows, g, anchor=g.times[10], axis=1)
        for r, row in zip(F, rows):
            assert np.array_equal(r, cumulative_integral(row, g, anchor=g.times[10]))
        assert np.all(F[:, 10] == 0.0)


class TestCumulativeTrapezoid:
    """The numpy running trapezoid reproduces scipy's initial=0 result bit for bit."""

    @staticmethod
    def _scipy(y, x, axis=-1):
        from scipy.integrate import cumulative_trapezoid as reference

        return reference(y, x, axis=axis, initial=0.0)

    def test_real_1d(self):
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(-2.0, 3.0, 257))
        y = np.sin(3 * x) + rng.normal(size=x.size)
        assert np.array_equal(cumulative_trapezoid(y, x), self._scipy(y, x))

    def test_complex_1d(self):
        g = TimeGrid(0.0, 2 * np.pi, 512)
        y = np.exp(2j * np.cos(g.times))
        out = cumulative_trapezoid(y, g.times)
        assert out.dtype == complex
        assert np.array_equal(out, self._scipy(y, g.times))

    def test_2d_axis1(self):
        rng = np.random.default_rng(2)
        x = np.linspace(-1.0, 1.0, 100)
        y = rng.normal(size=(7, 100))
        assert np.array_equal(cumulative_trapezoid(y, x, axis=1), self._scipy(y, x, axis=1))
