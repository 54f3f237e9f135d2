"""Unit tests for grids, transforms, stencils and quadrature."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carrollsch import PhysicalConstants, PotentialSpec, dyson_sweep, evolve_interacting, trace_ray
from carrollsch.numerics import (
    GridError,
    TimeGrid,
    cubic_hermite,
    cumulative_integral,
    deriv_uniform,
    integrate_fundamental_pair,
    interior,
    inverse_transform,
    kinetic_multiplier,
    rk4,
    rk4_sums,
    schwarzian_samples,
    slope_and_schwarzian,
    spectral_multiply,
    spectral_product,
    unit_phase,
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

    @pytest.mark.parametrize(
        "t_min, t_max, n",
        [
            (0.0, math.inf, 8), (-math.inf, 0.0, 8), (-1e308, 1e308, 8), (0.0, 5e-324, 8),
            (0.0, 1.0, 8.0), (0.0, 1.0, "8"),
        ],
        ids=["infinite-end", "infinite-start", "overflowing-width", "zero-spacing", "float-n", "str-n"],
    )
    def test_rejects_bad_spacing_and_non_integer_n(self, t_min, t_max, n):
        with pytest.raises(GridError):
            TimeGrid(t_min, t_max, n)

    def test_numpy_integer_n(self):
        assert TimeGrid(0.0, 1.0, np.int64(8)).times.tolist() == TimeGrid(0.0, 1.0, 8).times.tolist()

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


class TestKineticMultiplier:
    @pytest.mark.parametrize(
        "grid, constants, h",
        [
            (TimeGrid(-8.0, 8.0, 128), PhysicalConstants(), 0.1),
            (TimeGrid(-40.0, 60.0, 4096), PhysicalConstants(hbar=1.3, m=0.8, c=1.1), 3.0),
            (TimeGrid(0.0, 1.0, 8), PhysicalConstants(hbar=1.3, m=0.8, c=1.1), -0.37),
            (TimeGrid(-256.0, 256.0, 2**16), PhysicalConstants(), 0.0),
        ],
    )
    def test_equals_the_inline_expression(self, grid, constants, h):
        beta = constants.beta
        m = kinetic_multiplier(grid, beta, h)
        assert np.array_equal(m, np.exp(-1j * beta * h * grid.omegas**2))

    def test_read_only(self):
        m = kinetic_multiplier(TimeGrid(-8.0, 8.0, 128), 0.5, 0.1)
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0] = 0.0
        with pytest.raises(ValueError):
            m *= 2.0

    def test_repeated_key_reuses_the_array(self):
        first = kinetic_multiplier(TimeGrid(-8.0, 8.0, 128), 0.5, 0.1)
        assert kinetic_multiplier(TimeGrid(-8.0, 8.0, 128), 0.5, 0.1) is first


class TestSpectralProduct:
    @pytest.mark.parametrize("shape", [(128,), (3, 64), (2**15,), (3, 2**13)])
    def test_bits_of_the_inline_expression(self, shape):
        # the last two are 256 KiB or more, where numpy forms m * fft(v) in
        # the transform's buffer with the operands swapped, which moves bits
        rng = np.random.default_rng(21)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m = kinetic_multiplier(TimeGrid(-8.0, 8.0, shape[-1]), 0.5, 0.3)
        ref = m * np.fft.fft(v)  # outside an assert, which would keep the temporary alive
        spec = spectral_product(v, m)
        assert np.array_equal(spec, ref)
        assert np.array_equal(inverse_transform(spec), np.fft.ifft(ref))
        assert np.array_equal(spectral_multiply(v, m), np.fft.ifft(ref))


class TestSchwarzian:
    def test_samples_are_the_expression_of_three_stencils(self):
        x = np.linspace(0.1, 1.0, 200)
        h = x[1] - x[0]
        f = np.arctan(1.0 / x)
        f1, f2, f3 = (deriv_uniform(f, h, k) for k in (1, 2, 3))
        slope, s = slope_and_schwarzian(f, h)
        assert np.array_equal(slope, f1) and np.array_equal(s, f3 / f1 - 1.5 * (f2 / f1) ** 2)
        assert np.array_equal(schwarzian_samples(f, h), s)


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

    @pytest.mark.parametrize("n", [0, -5])
    def test_rejects_fewer_than_one_step(self, n):
        with pytest.raises(ValueError, match=f"need at least one step, got n = {n}"):
            integrate_fundamental_pair(lambda x: 0 * x, 0.0, 1.0, n)

    def test_one_step_is_exact_for_zero_q(self):
        pair = integrate_fundamental_pair(lambda x: 0 * x, 0.0, 2.0, 1)
        assert pair.y1.tolist() == [1.0, 1.0] and pair.y2.tolist() == [0.0, 2.0]
        assert pair.y1_prime.tolist() == [0.0, 0.0] and pair.y2_prime.tolist() == [1.0, 1.0]

    def test_rejects_nonfinite_q(self):
        with np.errstate(divide="ignore"), pytest.raises(ValueError):
            integrate_fundamental_pair(lambda x: 1.0 / (x - 0.5), 0.0, 1.0, 64)

    def test_rejects_complex_q(self):
        # a complex q used to be truncated to its real part with a ComplexWarning
        with pytest.raises(ValueError, match="real"):
            integrate_fundamental_pair(lambda x: (1 + 0.5j) * np.ones_like(x), 0.0, 1.0, 32)

    def test_fault_names_first_bad_value_and_x(self):
        # q is sampled on nodes, midpoints and step ends; the report is the
        # bad sample of smallest x, here the midpoint 0.5 + h/2 before the node 0.6
        with pytest.raises(ValueError, match=r"got nan at x = 0\.55$"):
            integrate_fundamental_pair(lambda x: np.where(x < 0.55, 1.0, np.nan), 0.0, 1.0, 10)
        with pytest.raises(ValueError, match=r"got \(1\+0\.5j\) at x = 0\.0$"):
            integrate_fundamental_pair(lambda x: (1 + 0.5j) * np.ones_like(x), 0.0, 1.0, 32)

    def test_complex_q_with_zero_imaginary_part_is_the_real_q(self):
        # the one rule of real_samples: only a nonzero imaginary part is rejected
        pair = integrate_fundamental_pair(lambda x: (2 + 0j) * np.ones_like(x), 0.0, 2.0, 256)
        ref = integrate_fundamental_pair(lambda x: 2.0 * np.ones_like(x), 0.0, 2.0, 256)
        for name in ("y1", "y1_prime", "y2", "y2_prime"):
            assert np.array_equal(getattr(pair, name), getattr(ref, name))

    def test_scalar_q_is_broadcast(self):
        pair = integrate_fundamental_pair(lambda x: 1.0, 0.0, 2.0, 256)
        ref = integrate_fundamental_pair(lambda x: np.ones_like(x), 0.0, 2.0, 256)
        for name in ("y1", "y1_prime", "y2", "y2_prime"):
            assert np.array_equal(getattr(pair, name), getattr(ref, name))


@pytest.mark.parametrize("n", [0, -2])
@pytest.mark.parametrize("kernel", ["trace_ray", "integrate_fundamental_pair", "evolve_interacting", "dyson_sweep"])
def test_every_stepper_rejects_fewer_than_one_step(kernel, n):
    # RK4 (rays, the pair) and the split step (x-evolution, Dyson) each check their count once, with one message
    phi0 = Wavefunction(0.0, TimeGrid(-4.0, 4.0, 16), np.ones(16))
    run = {
        "trace_ray": lambda: trace_ray(PotentialSpec.zero(), 0.0, 0.0, 0.0, 1.0, n),
        "integrate_fundamental_pair": lambda: integrate_fundamental_pair(lambda x: 0 * x, 0.0, 1.0, n),
        "evolve_interacting": lambda: evolve_interacting(phi0, lambda x, t: 0 * t, 0.0, 1.0, n),
        "dyson_sweep": lambda: dyson_sweep(phi0, PotentialSpec.time_profile(np.cos), np.sin, [0.1], 0.0, 1.0, n),
    }[kernel]
    with pytest.raises(ValueError, match=f"^need at least one step, got n = {n}$"):
        run()


def _array_rk4(rhs, s0, xs, h):
    """RK4 on a numpy-array state with rhs(x, s) at each stage's x: the loop
    that `numerics.rk4` replaced, kept as its bit-equality reference."""
    s = np.asarray(s0, dtype=float)
    out = [s]
    for x in xs[:-1]:
        k1 = rhs(x, s)
        k2 = rhs(x + 0.5 * h, s + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h, s + 0.5 * h * k2)
        k4 = rhs(x + h, s + h * k3)
        s = s + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(s)
    return np.array(out)


def _duality_q(v, e_sch):
    # the q that inverse_tau integrates, with m = hbar = 1
    return lambda x: -(2.0 * (v.v_x(x) - e_sch))


class TestFloatStateRK4:
    """The float-state RK4 and its up-front samples reproduce the array loop bit for bit.

    The cosine and ray grids have a step that is not a dyadic fraction, so
    x_k + h differs from x_{k+1} at some steps.
    """

    @pytest.mark.parametrize(
        "q, x_lo, x_hi, n",
        [
            (_duality_q(PotentialSpec.space_profile(lambda x: 0.5 * x**2), 0.25), -1.5, 1.5, 8192),
            (_duality_q(PotentialSpec.space_profile(lambda x: -1.0 / x), -0.5), 0.5, 3.0, 2048),
            (lambda x: 1.3 + 0.7 * np.cos(2.1 * x), -1.0, 3.7, 2048),
        ],
        ids=["harmonic", "coulomb-like", "cosine"],
    )
    def test_pair_matches_array_loop(self, q, x_lo, x_hi, n):
        def rhs(x, s):
            qx = float(q(np.asarray(x)))
            return np.array([s[1], -qx * s[0], s[3], -qx * s[2]])

        pair = integrate_fundamental_pair(q, x_lo, x_hi, n)
        h = (x_hi - x_lo) / n
        ref = _array_rk4(rhs, [1.0, 0.0, 0.0, 1.0], pair.x, h)
        for i, name in enumerate(("y1", "y1_prime", "y2", "y2_prime")):
            assert np.array_equal(getattr(pair, name), ref[:, i]), name

    @pytest.mark.parametrize(
        "v, x0, x_end, n_steps",
        [
            (PotentialSpec.space_profile(lambda x: x, lambda x: np.ones_like(x)), 0.0, 1.3, 256),
            (PotentialSpec.space_profile(lambda x: 3.0 * x**2, lambda x: 6.0 * x), 0.0, 1.3, 4096),
            (PotentialSpec.space_profile(lambda x: 1.5 * x**2), 0.0, 1.3, 1024),
            (PotentialSpec.space_profile(np.sin, np.cos), 0.0, 1.3, 1024),
            (PotentialSpec.space_profile(lambda x: 3.0 * x**2, lambda x: 6.0 * x), 0.4, -1.3, 1000),
            (
                PotentialSpec.separable(lambda x: 0.2 * x, np.sin, da=lambda x: np.full_like(x, 0.2)),
                0.0,
                1.3,
                1024,
            ),
            (PotentialSpec.time_profile(np.cos, lambda t: -np.sin(t)), 0.0, 1.3, 1024),
            (PotentialSpec.time_profile(np.cos, lambda t: -np.sin(t)), 0.4, -1.3, 1000),
        ],
        ids=[
            "linear", "quadratic", "fd-quadratic", "sine", "downward", "separable", "time-only",
            "time-only-downward",
        ],
    )
    def test_ray_matches_array_loop(self, v, x0, x_end, n_steps):
        """V of x alone is sampled up front, V(x, t) per stage; both equal the
        loop that evaluates the gradient at each stage's (x, t)."""

        def rhs(x, s):
            return np.array([-s[1], v.dvdx_at(x, s[0])])

        ray = trace_ray(v, x0, 0.25, 0.7, x_end, n_steps)
        ref = _array_rk4(rhs, [0.25, 0.7], ray.x, (x_end - x0) / n_steps)
        assert np.array_equal(ray.t, ref[:, 0])
        assert np.array_equal(ray.q, ref[:, 1])

    @pytest.mark.parametrize(
        "h, d", [(0.013, 1.0648), (-0.0017, 0.3), (0.3, 1.0648)], ids=["upward", "downward", "long-step"]
    )
    def test_sums_match_float_loop(self, h, d):
        """The running sums equal `rk4` with the slope g[stage][k] for any samples g."""
        g = tuple(np.random.default_rng(16).normal(size=(3, 777)))
        t, q = rk4_sums(g, 0.25, -0.6, h, d)
        ref_t, ref_q = rk4(lambda g, a: g, [u.tolist() for u in g], 0.25, -0.6, h, d)
        assert np.array_equal(t, ref_t)
        assert np.array_equal(q, ref_q)


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

    @staticmethod
    def _one_expression(v, dx, axis):
        """The first derivative with each region written as one array expression."""
        u = np.swapaxes(v, axis, 0)
        out = np.empty_like(u)
        out[2:-2] = (u[:-4] - 8 * u[1:-3] + 8 * u[3:-1] - u[4:]) / (12 * dx)
        out[:2] = (-3 * u[:2] + 4 * u[1:3] - u[2:4]) / (2 * dx)
        out[-2:] = (3 * u[-2:] - 4 * u[-3:-1] + u[-4:-2]) / (2 * dx)
        return np.swapaxes(out, 0, axis)

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_first_order_is_the_one_expression(self, dtype, axis, layout):
        """The interior is the one array expression, as for orders 2 and 3: the
        bits of the reference, on either layout along either axis, signed zeros included."""
        rng = np.random.default_rng(3)
        v = rng.standard_normal((40, 33)).astype(dtype)
        if dtype is complex:
            v = v + 1j * rng.standard_normal((40, 33))
        v[10:17] = -0.0  # stencils over signed zeros, along either axis
        v[:, 20:26] = -v[:, 20:26] * 0.0
        v = np.asarray(v, order=layout)
        d = deriv_uniform(v, self.h, 1, axis=axis)
        assert d.dtype == v.dtype
        assert d.tobytes() == self._one_expression(v, self.h, axis).tobytes()

    @staticmethod
    def _divided(v, dx, order, axis):
        """Orders 2 and 3 with each region's sum divided by its scale, as written."""
        u = np.swapaxes(v, axis, 0)
        out = np.empty_like(u)
        if order == 2:
            out[2:-2] = (-u[:-4] + 16 * u[1:-3] - 30 * u[2:-2] + 16 * u[3:-1] - u[4:]) / (12 * dx * dx)
            out[:2] = (2 * u[:2] - 5 * u[1:3] + 4 * u[2:4] - u[3:5]) / (dx * dx)
            out[-2:] = (2 * u[-2:] - 5 * u[-3:-1] + 4 * u[-4:-2] - u[-5:-3]) / (dx * dx)
        else:
            out[3:-3] = (u[:-6] - 8 * u[1:-5] + 13 * u[2:-4] - 13 * u[4:-2] + 8 * u[5:-1] - u[6:]) / (8 * dx**3)
            out[:3] = (-2.5 * u[:3] + 9 * u[1:4] - 12 * u[2:5] + 7 * u[3:6] - 1.5 * u[4:7]) / dx**3
            out[-3:] = (2.5 * u[-3:] - 9 * u[-4:-1] + 12 * u[-5:-2] - 7 * u[-6:-3] + 1.5 * u[-7:-4]) / dx**3
        return np.swapaxes(out, 0, axis)

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("order", [2, 3])
    def test_complex_higher_orders_are_the_division(self, order, axis, layout):
        """A complex stencil scaled by its exact complex reciprocal has the bits of
        the division, on either layout along either axis, signed zeros included."""
        rng = np.random.default_rng(order)
        v = rng.standard_normal((40, 33)) + 1j * rng.standard_normal((40, 33))
        v[10:17] = -0.0
        v[:, 20:26] = -v[:, 20:26] * 0.0
        v = np.asarray(v, order=layout)
        d = deriv_uniform(v, self.h, order, axis=axis)
        assert d.tobytes() == self._divided(v, self.h, order, axis).tobytes()

    @pytest.mark.parametrize("dx", [0.125, 1.7, 40.0])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_underflowing_parts_keep_their_signs(self, order, dx):
        """Scales of 2 and more (12 dx = 20.4, dx**3 = 64000) shrink the far tail of a
        phase-dressed Gaussian below the smallest subnormal; there the complex
        product would lose the sign of zero that the division keeps."""
        x = np.linspace(-30.0, 30.0, 64, endpoint=False)
        v = np.exp(-x[:, None] ** 2 - x**2 / 2) * np.exp(1j * (0.3 * x[:, None] - 0.7 * x))
        for axis in (0, 1):
            d = deriv_uniform(v, dx, order, axis=axis)
            expected = self._divided(v, dx, order, axis) if order > 1 else self._one_expression(v, dx, axis)
            assert d.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_infinite_samples_are_the_division(self, order):
        """With +-inf samples the values equal the division's (NaN where it has NaN)
        and every non-NaN entry has its sign; a NaN's sign and payload are free."""
        rng = np.random.default_rng(7)
        v = rng.standard_normal((30, 20)) + 1j * rng.standard_normal((30, 20))
        v[12, 3] = np.inf
        v[4, 9] = complex(-np.inf, 1.0)
        v[20, 15] = complex(0.5, np.inf)
        v[25, 0] = complex(-np.inf, -np.inf)
        with np.errstate(invalid="ignore"):
            d = deriv_uniform(v, self.h, order, axis=0)
            expected = self._divided(v, self.h, order, 0) if order > 1 else self._one_expression(v, self.h, 0)
        assert np.isnan(expected).any() and np.isinf(expected.view(float)).any()
        assert np.array_equal(d, expected, equal_nan=True)
        d, expected = d.view(float), expected.view(float)
        real = ~np.isnan(expected)
        assert np.array_equal(np.isnan(d), ~real)
        assert np.array_equal(np.signbit(d[real]), np.signbit(expected[real]))


class TestUnitPhase:
    def test_is_the_exponential_of_the_imaginary_phase(self):
        """cos and sin in one buffer equal np.exp of the complex 0 + i theta, signed zeros included."""
        rng = np.random.default_rng(4)
        theta = np.concatenate(
            [rng.standard_normal(4096) * s for s in (1e-300, 1e-8, 1.0, 1e3, 1e6)]
            + [np.array([0.0, -0.0, 5e-324, -5e-324, np.pi, -np.pi, 1e-310, -1e-310])]
        ).reshape(2, -1)
        z = np.zeros(theta.shape, dtype=complex)
        z.imag = theta
        assert unit_phase(theta).tobytes() == np.exp(z).tobytes()


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

    @staticmethod
    def _one_expression(values, ts, idx, axis):
        """The anchored running trapezoid as whole-array expressions."""
        y = np.moveaxis(values, axis, -1)
        F = np.cumsum(np.diff(ts) * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)
        F = np.concatenate((np.zeros(y.shape[:-1] + (1,), F.dtype), F), axis=-1)
        return np.moveaxis(F - F[..., idx : idx + 1], -1, axis)

    @pytest.mark.parametrize("axis", [0, -1])
    @pytest.mark.parametrize("decreasing", [False, True])
    @pytest.mark.parametrize(
        "n, idx", [(41, 0), (41, 17), (41, 40), (1, 0), (2, 0), (2, 1)], ids=["0", "17", "40", "n1-0", "n2-0", "n2-1"]
    )
    @pytest.mark.parametrize("dtype", [float, complex, int])
    def test_in_place_build_is_the_one_expression(self, dtype, n, idx, decreasing, axis):
        """The sum is scipy's whole-array expression with its leading zero, bit
        for bit: anchor first, interior and last, on 1 and 2 samples too, and
        float for integer samples."""
        rng = np.random.default_rng(idx)
        ts = np.sort(rng.uniform(-2.0, 3.0, n))[:: -1 if decreasing else 1]
        y = rng.standard_normal((5, n)) * 100
        if dtype is complex:
            y = y + 1j * rng.standard_normal((5, n))
        y = y.astype(dtype)
        y[1] = -0.0
        values = np.moveaxis(y, -1, axis)
        F = cumulative_integral(values, ts, ts[idx], axis=axis)
        assert F.dtype == np.result_type(dtype, float)
        assert F.tobytes() == self._one_expression(values, ts, idx, axis).tobytes()
        assert np.all(np.take(F, idx, axis=axis) == 0.0)
        if n <= 2:  # F is [0] or [0, h (y0 + y1) / 2], less its value at the anchor
            F0 = np.stack([np.zeros(5)] + [(ts[-1] - ts[0]) * (y[:, 0] + y[:, -1]) / 2.0] * (n - 1), axis=-1)
            assert np.array_equal(np.moveaxis(F, axis, -1), F0 - F0[:, idx : idx + 1])


def _abscissae(rng, n):
    """n random strictly increasing abscissae, spacings drawn from [0.1, 1)."""
    return -3.0 + np.cumsum(rng.uniform(0.1, 1.0, n))


class TestCubicHermite:
    @pytest.mark.parametrize("n", [2, 3, 17, 256])
    def test_reproduces_cubics(self, n):
        """Given a cubic's values and exact slopes, every piece is that cubic, on and past the ends."""
        rng = np.random.default_rng(n)
        x = _abscissae(rng, n)
        for p in (np.polynomial.Polynomial(rng.normal(size=4)) for _ in range(3)):
            xv = np.concatenate((rng.uniform(x[0] - 0.5, x[-1] + 0.5, 200), x))
            want = p(xv)
            got = cubic_hermite(x, p(x), p.deriv()(x))(xv)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("n", [2, 5, 64, 2048])
    def test_node_values_are_bit_exact(self, n):
        """At every node s is 0 or 1, so the basis sum is the node value itself."""
        rng = np.random.default_rng(n)
        x = _abscissae(rng, n)
        y, d = rng.normal(size=n), 1e3 * rng.normal(size=n)
        hermite = cubic_hermite(x, y, d)
        assert np.array_equal(hermite(x), y)
        assert all(hermite(xk) == yk for xk, yk in zip(x, y))

    def test_output_shape(self):
        x = np.arange(6.0)
        hermite = cubic_hermite(x, x**2, 2 * x)
        assert hermite(np.ones((4, 2))).shape == (4, 2)
        assert hermite(2.5) == 6.25 and isinstance(float(hermite(2.5)), float)

    @pytest.mark.parametrize(
        "x, y, d, match",
        [
            (np.arange(1.0), np.zeros(1), np.zeros(1), "at least 2 samples"),
            (np.zeros((4, 2)), np.zeros(4), np.zeros(4), "at least 2 samples"),
            ([0.0, 1.0, 1.0, 2.0], np.zeros(4), np.zeros(4), "strictly increasing"),
            ([0.0, 2.0, 1.0, 3.0], np.zeros(4), np.zeros(4), "strictly increasing"),
            ([0.0, 1.0, np.nan, 3.0], np.zeros(4), np.zeros(4), "strictly increasing"),
            ([0.0, 1.0, 2.0, np.inf], np.zeros(4), np.zeros(4), "strictly increasing"),
            (np.arange(4.0), np.zeros(5), np.zeros(4), "shape of x"),
            (np.arange(4.0), np.zeros(4), np.zeros((4, 1)), "shape of x"),
            (np.arange(4.0), [0.0, np.nan, 0.0, 0.0], np.zeros(4), "non-finite"),
            (np.arange(4.0), np.zeros(4), [0.0, 0.0, np.inf, 0.0], "non-finite"),
        ],
    )
    def test_rejects_bad_input(self, x, y, d, match):
        with pytest.raises(ValueError, match=match):
            cubic_hermite(x, y, d)


class TestCumulativeTrapezoid:
    """Anchored at the first sample, the running trapezoid reproduces scipy's
    initial=0 result bit for bit."""

    @staticmethod
    def _scipy(y, x, axis=-1):
        from scipy.integrate import cumulative_trapezoid as reference

        return reference(y, x, axis=axis, initial=0.0)

    def test_real_1d(self):
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(-2.0, 3.0, 257))
        y = np.sin(3 * x) + rng.normal(size=x.size)
        assert np.array_equal(cumulative_integral(y, x, x[0]), self._scipy(y, x))

    def test_complex_1d(self):
        g = TimeGrid(0.0, 2 * np.pi, 512)
        y = np.exp(2j * np.cos(g.times))
        out = cumulative_integral(y, g.times, g.times[0])
        assert out.dtype == complex
        assert np.array_equal(out, self._scipy(y, g.times))

    def test_2d_axis1(self):
        rng = np.random.default_rng(2)
        x = np.linspace(-1.0, 1.0, 100)
        y = rng.normal(size=(7, 100))
        assert np.array_equal(cumulative_integral(y, x, x[0], axis=1), self._scipy(y, x, axis=1))

    def test_decreasing_1d(self):
        x = np.linspace(0.5, -1.5, 129)
        y = np.cos(2 * x)
        assert np.array_equal(cumulative_integral(y, x, x[0]), self._scipy(y, x))
        with pytest.raises(GridError, match=r"outside grid \[-1.5, 0.5\]"):
            cumulative_integral(y, x, anchor=1.0)


class TestInterior:
    def test_trims_a_1d_array(self):
        values = np.arange(32.0)
        assert np.array_equal(interior(values, 4), values[4:28])

    def test_zero_margin_keeps_every_sample(self):
        values = np.ones((16, 32))
        assert np.array_equal(interior(values, 0), values)

    @pytest.mark.parametrize("shape", [(16, 32), (32, 16), (16,)])
    def test_no_interior_rejected(self, shape):
        with pytest.raises(ValueError, match="grid has no interior"):
            interior(np.ones(shape), 8)
