"""Tests for ultra-boost kinematics, ray tracing and Picard iteration."""
from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from carrollsch import (
    PhysicalConstants,
    PotentialSpec,
    TwoMomentum,
    carroll_relation_residual,
    picard_iterate,
    trace_ray,
    ultra_boost,
    ultra_boost_inverse,
)

finite = st.floats(-10.0, 10.0, allow_nan=False)


def _two_poles(x):
    """A gradient that is infinite at x = -0.2421875 and at x = 0.25."""
    return 1.0 / ((x + 0.2421875) * (x - 0.25))


class TestUltraBoost:
    @settings(max_examples=25, deadline=None)
    @given(finite, finite, finite, finite)
    def test_invariant_preserved(self, er, ei, pr, pi):
        p = TwoMomentum(E=complex(er, ei), P=complex(pr, pi))
        assert ultra_boost(p).invariant() == p.invariant()

    @settings(max_examples=25, deadline=None)
    @given(finite, finite)
    def test_inverse_composition(self, e, pmom):
        p = TwoMomentum(E=complex(e), P=complex(pmom))
        q = ultra_boost_inverse(ultra_boost(p))
        assert q.E == p.E and q.P == p.P

    def test_exchanges_components(self):
        p = TwoMomentum(E=3.0, P=2.0)
        b = ultra_boost(p)
        assert b.E == -2.0j and b.P == -3.0j

    def test_shell_mapping(self):
        # a boosted pair on the quadratic shell pulls back to the linear one
        for pmom in (0.3, 1.0, 2.7):
            shell = TwoMomentum(E=pmom**2 / 2.0, P=pmom)
            back = ultra_boost_inverse(shell)
            assert abs(carroll_relation_residual(back)) <= 1e-14

    def test_nontrivial_constants(self):
        consts = PhysicalConstants(hbar=1.0, m=2.0, c=1.5)
        p = TwoMomentum(E=complex(1.2, -0.3), P=complex(0.4, 0.8))
        drift = abs(ultra_boost(p, consts).invariant(consts) - p.invariant(consts))
        assert drift <= 1e-14


class TestDispersion:
    """The Carroll dispersion c p0 = E0^2/(2 m c^2), as carroll_relation_residual states it."""

    consts = PhysicalConstants(hbar=1.0, m=2.0, c=1.5)

    def test_energy_momentum_relation(self):
        for p0 in (0.3, 1.0, 2.7):
            e0 = np.sqrt(2 * self.consts.mc3 * p0)
            p = TwoMomentum(E=e0, P=-1j * p0)
            assert abs(carroll_relation_residual(p, self.consts)) <= 1e-14 * p0

    def test_sign_branch(self):
        # both energy branches sit on the shell; the momentum alone does not
        e0 = np.sqrt(2 * self.consts.mc3)
        for e in (e0, -e0):
            assert abs(carroll_relation_residual(TwoMomentum(E=e, P=-1j), self.consts)) <= 1e-14
        assert abs(carroll_relation_residual(TwoMomentum(E=e0, P=1j), self.consts)) == pytest.approx(2.0)


class TestTraceRay:
    def test_linear_potential_closed_form(self):
        v = PotentialSpec.space_profile(lambda x: x, lambda x: np.ones_like(x))
        ray = trace_ray(v, 0.0, 0.0, 0.0, 1.0, 256)
        np.testing.assert_allclose(ray.t, -ray.x**2 / 2.0, atol=1e-10)
        np.testing.assert_allclose(ray.q, ray.x, atol=1e-10)

    consts = PhysicalConstants(hbar=1.3, m=0.8, c=1.1)  # mc^3 = 1.0648

    @pytest.mark.parametrize("x0, x_end", [(0.3, 1.7), (0.3, -1.1)], ids=["upward", "downward"])
    def test_time_only_ray_is_the_free_line(self, x0, x_end):
        # d_x V = 0, so q stays q0 exactly and t = t0 - q0 (x - x0) / mc^3
        v = PotentialSpec.time_profile(np.cos, lambda t: -np.sin(t))
        ray = trace_ray(v, x0, 0.25, -0.6, x_end, 300, self.consts)
        assert np.all(ray.q == -0.6)
        np.testing.assert_allclose(ray.t, 0.25 + 0.6 * (ray.x - x0) / self.consts.mc3, rtol=0, atol=1e-14)

    @pytest.mark.parametrize(
        "a, b", [(0.0, 0.8), (1.5, 0.0), (1.5, 0.8)], ids=["linear", "quadratic", "quadratic-tilted"]
    )
    @pytest.mark.parametrize("x0, x_end", [(0.3, 1.7), (0.3, -1.1)], ids=["upward", "downward"])
    @pytest.mark.parametrize("n_steps", [1, 3, 300])
    def test_polynomial_ray_closed_form(self, a, b, x0, x_end, n_steps):
        # V = a x^2 + b x: q = q0 + V(x) - V(x0), and t, the exact cubic, is
        # t0 - [(q0 - V(x0)) (x - x0) + a (x^3 - x0^3) / 3 + b (x^2 - x0^2) / 2] / mc^3;
        # RK4 integrates both polynomials exactly, so only roundoff remains
        v = PotentialSpec.space_profile(lambda x: a * x**2 + b * x, lambda x: 2 * a * x + b)
        t0, q0 = 0.25, -0.6
        ray = trace_ray(v, x0, t0, q0, x_end, n_steps, self.consts)
        x, vx0 = ray.x, a * x0**2 + b * x0
        q = q0 + (a * x**2 + b * x) - vx0
        t = t0 - ((q0 - vx0) * (x - x0) + a * (x**3 - x0**3) / 3 + b * (x**2 - x0**2) / 2) / self.consts.mc3
        np.testing.assert_allclose(ray.q, q, rtol=0, atol=1e-13)
        np.testing.assert_allclose(ray.t, t, rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "v, per_stage",
        [
            (PotentialSpec.space_profile(lambda x: 3.0 * x**2, lambda x: 6.0 * x), False),
            (PotentialSpec.space_profile(np.sin), False),
            (PotentialSpec.time_profile(np.cos, lambda t: -np.sin(t)), False),
            (PotentialSpec.constant(2.0), False),
            (PotentialSpec.separable(lambda x: 0.2 * x, np.sin, da=lambda x: np.full_like(x, 0.2)), True),
        ],
        ids=["quadratic", "sine-fd", "time-only", "constant", "separable"],
    )
    def test_only_a_gradient_that_reads_t_steps_through_rk4(self, v, per_stage, monkeypatch):
        from carrollsch import classical

        calls, rk4 = [], classical.rk4

        def counted(*args, **kwargs):
            calls.append(len(args[1][0]))  # n: the stage-0 list holds the nodes that start a step
            return rk4(*args, **kwargs)

        monkeypatch.setattr(classical, "rk4", counted)
        trace_ray(v, 0.0, 0.25, 0.7, 1.3, 64)
        assert calls == ([64] if per_stage else [])

    def test_constraint_identically_zero(self):
        v = PotentialSpec.space_profile(np.sin, np.cos)
        ray = trace_ray(v, 0.0, 0.3, 0.5, 2.0, 128)
        # -c p_x + q^2/(2 m c^2) = 0: p_x is recorded as q^2/(2 m c^3) at every sample
        assert np.array_equal(ray.p_x, ray.q**2 / 2.0)

    @pytest.mark.parametrize("n_steps", [0, -3])
    def test_too_few_steps_rejected(self, n_steps):
        with pytest.raises(ValueError, match=f"need at least one step, got n = {n_steps}"):
            trace_ray(PotentialSpec.zero(), 0.0, 0.0, 0.0, 1.0, n_steps)

    def test_nonfinite_gradient_rejected(self):
        v = PotentialSpec.space_profile(lambda x: 1.0 / x, lambda x: -1.0 / x**2)
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="non-finite at x = 0.0"):
            trace_ray(v, -0.5, 0.0, 0.0, 0.5, 64)

    @pytest.mark.parametrize(
        "v",
        [
            PotentialSpec.space_profile(lambda x: x, _two_poles),
            PotentialSpec.separable(lambda x: x, np.cos, da=_two_poles),
        ],
        ids=["up-front", "per-stage"],
    )
    @pytest.mark.parametrize(
        "x0, x_end, first", [(-0.5, 0.5, -0.2421875), (0.5, -0.5, 0.25)], ids=["upward", "downward"]
    )
    def test_nonfinite_gradient_names_the_first_x_reached(self, v, x0, x_end, first):
        # h = +-1/64: -0.2421875 is the midpoint of step 16 of the upward ray,
        # reached before the node 0.25; the downward ray reaches 0.25 first
        fault = rf"at x = {re.escape(str(first))}$"
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match=fault):
            trace_ray(v, x0, 0.0, 0.0, x_end, 64)


class TestPicard:
    def test_free_line_is_iterate_zero(self):
        xs, its = picard_iterate(PotentialSpec.zero(), 0.0, 0.2, 0.5, 2.0, 1)
        np.testing.assert_allclose(its[0], 0.2 - 0.5 * xs, atol=1e-14)

    def test_space_only_fixed_point(self):
        v = PotentialSpec.space_profile(np.sin, np.cos)
        xs, its = picard_iterate(v, 0.0, 0.0, 0.3, 2.0, 3, n_samples=512)
        # the gradient does not depend on t, so the first sweep is stationary
        assert np.array_equal(its[1], its[2])
        assert np.array_equal(its[2], its[3])
        ref = -(0.3 * xs + 1.0 - np.cos(xs))
        np.testing.assert_allclose(its[1], ref, atol=1e-4)

    def test_reversed_direction_matches_running_trapezoid(self):
        # x_end < x0 integrates right to left, as scipy's running trapezoid does
        from scipy.integrate import cumulative_trapezoid

        v = PotentialSpec.separable(lambda x: 0.2 * x, np.sin, da=lambda x: 0.2 * np.ones_like(x))
        xs, its = picard_iterate(v, 0.0, 0.5, 0.3, -1.0, 2, n_samples=256)
        assert xs[0] == 0.0 and xs[-1] == -1.0
        for prev, new in zip(its, its[1:]):
            q = 0.3 + cumulative_trapezoid(v.dvdx_at(xs, prev), xs, initial=0.0)
            assert np.array_equal(new, 0.5 - cumulative_trapezoid(q, xs, initial=0.0))

    def test_separable_coupling_quadratic_convergence(self):
        # after one sweep the error is second order in the coupling strength
        errs = []
        for alpha in (0.2, 0.1):
            v = PotentialSpec.separable(
                lambda x, a=alpha: a * x, np.sin, da=lambda x, a=alpha: a * np.ones_like(x)
            )
            ray = trace_ray(v, 0.0, 0.5, 0.3, 2.0, 4096)
            xs, its = picard_iterate(v, 0.0, 0.5, 0.3, 2.0, 1, n_samples=512)
            t_ref = CubicSpline(ray.x, ray.t)(xs)
            errs.append(np.max(np.abs(its[1] - t_ref)))
        assert 3.0 <= errs[0] / errs[1] <= 5.0
