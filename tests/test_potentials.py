"""Tests for potential profile wrappers and their derivative plumbing."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carrollsch import PotentialSpec


class TestEvaluation:
    def test_zero(self):
        v = PotentialSpec.zero()
        t = np.linspace(-1, 1, 11)
        assert np.all(v.v_t(t) == 0.0)
        assert np.all(v.v_x(t) == 0.0)
        assert v.v_xt(t, t).shape == (11, 11)

    def test_constant(self):
        v = PotentialSpec.constant(2.5)
        assert np.all(v.v_t(np.zeros(3)) == 2.5)
        assert np.all(v.dv_t(np.zeros(3)) == 0.0)

    def test_time_profile_analytic_derivative(self):
        v = PotentialSpec.time_profile(np.sin, np.cos)
        t = np.linspace(0, 1, 5)
        np.testing.assert_array_equal(v.dv_t(t), np.cos(t))

    def test_time_profile_fd_derivative(self):
        v = PotentialSpec.time_profile(np.sin)
        t = np.linspace(0, 1, 5)
        np.testing.assert_allclose(v.dv_t(t), np.cos(t), atol=1e-9)

    def test_space_profile_rejects_time_eval(self):
        v = PotentialSpec.space_profile(np.sin)
        with pytest.raises(ValueError):
            v.v_t(np.zeros(3))
        with pytest.raises(ValueError):
            PotentialSpec.time_profile(np.sin).v_x(np.zeros(3))

    def test_separable_tensor(self):
        v = PotentialSpec.separable(lambda x: x, np.sin, da=lambda x: np.ones_like(x))
        x = np.array([1.0, 2.0])
        t = np.array([0.0, np.pi / 2])
        np.testing.assert_allclose(v.v_xt(x, t), np.outer(x, np.sin(t)), atol=1e-14)
        np.testing.assert_allclose(v.dv_dx(x, t), np.outer(np.ones(2), np.sin(t)), atol=1e-14)

    def test_space_time_fd_gradient(self):
        v = PotentialSpec.space_time(lambda x, t: np.sin(x) * np.cos(t))
        x = np.array([0.3, 0.9])
        t = np.array([0.1, 0.5])
        np.testing.assert_allclose(
            v.dv_dx(x, t), np.outer(np.cos(x), np.cos(t)), atol=1e-8
        )

    def test_scalar_accessors(self):
        v = PotentialSpec.separable(lambda x: x**2, np.sin, da=lambda x: 2 * x)
        assert v.at(2.0, np.pi / 2) == pytest.approx(4.0)
        assert v.dvdx_at(2.0, np.pi / 2) == pytest.approx(4.0)


#: every kind, with the finite-difference fallbacks where a kind has one
_KINDS = {
    "zero": PotentialSpec.zero(),
    "constant": PotentialSpec.constant(0.7),
    "time_profile": PotentialSpec.time_profile(np.sin, np.cos),
    "time_profile_fd": PotentialSpec.time_profile(np.sin),
    "space_profile": PotentialSpec.space_profile(lambda x: 0.5 * x**2, lambda x: x),
    "space_profile_fd": PotentialSpec.space_profile(lambda x: np.exp(-(x**2)) * np.cos(x)),
    "separable": PotentialSpec.separable(np.sin, np.cos, da=np.cos),
    "separable_fd": PotentialSpec.separable(lambda x: x**3, np.cos),
    "space_time": PotentialSpec.space_time(lambda x, t: np.sin(x) * np.exp(-(t**2))),
}

_X = np.array([-1.5, 0.0, 0.4, 2.0])
_T = np.array([-0.7, 0.0, 0.3, 1.1, 2.5])
_ONES, _ZEROS = np.ones((4, 5)), np.zeros((4, 5))

#: V and d_x V of each analytic `_KINDS` entry on the tensor grid of _X and _T
_CLOSED_FORMS = {
    "zero": (_ZEROS, _ZEROS),
    "constant": (0.7 * _ONES, _ZEROS),
    "time_profile": (_ONES * np.sin(_T), _ZEROS),
    "space_profile": (_ONES * (0.5 * _X**2)[:, None], _ONES * _X[:, None]),
    "separable": (np.sin(_X)[:, None] * np.cos(_T), np.cos(_X)[:, None] * np.cos(_T)),
}


@pytest.mark.parametrize("kind", sorted(_CLOSED_FORMS))
def test_tensor_values_match_closed_form(kind):
    v, dv = _CLOSED_FORMS[kind]
    assert np.array_equal(_KINDS[kind].v_xt(_X, _T), v)
    assert np.array_equal(_KINDS[kind].dv_dx(_X, _T), dv)


_GRID_SHAPES = {"zero": (), "constant": (), "time_profile": (1, 5), "space_profile": (4, 1), "separable": (4, 5)}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_grid_values_broadcast_to_the_tensor_values(kind):
    v = _KINDS[kind].v_grid(_X, _T)
    assert v.shape == _GRID_SHAPES.get(kind.removesuffix("_fd"), (4, 5))
    assert np.array_equal(np.broadcast_to(v, (4, 5)), _KINDS[kind].v_xt(_X, _T))


_POINTS = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12)


class TestPairedGradient:
    """dvdx_at on paired arrays equals its per-point calls, bit for bit."""

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    @settings(max_examples=20, deadline=None)
    @given(_POINTS, _POINTS)
    def test_paired_equals_per_point(self, kind, xs, ts):
        v = _KINDS[kind]
        n = min(len(xs), len(ts))
        x, t = np.array(xs[:n]), np.array(ts[:n])
        paired = v.dvdx_at(x, t)
        assert paired.shape == (n,)
        assert np.array_equal(paired, [v.dvdx_at(a, b) for a, b in zip(xs, ts)])
        assert np.array_equal(paired, np.diag(v.dv_dx(x, t)))

    def test_scalar_points_give_float(self):
        assert type(_KINDS["space_time"].dvdx_at(0.3, 0.1)) is float
        assert type(_KINDS["zero"].dvdx_at(0.3, 0.1)) is float

    def test_complex_gradient_rejected(self):
        v = PotentialSpec.space_time(lambda x, t: (1.0 + 1j) * x * t)
        with pytest.raises(ValueError, match="complex"):
            v.dvdx_at(0.5, 1.0)
        with pytest.raises(ValueError, match="complex"):
            v.dvdx_at(np.array([0.5, 0.6]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="complex potential rejected"):
            v.at(0.5, 1.0)
        # the split step's rule: any nonzero imaginary part, however small
        tiny = PotentialSpec.space_time(lambda x, t: (1.0 + 1e-15j) * x * np.cos(t))
        with pytest.raises(ValueError, match="complex potential gradient rejected"):
            tiny.dvdx_at(0.5, 1.0)
