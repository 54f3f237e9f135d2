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
    commutator_residuals,
    gaussian_probes,
)
from carrollsch import operators
from carrollsch.numerics import deriv_uniform, interior
from carrollsch.operators import MARGIN, _interior_norm


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


class TestApplyF:
    def test_plane_wave_kernel(self):
        # with V = 0 the kernel condition is -hbar c k = (hbar w)^2/(2 m c^2)
        g = TimeGrid(-4.0, 4.0, 128)
        omega = 1.0
        psi = _plane_wave(g, g, -0.5 * omega**2, omega)
        res = apply_F(psi, PotentialSpec.zero())
        assert np.max(np.abs(interior(res.values, MARGIN))) < 1e-6


class TestOneBuffer:
    """F scaled and summed in one buffer, and H, equal their one-expression forms."""

    CASES = [
        (PotentialSpec.time_profile(np.sin, np.cos), PhysicalConstants()),
        (PotentialSpec.space_time(lambda x, t: 0.2 * np.sin(x + t)), PhysicalConstants(hbar=1.0546, m=0.7, c=1.3)),
    ]

    @pytest.mark.parametrize("n", [8, 32])  # 8, the coarsest TimeGrid, has the 7 samples the stencils need
    @pytest.mark.parametrize("v, consts", CASES)
    def test_apply_F(self, v, consts, n):
        g = TimeGrid(-4.0, 4.0, n)
        psi = gaussian_probes(g, g)[2]
        hbar, m, c = consts.hbar, consts.m, consts.c
        V = v.v_xt(g.times, g.times)

        def a(u):
            return -1j * hbar * deriv_uniform(u, g.dt, 1, axis=1) - V * u

        expected = c * 1j * hbar * deriv_uniform(psi.values, g.dt, 1, axis=0) - a(a(psi.values)) / (2 * m * c**2)
        assert apply_F(psi, v, consts).values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [8, 32])
    @pytest.mark.parametrize("v, consts", CASES)
    def test_apply_H(self, v, consts, n):
        # pins the order of apply_H's one expression
        g = TimeGrid(-4.0, 4.0, n)
        psi = gaussian_probes(g, g)[2]
        hbar, m = consts.hbar, consts.m
        V = v.v_xt(g.times, g.times)
        expected = (
            -(hbar**2) / (2 * m) * deriv_uniform(psi.values, g.dt, 2, axis=0)
            + V * psi.values
            - 1j * hbar * deriv_uniform(psi.values, g.dt, 1, axis=1)
        )
        assert apply_H(psi, v, consts).values.tobytes() == expected.tobytes()


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

    def test_probes_on_different_grids_rejected(self):
        g, h = TimeGrid(-4.0, 4.0, 32), TimeGrid(-4.0, 4.0, 64)
        probes = gaussian_probes(g, g)[:1] + gaussian_probes(g, h)[:1]
        with pytest.raises(ValueError, match="probes on different grids"):
            commutator_residuals([(PotentialSpec.zero(), PotentialSpec.zero())], probes)

    @pytest.mark.parametrize("consts", [PhysicalConstants(c=1e-160), PhysicalConstants(hbar=1e160)])
    def test_nonfinite_field_rejected(self, consts):
        # F psi overflows; a NaN residual must not pass as max(0, nan) = 0
        v = PotentialSpec.time_profile(np.sin, np.cos)
        g = TimeGrid(-4.0, 4.0, 32)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
            commutator_residual(v, v, gaussian_probes(g, g), consts)


def _cli_cases() -> list[tuple[PotentialSpec, PotentialSpec]]:
    """The three (v_sch, v_car) cases of `cli.cmd_commutator`, sharing potentials as it does."""
    v_t = PotentialSpec.time_profile(np.sin, np.cos)
    v_t_shift = PotentialSpec.time_profile(lambda t: np.sin(t) + 0.7)
    v_t_neg = PotentialSpec.time_profile(lambda t: -np.sin(t) + 0.7)
    v_x = PotentialSpec.space_profile(lambda x: x, lambda x: np.ones_like(x))
    return [(v_t, v_t_shift), (v_t, v_t_neg), (v_x, v_t_shift)]


def _x_cases() -> list[tuple[PotentialSpec, PotentialSpec]]:
    """Four (v_sch, v_car) cases whose potentials both depend on x."""
    return [
        (PotentialSpec.space_time(lambda x, t: 0.2 * np.sin(x + t)), PotentialSpec.space_time(lambda x, t: 0.3 * np.cos(x - 0.5 * t))),
        (PotentialSpec.separable(np.sin, np.cos, np.cos), PotentialSpec.separable(lambda x: 0.5 * x, np.sin, lambda x: np.full_like(x, 0.5))),
        (PotentialSpec.space_profile(lambda x: 0.1 * x**2, lambda x: 0.2 * x), PotentialSpec.separable(np.cos, lambda t: 1 + 0.1 * t, lambda x: -np.sin(x))),
        (PotentialSpec.space_time(lambda x, t: 0.2 * np.sin(x + t)), PotentialSpec.separable(np.cos, np.sin, lambda x: -np.sin(x))),
    ]


def _one_v_car_cases() -> list[tuple[PotentialSpec, PotentialSpec]]:
    """Three cases holding one V_car object, no potential depending on x."""
    v_car = PotentialSpec.time_profile(np.cos, lambda t: -np.sin(t))
    return [(PotentialSpec.time_profile(lambda t, a=a: a * np.sin(t), lambda t, a=a: a * np.cos(t)), v_car)
            for a in (0.5, 1.0, 2.0)]


class TestSharedPass:
    """One call for every case, from the reduced identity, against the literal
    apply_H/apply_F composition, and the stencils it takes."""

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("consts", [PhysicalConstants(), PhysicalConstants(hbar=1.0546, m=0.7, c=1.3)])
    def test_bits_of_the_composition(self, n, consts):
        # the identity is exact on the interior, so the two differ by roundoff:
        # relative for the non-commuting cases, absolute for the matched pair
        g = TimeGrid(-4.0, 4.0, n)
        probes = gaussian_probes(g, g)

        def composed(vs, vc):
            worst = 0.0
            for psi in probes:
                hf = apply_H(apply_F(psi, vc, consts), vs, consts).values
                fh = apply_F(apply_H(psi, vs, consts), vc, consts).values
                r = _interior_norm(hf - fh, g.dt, g.dt) / _interior_norm(psi.values, g.dt, g.dt)
                worst = max(worst, r)
            return worst

        cli = _cli_cases()
        plus, minus, space = commutator_residuals(cli, probes, consts)
        for got, (vs, vc) in [(plus, cli[0]), (space, cli[2])]:
            assert got == pytest.approx(composed(vs, vc), rel=1e-13, abs=0)
        assert minus <= 1e-10 and composed(*cli[1]) <= 1e-10
        cases = _x_cases()
        for got, (vs, vc) in zip(commutator_residuals(cases, probes, consts), cases):
            assert got == pytest.approx(composed(vs, vc), rel=1e-13, abs=0)

    def test_one_case_is_the_batch_of_one(self):
        g = TimeGrid(-4.0, 4.0, 64)
        probes = gaussian_probes(g, g)
        for vs, vc in _cli_cases():
            assert commutator_residual(vs, vc, probes) == commutator_residuals([(vs, vc)], probes)[0]

    @pytest.mark.parametrize(
        "cases, per_probe",
        [(_cli_cases(), 11), (_cli_cases()[:1], 4), (_x_cases()[:1], 10), (_one_v_car_cases(), 2 + 2 * 3)],
        ids=["cli", "time_profile", "both_in_x", "one_v_car"],
    )
    def test_stencils_per_probe(self, monkeypatch, cases, per_probe):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return deriv_uniform(*args, **kwargs)

        monkeypatch.setattr(operators, "deriv_uniform", counted)
        g = TimeGrid(-4.0, 4.0, 32)
        probes = gaussian_probes(g, g)
        commutator_residuals(cases, probes)
        assert len(calls) == per_probe * len(probes)

    def test_matched_roundoff_grows_like_the_reduced_form(self):
        # W is constant for the matched pair, so only [A^2, W] psi is left, at
        # roundoff of A^2 psi (about 4x per doubling of n); the composition's
        # cancels H F psi against F H psi and grows about 16x
        v_sch, v_car = _cli_cases()[1]
        res = []
        for n in (64, 128, 256):
            g = TimeGrid(-4.0, 4.0, n)
            res.append(commutator_residual(v_sch, v_car, gaussian_probes(g, g)))
        assert all(0 < b < 8 * a for a, b in zip(res, res[1:])), res


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

    @pytest.mark.parametrize("half", [4.0, 30.0])
    @pytest.mark.parametrize("n", [16, 64, 256, 512])
    def test_carrier_is_the_complex_exponential(self, n, half):
        """The carrier from unit_phase has the bits of np.exp(1j * (kx X + kt T))."""
        g = TimeGrid(-half, half, n)
        X, T = np.meshgrid(g.times, g.times, indexing="ij")
        l, c = 2 * half, 0.0
        specs = [
            (c, c, 0.10 * l, 0.10 * l, 0.3, -0.2),
            (c - 0.08 * l, c + 0.05 * l, 0.07 * l, 0.12 * l, -0.5, 0.4),
            (c + 0.06 * l, c - 0.09 * l, 0.12 * l, 0.08 * l, 0.2, 0.7),
        ]
        for probe, (x0, t0, sx, st, kx, kt) in zip(gaussian_probes(g, g), specs):
            envelope = np.exp(-((X - x0) ** 2) / (2 * sx**2) - ((T - t0) ** 2) / (2 * st**2))
            expected = envelope * np.exp(1j * (kx * X + kt * T))
            assert probe.values.tobytes() == expected.tobytes()
