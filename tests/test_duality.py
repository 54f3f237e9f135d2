"""Tests for the reparametrization map between static and time profiles."""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from carrollsch import (
    BranchError,
    PhysicalConstants,
    PotentialSpec,
    TimeGrid,
    forward_delta,
    inverse_tau,
    inversion_identity_residual,
    roundtrip_residual,
    schwarzian_residual,
    vsch_from_vcar,
)
from carrollsch import cli, duality, numerics
from carrollsch.numerics import cubic_spline, deriv_uniform, schwarzian_samples

TARGETS = [
    ("free", PotentialSpec.zero(), 0.0, (0.0, 2.0), 1e-6),
    ("constant", PotentialSpec.constant(2.0), 0.0, (0.0, 0.6), 1e-6),
    ("harmonic", PotentialSpec.space_profile(lambda x: 0.5 * x**2), 0.25, (-1.5, 1.5), 1e-4),
    ("coulomb-like", PotentialSpec.space_profile(lambda x: -1.0 / x), -0.5, (0.5, 3.0), 1e-4),
]

#: (E0, constants) settings under which the map's (E0/hbar)^2 factor shows
SCALES = [
    pytest.param(1.0, PhysicalConstants(), id="E1-natural"),
    pytest.param(0.3, PhysicalConstants(), id="E0.3-natural"),
    pytest.param(1.0, PhysicalConstants(hbar=1.3, m=0.8, c=1.1), id="E1-scaled"),
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
        vs = vsch_from_vcar(v_car, delta, tg, e_sch, e0)
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
        assert dmap.tau_at(1.0) == pytest.approx(np.pi / 4, abs=1e-8)
        # with the canonical initial data the ratio is 1/x, so tau = arctan(1/x)
        np.testing.assert_allclose(np.real(dmap.tau), np.arctan(1.0 / dmap.x), atol=1e-8)

    def test_delta_inverts_tau(self):
        from scipy.interpolate import CubicSpline

        dmap = inverse_tau(PotentialSpec.zero(), 0.0, 1.0, (0.0, 2.0))
        # delta(tau(x)) = x on the sampled interval
        mid = dmap.x[len(dmap.x) // 2]
        delta = CubicSpline(dmap.delta_t, dmap.delta)
        assert float(delta(dmap.tau_at(mid))) == pytest.approx(mid, abs=1e-8)

    def test_tau_at_builds_one_spline(self, monkeypatch):
        dmap = inverse_tau(PotentialSpec.zero(), 0.0, 1.0, (0.0, 2.0))
        builds = []

        def counting(x, y):
            builds.append(len(x))
            return cubic_spline(x, y)

        monkeypatch.setattr(duality, "cubic_spline", counting)
        first, second = dmap.tau_at(1.0), dmap.tau_at(0.5)
        assert builds == [len(dmap.x)]
        assert first == float(cubic_spline(dmap.x, dmap.tau)(1.0))
        assert second == float(cubic_spline(dmap.x, dmap.tau)(0.5))

    def test_tau_outside_interval_rejected(self):
        dmap = inverse_tau(PotentialSpec.zero(), 0.0, 1.0, (0.0, 2.0))
        with pytest.raises(ValueError):
            dmap.tau_at(5.0)

    def test_zero_reference_energy_rejected(self):
        with pytest.raises(ValueError):
            inverse_tau(PotentialSpec.zero(), 0.0, 0.0, (0.0, 1.0))


class TestResiduals:
    @pytest.mark.parametrize("E0, consts", SCALES)
    @pytest.mark.parametrize("name,v,e_sch,x_range,tol", TARGETS)
    def test_schwarzian_identity(self, name, v, e_sch, x_range, tol, E0, consts):
        dmap = inverse_tau(v, e_sch, E0, x_range, consts)
        assert schwarzian_residual(dmap) <= 1e-5

    @pytest.mark.parametrize("target", ["free", "constant", "harmonic", "coulomb-like"])
    def test_schwarzian_residual_is_the_tau_form(self, target):
        # {sigma, x} + 2q = {tau, x} + 2 (E0 tau'/hbar)^2 + 2q, on tau
        # strided to near 2e-3 and with 4 samples left out at each end
        dmap = _cli_map(target=target)
        stride = max(1, min(int(round(2e-3 / dmap.dx)), len(dmap.tau) // 40))
        tau = dmap.tau[::stride]
        h = dmap.dx * stride
        tau_p = deriv_uniform(tau, h, 1)
        r = schwarzian_samples(tau, h) + 2 * (dmap.E0 / dmap.constants.hbar * tau_p) ** 2 + 2 * dmap.q[::stride]
        assert schwarzian_residual(dmap) == float(np.max(np.abs(r[4:-4])))

    @pytest.mark.parametrize(
        "consts", [PhysicalConstants(), PhysicalConstants(hbar=0.7, m=1.3, c=2.0)], ids=["natural", "scaled"]
    )
    @pytest.mark.parametrize("n", [2048, 8192])
    @pytest.mark.parametrize("target", ["free", "constant", "harmonic", "coulomb-like"])
    def test_roundtrip_is_the_schwarzian_defect_in_potential_units(self, target, n, consts):
        # V_rec - V = -(hbar^2/4m) ({tau, x} + 2 (E0 tau'/hbar)^2 + 2q), with the
        # defect on tau strided to near 5e-3 and 4 samples left out at each end
        dmap = _cli_map(target=target, n=n, consts=consts)
        v, _ = cli._duality_target(cli._resolve({"duality": {"target": target}}, "duality"))
        hbar, m = consts.hbar, consts.m
        stride = max(1, min(int(round(5e-3 / dmap.dx)), len(dmap.tau) // 64))
        tau = dmap.tau[::stride]
        h = dmap.dx * stride
        tau_p = deriv_uniform(tau, h, 1)
        r = schwarzian_samples(tau, h) + 2 * (dmap.E0 / hbar * tau_p) ** 2 + 2 * dmap.q[::stride]
        scale = max(np.max(np.abs(v.v_x(dmap.x[::stride]) - dmap.E_sch)), dmap.E0**2 / (2 * m))
        defect = hbar**2 / (4 * m) * np.max(np.abs(r[4:-4])) / scale
        assert roundtrip_residual(dmap, v) == pytest.approx(defect, rel=1e-7)

    @pytest.mark.parametrize("name,v,e_sch,x_range,tol", TARGETS)
    def test_roundtrip(self, name, v, e_sch, x_range, tol):
        dmap = inverse_tau(v, e_sch, 1.0, x_range)
        assert roundtrip_residual(dmap, v) <= tol

    @pytest.mark.parametrize("name,v,e_sch,x_range,tol", TARGETS[:3])
    def test_inversion_identity(self, name, v, e_sch, x_range, tol):
        dmap = inverse_tau(v, e_sch, 1.0, x_range)
        assert inversion_identity_residual(dmap) <= 1e-5

    @pytest.mark.parametrize("E0", [1.0, 0.3])
    @pytest.mark.parametrize(
        "consts", [PhysicalConstants(), PhysicalConstants(hbar=1.3, m=0.8, c=1.1)], ids=["natural", "scaled"]
    )
    def test_chain_rule_between_sigma_and_tau(self, E0, consts):
        # sigma = tan(E0 tau / hbar), so
        # {sigma, x} = {tau, x} + 2 (E0/hbar)^2 tau'^2
        _, v, e_sch, x_range, _ = TARGETS[2]
        dmap = inverse_tau(v, e_sch, E0, x_range, consts)
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
        rhs = s_tau[keep] + 2.0 * (E0 / consts.hbar) ** 2 * tau_p[keep] ** 2
        assert np.max(np.abs(lhs - rhs)) <= 1e-5

    @pytest.mark.parametrize(
        "residual, per_call",
        [
            (schwarzian_residual, {"tau": 3}),
            (lambda d: roundtrip_residual(d, PotentialSpec.space_profile(lambda x: 0.5 * x**2)), {"tau": 3}),
            (lambda d: duality._identity_residual(d, 0.01), {"tau": 3, "delta": 3}),
        ],
        ids=["schwarzian", "roundtrip", "identity"],
    )
    def test_three_stencils_per_differentiated_function(self, monkeypatch, residual, per_call):
        # f' is taken once and shared by the slope and the Schwarzian, so each
        # function a residual differentiates costs orders 1, 2 and 3 once each
        dmap = _cli_map(target="harmonic")
        calls = {"tau": 0, "delta": 0}

        def counted(values, *args, **kwargs):
            calls["tau" if np.shares_memory(values, dmap.tau) else "delta"] += 1
            return deriv_uniform(values, *args, **kwargs)

        monkeypatch.setattr(duality, "deriv_uniform", counted)
        monkeypatch.setattr(numerics, "deriv_uniform", counted)
        residual(dmap)
        assert {k: v for k, v in calls.items() if v} == per_call


def _cli_map(E0=1.0, n=2048, consts=PhysicalConstants(), **block):
    """The map of a CLI duality target at reference energy E0."""
    block = cli._resolve({"duality": {**block, "n": n}}, "duality")
    v, x_range = cli._duality_target(block)
    return inverse_tau(v, block["E_sch"], E0, x_range, consts, n=n)


class TestWholeInterval:
    """tau is the pi-unwrapped angle on every sample but two at each end."""

    @pytest.mark.parametrize(
        "target, E0, n",
        [(t, 1.0, n) for n in (2048, 8192) for t in ("free", "constant", "harmonic", "coulomb-like")]
        + [("harmonic", -1.0, 2048)],
    )
    def test_default_targets_keep_the_bits_of_the_plain_arctan(self, target, E0, n):
        # y2 has no interior zero on these intervals, so unwrap adds exact
        # zeros and the map keeps the bits of the plain arctan construction
        dmap = _cli_map(E0, n, target=target)
        pair, hbar = dmap.pair, dmap.constants.hbar
        xs = pair.x[2:-2]
        sigma = pair.y1[2:-2] / pair.y2[2:-2]
        tau = (hbar / E0) * np.arctan(sigma)
        order = np.argsort(tau)
        delta_t = np.linspace(tau.min(), tau.max(), len(xs))
        delta = cubic_spline(tau[order], xs[order])(delta_t)
        assert np.array_equal(dmap.x, xs) and np.array_equal(dmap.sigma, sigma)
        assert np.array_equal(dmap.tau, tau)
        assert np.array_equal(dmap.delta_t, delta_t) and np.array_equal(dmap.delta, delta)

    @pytest.mark.parametrize(
        "block",
        [
            {"target": "harmonic", "E_sch": 5.0},
            {"target": "coulomb-like", "k": 2.0},
            {"target": "free", "E_sch": 3.0},
        ],
        ids=["harmonic-E5", "coulomb-k2", "free-E3"],
    )
    def test_map_covers_the_zeros_of_y2(self, block):
        # y2 has interior zeros on each of these intervals
        dmap = _cli_map(**block)
        assert np.array_equal(dmap.x, dmap.pair.x[2:-2]) and len(dmap.x) == 2045
        assert np.any(np.diff(np.sign(dmap.pair.y2[1:])) != 0)
        assert np.all(np.diff(dmap.tau) < 0)
        # the angle keeps tan(E0 tau / hbar) = sigma across every branch
        keep = np.abs(dmap.sigma) < 1e6
        err = np.abs(np.tan(dmap.E0 * dmap.tau / dmap.constants.hbar) - dmap.sigma)
        assert np.all(err[keep] <= 1e-11 * np.maximum(1.0, np.abs(dmap.sigma[keep])))

    def test_unresolved_pair_is_a_branch_error(self):
        # E_sch = 1e3 turns the angle by more than pi/2 within one step
        # near the zeros of y1, so its direction is lost to unwrap
        with pytest.raises(BranchError, match="tau is not strictly monotone"):
            _cli_map(target="harmonic", E_sch=1e3)

    @pytest.mark.parametrize(
        "E_sch, n", [(1e6, 64), (1e6, 1024)] + [(1e7, n) for n in (64, 128, 256, 512, 1024, 2048)]
    )
    def test_overflowing_pair_is_a_branch_error(self, E_sch, n):
        # the unresolved pair reaches inf; neither it nor its Wronskian is formed into the map
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BranchError, match=f"fundamental pair overflows from x = .*: unresolved at n = {n}$"):
                _cli_map(target="harmonic", E_sch=E_sch, n=n)

    @pytest.mark.parametrize("E_sch, n", [(2e4, 64), (1e5, 64), (5e4, 256)])
    def test_finite_pair_whose_wronskian_overflows(self, E_sch, n):
        # y1 y2' exceeds the float range although every sample is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BranchError, match="not strictly monotone: .*drift beyond the float range"):
                _cli_map(target="harmonic", E_sch=E_sch, n=n)

    def test_sixteen_samples_is_the_shortest_map(self):
        assert len(inverse_tau(PotentialSpec.zero(), 0.0, 1.0, (0.0, 1.0), n=19).x) == 16
        with pytest.raises(BranchError, match="too few samples for the map: 15"):
            inverse_tau(PotentialSpec.zero(), 0.0, 1.0, (0.0, 1.0), n=18)


class TestVelocityProfileTarget:
    """The CLI's `velocity-profile` target against its exact delta(t)."""

    @pytest.mark.parametrize(
        "consts", [PhysicalConstants(), PhysicalConstants(hbar=1.3, m=0.8, c=1.1)], ids=["natural", "scaled"]
    )
    def test_delta_converges_at_the_trapezoid_order(self, consts):
        # V_car = -i hbar t/(1 + t^2) gives delta-dot = (1 + t^2)/2 on [-1, 1],
        # so delta = (t + t^3/3 + 4/3)/2; the anchored integral is 2nd order
        errs = []
        for n in (512, 1024, 2048, 4096):
            block = cli._resolve({"duality": {"target": "velocity-profile", "n": n}}, "duality")
            tables, gates = cli.cmd_duality.__wrapped__(block, consts)
            header, rows = tables["duality_forward.csv"]
            assert header[:3] == ["t", "delta_re", "delta_im"] and gates == []
            t, d_re, d_im = np.array([row[:3] for row in rows]).T
            errs.append(np.max(np.abs(d_re + 1j * d_im - (t + t**3 / 3 + 4 / 3) / 2)))
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios
