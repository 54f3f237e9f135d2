"""Tests for the continuity-equation bridge between the two pictures."""
from __future__ import annotations

import tracemalloc

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
    apply_F,
    continuity_equivalence,
    gauge_reduce,
    gaussian_exact,
    gaussian_field,
)
from carrollsch import currents, numerics
from carrollsch.currents import coordinate_inversion, schrodinger_density_current
from carrollsch.numerics import GridError, deriv_uniform, interior, real_samples
from carrollsch.operators import MARGIN, _interior_norm
from carrollsch.propagator import _packet


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


def _dressed(f: Field2D, phase) -> Field2D:
    """exp(i phase) f: f dressed with a gauge phase that broadcasts to its grid."""
    return Field2D(f.x_grid, f.t_grid, np.exp(1j * phase) * f.values)


def _sine_dressed_free_field(n: int) -> Field2D:
    """The free field dressed with the exact phase int_{t0}^t sin of V = sin t."""
    f = _free_carroll_field(n)
    t = f.t_grid.times
    return _dressed(f, np.cos(t[0]) - np.cos(t))


SINE = PotentialSpec.time_profile(np.sin, np.cos)


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


class TestDensityCurrentBits:
    @pytest.mark.parametrize("consts", [PhysicalConstants(), PhysicalConstants(hbar=1.0546, m=0.7)])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_is_the_one_expression(self, consts, layout):
        """rho and J are |psi|**2 and (hbar/m) Im(conj(psi) dpsi), bit for bit."""
        f = _free_carroll_field(64)
        psi = Field2D(f.x_grid, f.t_grid, np.asarray(f.values, order=layout))
        rho, j = schrodinger_density_current(psi, consts)
        dpsi = deriv_uniform(psi.values, psi.x_grid.dt, 1, axis=0)
        assert rho.tobytes() == (np.abs(psi.values) ** 2).tobytes()
        assert j.tobytes() == (consts.hbar / consts.m * np.imag(np.conj(psi.values) * dpsi)).tobytes()


class TestCoordinateInversion:
    def test_transpose(self):
        f = _free_carroll_field(64)
        g = coordinate_inversion(f)
        np.testing.assert_array_equal(g.values, f.values.T)

    def test_transpose_owns_its_samples(self):
        f = _free_carroll_field(64)
        before = f.values.copy()
        g = coordinate_inversion(f)
        assert not np.shares_memory(g.values, f.values)
        g.values[0, 0] = 1.0
        assert np.array_equal(f.values, before)

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

    @pytest.mark.parametrize("grid", ["rectangular", "anisotropic"])
    def test_involution_off_square(self, grid):
        # c t and x / c are uniform grids for any n_x, n_t and spacings: the transpose needs no interpolation
        consts = PhysicalConstants(c=1.1)
        xg, tg = OFF_SQUARE_GRIDS[grid]
        f = _random_off_square_field(xg, tg)
        g = coordinate_inversion(f, consts)
        assert (g.x_grid.n, g.t_grid.n) == (tg.n, xg.n)
        assert g.x_grid.dt == pytest.approx(consts.c * tg.dt) and g.t_grid.dt == pytest.approx(xg.dt / consts.c)
        back = coordinate_inversion(g, consts)
        np.testing.assert_array_equal(back.values, f.values)
        for b, orig in ((back.x_grid, xg), (back.t_grid, tg)):
            assert b.n == orig.n
            np.testing.assert_allclose([b.t_min, b.t_max], [orig.t_min, orig.t_max], rtol=1e-15)


class TestContinuityEquivalence:
    def test_refinement_ratio(self):
        res = [continuity_equivalence(_free_carroll_field(n)) for n in (128, 256)]
        assert res[0] / res[1] >= 3.5

    @pytest.mark.parametrize(
        "consts", [PhysicalConstants(), PhysicalConstants(hbar=1.3, m=0.8, c=1.1)], ids=["natural", "scaled"]
    )
    def test_rectangular_grid_converges_at_fourth_order(self, consts):
        # n_x = n, n_t = 2 n on [-6, 6] x [-12, 12]: 9.6e-4, 7.1e-5, 4.7e-6 in natural units
        params = GaussianParams(sigma=1.0, omega0=0.5)
        res = []
        for n in (64, 128, 256):
            f = gaussian_field(params, TimeGrid(-6.0, 6.0, n), TimeGrid(-12.0, 12.0, 2 * n), consts)
            res.append(continuity_equivalence(f, consts))
            assert res[-1] == _whole_field_residual(f, consts, None)
        assert min(a / b for a, b in zip(res, res[1:])) >= 12.0

    @pytest.mark.parametrize("v_car", [None, PotentialSpec.space_time(lambda x, t: 0.2 * np.sin(x) * np.cos(t))])
    def test_leaves_the_field_unchanged(self, v_car):
        """Nothing on the bridge writes into psi_car's samples."""
        f = _free_carroll_field(64)
        before = f.values.copy()
        f.values.flags.writeable = False  # a write into them raises
        continuity_equivalence(f, v_car=v_car, t0=f.t_grid.t_min)
        assert np.array_equal(f.values, before)

    def test_gauge_path_matches_free(self):
        """J - V rho / (m c) takes the exact phase of V = sin t off the free field in
        closed form, so the residual converges at 4th order as the free one does;
        the gauge route through gauge_reduce's trapezoid, the oracle, is 2nd order."""
        covariant, oracle = [], []
        for n in (128, 256, 512):
            f = _sine_dressed_free_field(n)
            t0 = f.t_grid.t_min
            covariant.append(continuity_equivalence(f, v_car=SINE, t0=t0))
            oracle.append(continuity_equivalence(gauge_reduce(f, SINE, t0)))
        for cov, ref in zip(covariant, oracle):
            assert cov < ref
        for coarse, fine in zip(covariant, covariant[1:]):
            assert coarse / fine >= 12.0
        for coarse, fine in zip(oracle, oracle[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    @pytest.mark.parametrize(
        "consts", [PhysicalConstants(), PhysicalConstants(hbar=0.7, m=1.3, c=2.0)], ids=["natural", "scaled"]
    )
    def test_x_dependent_potential_converges_at_fourth_order(self, consts):
        """V = (1 + 0.5 sin x) 0.8 sin t on the packet dressed with its exact
        Lambda = (1/hbar) int V dt: ratio >= 12 per doubling."""
        def a(x):
            return 1.0 + 0.5 * np.sin(x)

        v = PotentialSpec.separable(a, lambda t: 0.8 * np.sin(t))
        res = []
        for n in (128, 256, 512):
            tg = TimeGrid(-8.0, 8.0, n)
            xg = TimeGrid(-8.0 * consts.c, 8.0 * consts.c, n)  # dx = c dt
            f = gaussian_field(GaussianParams(sigma=1.0), xg, tg, consts)
            lam = a(xg.times)[:, None] * (0.8 / consts.hbar) * (np.cos(tg.t_min) - np.cos(tg.times))
            res.append(continuity_equivalence(_dressed(f, lam), consts, v_car=v))
        for coarse, fine in zip(res, res[1:]):
            assert coarse / fine >= 12.0

    def test_zero_potential_is_no_potential(self):
        f = _free_carroll_field(128)
        assert continuity_equivalence(f, v_car=PotentialSpec.zero()) == continuity_equivalence(f)

    def test_complex_potential_rejected(self):
        v = PotentialSpec.time_profile(lambda t: (1.0 + 0.1j) * np.sin(t))
        with pytest.raises(ValueError, match="complex potential rejected"):
            continuity_equivalence(_free_carroll_field(64), v_car=v)

    def test_anchor_does_not_enter(self):
        """t0 only shifts Lambda by a constant, so two anchors give the same bits."""
        f = _sine_dressed_free_field(128)
        t = f.t_grid.times
        first = continuity_equivalence(f, v_car=SINE, t0=t[0])
        assert continuity_equivalence(f, v_car=SINE, t0=t[len(t) // 3]) == first

    def test_grid_without_interior_rejected(self):
        # the residual skips MARGIN = 8 samples at each edge: 2 * 8 leaves none of 16
        f = _static_gaussian_field(16)
        with pytest.raises(ValueError, match="no interior"):
            continuity_equivalence(f)


FORCE = 0.8  # a of V_car = a x
LINEAR = PotentialSpec.space_profile(lambda x: FORCE * x, lambda x: np.full_like(x, FORCE))


class TestAvronHerbstField:
    """The closed-form Carroll field of V_car = a x, the oracle of apply_F and of
    the bridge with an x-dependent V_car.

    With M = m c^3 the reduced x-evolution is a linear-potential Schrodinger
    equation in swapped roles, solved by the Avron-Herbst transform:
    psi = exp[-i a^2 x^3 / (6 hbar M)] phi_free(x, t + a x^2 / (2 M)).
    """

    def _field(self, n: int, consts: PhysicalConstants) -> Field2D:
        g = TimeGrid(-12.0, 12.0, n)
        x, t = g.times[:, None], g.times[None, :]
        M = consts.m * consts.c**3
        phi = _packet(GaussianParams(sigma=1.0, omega0=0.5), x, t + FORCE * x**2 / (2 * M), consts)
        return Field2D(g, g, np.exp(-1j * FORCE**2 * x**3 / (6 * consts.hbar * M)) * phi)

    @pytest.mark.parametrize("consts", [PhysicalConstants(), PhysicalConstants(hbar=0.7, m=1.3)], ids=["natural", "scaled"])
    def test_operator_and_bridge_converge_to_the_closed_form(self, consts):
        bridge, carroll = [], []
        for n in (256, 512):
            psi = self._field(n, consts)
            bridge.append(continuity_equivalence(psi, consts, v_car=LINEAR))
            dx = psi.x_grid.dt
            f_psi = apply_F(psi, LINEAR, consts).values
            carroll.append(_interior_norm(f_psi, dx, dx) / _interior_norm(psi.values, dx, dx))
        # measured 15.3 and 13.0 (natural), 15.7 and 12.3 (scaled): both at 4th order
        assert bridge[0] / bridge[1] >= 12.0
        assert carroll[0] / carroll[1] >= 10.0

    def test_bridge_without_the_potential_misses(self):
        # the field solves the equation with V_car = a x only: O(1) off without it
        assert continuity_equivalence(self._field(256, PhysicalConstants())) > 0.1


NATURAL_AND_SCALED = pytest.mark.parametrize(
    "consts", [PhysicalConstants(), PhysicalConstants(hbar=0.7, m=1.3, c=2.0)], ids=["natural", "scaled"]
)
POTENTIALS = {
    "none": None,
    "time-only": PotentialSpec.time_profile(lambda t: 0.8 * np.sin(t)),
    "space-time": PotentialSpec.space_time(lambda x, t: 0.6 * np.cos(1.3 * x) * np.exp(-((t / 3.0) ** 2)) + 0.05 * x),
}


def _random_field(n: int, consts: PhysicalConstants, layout: str = "C") -> Field2D:
    """Random samples on a square grid with dx = c dt, in the given memory layout."""
    rng = np.random.default_rng(n)
    tg = TimeGrid(-6.0, 6.0, n)
    xg = TimeGrid(-6.0 * consts.c, 6.0 * consts.c, n)
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return Field2D(xg, tg, np.asarray(vals, order=layout))


#: grids that are not square with dx = c dt, on which the inversion is still an exact transpose
OFF_SQUARE_GRIDS = {
    "rectangular": (TimeGrid(-4.0, 4.0, 64), TimeGrid(-4.0, 4.0, 32)),
    "anisotropic": (TimeGrid(-4.0, 4.0, 64), TimeGrid(-2.0, 2.0, 64)),
}


def _random_off_square_field(xg: TimeGrid, tg: TimeGrid) -> Field2D:
    rng = np.random.default_rng(xg.n + tg.n)
    return Field2D(xg, tg, rng.standard_normal((xg.n, tg.n)) + 1j * rng.standard_normal((xg.n, tg.n)))


def _whole_field_residual(psi: Field2D, consts: PhysicalConstants, v_car) -> float:
    """The bridge as whole-field expressions: the inverted copy, rho and J on it,
    J - V^T rho / (m c), the two stencils and the interior max."""
    f = coordinate_inversion(psi, consts)
    rho, j = schrodinger_density_current(f, consts)
    if v_car is not None:
        V = real_samples(v_car.v_grid(psi.x_grid.times, psi.t_grid.times), "potential")
        j -= V.T * rho / (consts.m * consts.c)
    res = deriv_uniform(rho, f.t_grid.dt, 1, axis=1)
    res += deriv_uniform(j, f.x_grid.dt, 1, axis=0)
    return float(np.max(np.abs(interior(res, MARGIN))))


class TestBlockedBridge:
    """The residual taken in psi's layout, in row blocks, has the bits of the whole-field one."""

    @NATURAL_AND_SCALED
    @pytest.mark.parametrize("v_name", list(POTENTIALS))
    @pytest.mark.parametrize("n", [32, 64, 256, 1024])
    def test_is_the_whole_field_residual(self, n, v_name, consts):
        psi = _random_field(n, consts)
        v_car = POTENTIALS[v_name]
        assert continuity_equivalence(psi, consts, v_car=v_car) == _whole_field_residual(psi, consts, v_car)

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("rows", [1, 3, 5, 7, 17])
    def test_any_block_rows(self, monkeypatch, rows, layout):
        """Blocks of a few rows, a short or a long last one, and either layout of psi."""
        consts = PhysicalConstants(hbar=0.7, m=1.3, c=2.0)
        psi = _random_field(64, consts, layout)
        v_car = POTENTIALS["space-time"]
        expected = _whole_field_residual(psi, consts, v_car)
        monkeypatch.setattr(numerics, "BLOCK_BYTES", rows * psi.values[0].nbytes)
        assert continuity_equivalence(psi, consts, v_car=v_car) == expected

    def test_current_is_formed_on_the_interior_rows_only(self, monkeypatch):
        """J's stencil, the one complex stencil of the bridge, sees each interior row
        of psi once and no halo row: only rho is read on the halo."""
        consts = PhysicalConstants(hbar=0.7, m=1.3, c=2.0)
        psi = _random_field(64, consts)
        v_car = POTENTIALS["space-time"]
        expected = _whole_field_residual(psi, consts, v_car)
        seen = []

        def recording(values, dx, order=1, axis=0):
            if np.iscomplexobj(values):
                seen.extend(next(i for i, r in enumerate(psi.values) if np.array_equal(row, r)) for row in values)
            return deriv_uniform(values, dx, order, axis)

        monkeypatch.setattr(currents, "deriv_uniform", recording)
        monkeypatch.setattr(numerics, "BLOCK_BYTES", 8 * psi.values[0].nbytes)
        assert continuity_equivalence(psi, consts, v_car=v_car) == expected
        assert seen == list(range(MARGIN, 64 - MARGIN))

    @pytest.mark.parametrize(
        "consts", [PhysicalConstants(), PhysicalConstants(hbar=1.3, m=0.8, c=1.1)], ids=["natural", "scaled"]
    )
    @pytest.mark.parametrize("v_name", list(POTENTIALS))
    @pytest.mark.parametrize("grid", list(OFF_SQUARE_GRIDS))
    def test_off_square_grid_is_the_inverted_copy_residual(self, grid, v_name, consts):
        """n_x != n_t or dx != c dt: the columns the blocks keep follow n_t, not n_x."""
        psi = _random_off_square_field(*OFF_SQUARE_GRIDS[grid])
        v_car = POTENTIALS[v_name]
        assert continuity_equivalence(psi, consts, v_car=v_car) == _whole_field_residual(psi, consts, v_car)

    def test_nan_potential_gives_nan(self):
        """A NaN in one block's V reaches the returned max, as it reaches the whole-field one."""
        f = _free_carroll_field(256)
        v = PotentialSpec.space_time(lambda x, t: np.where((x > 5.0) & (np.abs(t) < 1.0), np.nan, 0.0))
        assert np.isnan(continuity_equivalence(f, v_car=v))


class TestBridgeErrors:
    def test_complex_potential_in_the_last_block_rejected(self, monkeypatch):
        f = _free_carroll_field(64)
        x_last = f.x_grid.times[64 - MARGIN - 2]  # a row of the last interior block
        v = PotentialSpec.space_time(lambda x, t: 0.1 * np.sin(t) + 1e-3j * (x >= x_last))
        monkeypatch.setattr(numerics, "BLOCK_BYTES", 8 * f.values[0].nbytes)
        assert len(numerics.row_blocks(MARGIN, 64 - MARGIN, f.values[0].nbytes, least=3)) == 6
        with pytest.raises(ValueError, match="complex potential rejected"):
            continuity_equivalence(f, v_car=v)


def test_bridge_working_set_stays_small():
    """At 1024^2 with a space-time V the bridge holds no full-field temporary:
    its traced peak is at most 8 MiB, where one complex copy of psi is 16 MiB."""
    grid = TimeGrid(-12.0, 12.0, 1024)
    psi = Field2D(grid, grid, np.ones((1024, 1024), dtype=complex))
    v_car = POTENTIALS["space-time"]
    tracemalloc.start()
    try:
        continuity_equivalence(psi, v_car=v_car)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
