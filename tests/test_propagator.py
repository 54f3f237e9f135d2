"""Tests for spectral x-evolution and the dispersing-Gaussian oracle."""
from __future__ import annotations

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carrollsch import (
    NATURAL,
    GaussianParams,
    PhysicalConstants,
    PotentialSpec,
    TimeGrid,
    Wavefunction,
    carrier_center,
    carroll_density_current,
    dyson_first_order,
    effective_width,
    evolve_free,
    evolve_interacting,
    gaussian_exact,
    gaussian_field,
    measured_moments,
)


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

    def test_chained_steps_equal_the_inline_multiplier(self):
        """A chain transforms once and then multiplies the spectrum it holds.

        The first step is the one expression kin * fft(values), as a single
        step is; the later ones multiply the held spectrum.  The chain is no
        less accurate than re-transforming each step, ifft(kin fft(values)),
        and keeps the norm to roundoff.
        """
        params = GaussianParams(sigma=0.9, t0=0.4, omega0=1.7)
        grid = TimeGrid(-256.0, 256.0, 2**16)
        psi0 = psi = gaussian_exact(params, 0.0, grid)
        kin = np.exp(-1j * NATURAL.beta * 0.1 * grid.omegas**2)
        spec = kin * np.fft.fft(psi0.values)
        per_step = psi0.values
        for step in range(64):
            psi = evolve_free(psi, 0.1)
            if step:
                spec = kin * spec
            ref_values = np.fft.ifft(spec)
            per_step = np.fft.ifft(kin * np.fft.fft(per_step))
        assert np.array_equal(psi.values, ref_values)
        exact = gaussian_exact(params, psi.x, grid).values
        assert np.max(np.abs(psi.values - exact)) <= np.max(np.abs(per_step - exact))
        assert abs(psi.norm() - psi0.norm()) <= 1e-15

    def test_output_does_not_depend_on_call_history(self):
        psi = _random_packet(7, TimeGrid(-8.0, 8.0, 256))
        before = evolve_free(psi, 0.7).values.tobytes()
        evolve_free(psi, -1.1)
        assert evolve_free(psi, 0.7).values.tobytes() == before
        negative_zero = evolve_free(psi, -0.0).values.tobytes()
        positive_zero = evolve_free(psi, 0.0).values.tobytes()
        assert positive_zero == negative_zero
        evolve_free(psi, 0.7)
        assert evolve_free(psi, 0.0).values.tobytes() == positive_zero
        assert evolve_free(psi, -0.0).values.tobytes() == negative_zero

    def test_carrier_case_matches_oracle(self):
        params = GaussianParams(sigma=1.0, omega0=2.0)
        grid = TimeGrid(-40.0, 60.0, 4096)
        evolved = evolve_free(gaussian_exact(params, 0.0, grid), 4.0)
        exact = gaussian_exact(params, 4.0, grid)
        assert np.max(np.abs(evolved.values - exact.values)) < 1e-8


class TestHeldSpectrum:
    """evolve_free's output holds its spectrum and forms its values on first read;
    nothing else holds one, and nothing can go stale."""

    def test_a_chain_transforms_back_only_the_stations_read(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft))
        psi = _random_packet(11, TimeGrid(-8.0, 8.0, 256))
        chain = []
        for _ in range(5):
            psi = evolve_free(psi, 0.3)
            chain.append(psi)
        assert calls == ["fft"]
        psi.values
        assert calls == ["fft", "ifft"]
        psi.norm()
        assert calls == ["fft", "ifft"]
        for station in chain:
            station.values
        assert calls == ["fft"] + ["ifft"] * 5

    def test_a_step_from_an_output_never_reads_its_values(self, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("inverse transform taken")

        psi = evolve_free(_random_packet(19, TimeGrid(-8.0, 8.0, 128)), 0.3)
        monkeypatch.setattr(np.fft, "ifft", spy)
        chain = [psi]
        for _ in range(4):
            chain.append(evolve_free(chain[-1], 0.2))
        assert not any("values" in vars(station) for station in chain)

    @pytest.mark.parametrize("n", [256, 2**16])
    def test_unread_values_are_the_eager_inverse_transform(self, n):
        grid = TimeGrid(-8.0, 8.0, n)
        psi = _random_packet(20, grid)
        kin = np.exp(-1j * NATURAL.beta * 0.4 * grid.omegas**2)
        spec = kin * np.fft.fft(psi.values)  # on its own line, as the package forms it
        outs = [evolve_free(psi, 0.4)]
        refs = [np.fft.ifft(spec)]
        for _ in range(2):
            outs.append(evolve_free(outs[-1], 0.4))
            spec = kin * spec
            refs.append(np.fft.ifft(spec))
        assert not any("values" in vars(out) for out in outs)
        for out, ref in zip(outs, refs):
            assert np.array_equal(out.values, ref)

    @pytest.mark.parametrize(
        "op",
        [copy.deepcopy, lambda w: pickle.loads(pickle.dumps(w)), dataclasses.replace],
        ids=["deepcopy", "pickle", "replace"],
    )
    def test_a_copy_of_an_unread_output_has_the_values_of_a_read_one(self, op):
        psi = _random_packet(21, TimeGrid(-8.0, 8.0, 128))
        unread, read = (evolve_free(evolve_free(psi, 0.3), 0.2) for _ in range(2))
        values = read.values
        assert "values" not in vars(unread)
        for twin in (op(unread), op(read)):
            assert (twin.x, twin.grid) == (read.x, read.grid)
            assert np.array_equal(twin.values, values)

    def test_repr_and_eq_read_the_values(self):
        psi = _random_packet(23, TimeGrid(-8.0, 8.0, 128))
        unread, read = (evolve_free(evolve_free(psi, 0.3), 0.2) for _ in range(2))
        read.values
        assert repr(unread) == repr(read)
        unread, other = evolve_free(evolve_free(psi, 0.3), 0.2), dataclasses.replace(read, x=0.0)
        assert "values" not in vars(unread)
        assert unread == unread and read == read
        assert unread != other and read != other
        assert np.array_equal(unread.values, read.values)

    def test_a_spectrum_whose_inverse_is_not_finite_raises_when_read(self):
        grid = TimeGrid(-8.0, 8.0, 64)
        with np.errstate(over="ignore", invalid="ignore"):
            out = evolve_free(Wavefunction(0.0, grid, np.full(grid.n, 1e308 + 0j)), 0.1)
        with pytest.raises(ValueError, match="samples contain non-finite entries"):
            out.values

    def test_output_arrays_are_read_only(self):
        out = evolve_free(_random_packet(12, TimeGrid(-8.0, 8.0, 128)), 0.5)
        with pytest.raises(ValueError, match="read-only"):
            out.values[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            out._spectrum[0] = 0.0

    def test_a_user_built_packet_holds_no_spectrum(self):
        psi = _random_packet(13, TimeGrid(-8.0, 8.0, 128))
        assert psi._spectrum is None
        assert Wavefunction(psi.x, psi.grid, evolve_free(psi, 0.5).values)._spectrum is None

    @pytest.mark.parametrize("n", [256, 2**16])
    def test_single_step_from_a_user_built_packet_is_the_inline_multiplier(self, n):
        # from 256 KiB up numpy forms kin * fft(values) in the transform's
        # buffer, operands swapped; a single step keeps those bits too
        grid = TimeGrid(-8.0, 8.0, n)
        psi = _random_packet(14, grid)
        kin = np.exp(-1j * NATURAL.beta * 0.7 * grid.omegas**2)
        ref = np.fft.ifft(kin * np.fft.fft(psi.values))  # outside the assert, which keeps temporaries
        assert np.array_equal(evolve_free(psi, 0.7).values, ref)

    def test_in_place_write_to_a_user_built_packet_is_seen(self):
        grid = TimeGrid(-8.0, 8.0, 256)
        vals = np.random.default_rng(15).standard_normal(grid.n) + 0j
        psi = Wavefunction(0.0, grid, vals)
        evolve_free(psi, 0.4)
        psi.values[::3] *= -2.0
        written = Wavefunction(0.0, grid, psi.values.copy())
        assert np.array_equal(evolve_free(psi, 0.4).values, evolve_free(written, 0.4).values)

    def test_values_made_writeable_again_are_transformed(self):
        grid = TimeGrid(-8.0, 8.0, 256)
        out = evolve_free(_random_packet(16, grid), 0.4)
        out.values.flags.writeable = True
        out.values[::5] = 1.0
        fresh = Wavefunction(out.x, grid, out.values.copy())
        assert np.array_equal(evolve_free(out, 0.4).values, evolve_free(fresh, 0.4).values)

    def test_a_deep_copy_does_not_reuse_a_stale_spectrum(self):
        grid = TimeGrid(-8.0, 8.0, 256)
        twin = copy.deepcopy(evolve_free(_random_packet(17, grid), 0.4))
        twin.values[::4] = 2.0
        fresh = Wavefunction(twin.x, grid, twin.values.copy())
        assert np.array_equal(evolve_free(twin, 0.4).values, evolve_free(fresh, 0.4).values)

    def test_an_unpickled_twin_does_not_reuse_a_stale_spectrum(self):
        grid = TimeGrid(-8.0, 8.0, 256)
        twin = pickle.loads(pickle.dumps(evolve_free(_random_packet(22, grid), 0.4)))
        twin.values[::4] = 2.0
        fresh = Wavefunction(twin.x, grid, twin.values.copy())
        assert np.array_equal(evolve_free(twin, 0.4).values, evolve_free(fresh, 0.4).values)

    def test_consumers_see_only_the_values(self):
        grid = TimeGrid(-8.0, 8.0, 128)
        evolved = evolve_free(evolve_free(_random_packet(18, grid), 0.3), 0.2)
        plain = Wavefunction(evolved.x, grid, evolved.values.copy())
        F = lambda x, t: 0.3 * np.sin(t + x)
        v = PotentialSpec.time_profile(lambda t: 0.3 * np.cos(t))
        eta = lambda x: 1.0 + 0.5 * np.sin(np.asarray(x))
        for a, b in (
            (evolve_interacting(evolved, F, 0.2, 1.0, 8), evolve_interacting(plain, F, 0.2, 1.0, 8)),
            (dyson_first_order(evolved, v, eta, 0.1, 0.2, 1.0, 8), dyson_first_order(plain, v, eta, 0.1, 0.2, 1.0, 8)),
        ):
            assert np.array_equal(a.values, b.values)
        for a, b in zip(carroll_density_current(evolved, v), carroll_density_current(plain, v)):
            assert np.array_equal(a, b)


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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "record, field",
        [(GaussianParams, name) for name in ("sigma", "t0", "omega0")]
        + [(PhysicalConstants, name) for name in ("hbar", "m", "c")],
        ids=lambda p: p if isinstance(p, str) else p.__name__,
    )
    def test_non_finite_field_rejected(self, record, field, value):
        base = {"sigma": 1.0} if record is GaussianParams else {}
        with pytest.raises(ValueError, match="finite"):
            record(**{**base, field: value})

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

    def test_complex_potential_rejected(self):
        # its imaginary part used to be dropped from rho without a word
        psi = gaussian_exact(GaussianParams(sigma=1.0, omega0=1.0), 1.0, TimeGrid(-30.0, 30.0, 1024))
        with pytest.raises(ValueError, match="complex potential rejected"):
            carroll_density_current(psi, PotentialSpec.time_profile(lambda t: 0.3 + 1j * t))
        # a complex dtype with no imaginary part is the real V
        real, zero_imag = (
            carroll_density_current(psi, PotentialSpec.time_profile(f)) for f in (np.sin, lambda t: np.sin(t) + 0j)
        )
        for a, b in zip(real, zero_imag):
            assert a.dtype == float and np.array_equal(a, b)
