"""Tests for the command-line front end: exit codes, CSV format, determinism."""
from __future__ import annotations

import filecmp
import glob
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import carrollsch
from carrollsch import PotentialSpec, cli


CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "configs")


def _write_config(tmp_path, payload: dict) -> str:
    p = tmp_path / "config.json"
    p.write_text(json.dumps(payload))
    return str(p)


def _run_python(args: list) -> subprocess.CompletedProcess:
    """`python ARGS` in a fresh interpreter that imports this checkout's carrollsch."""
    src = os.path.dirname(os.path.dirname(carrollsch.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


class TestConfigHandling:
    def test_missing_config_defaults(self, tmp_path):
        cfg = cli.load_config(None)
        assert list(cfg) == list(cli.DEFAULTS)
        for name, block in cli.DEFAULTS.items():
            assert cfg[name] == {k: d[0] if isinstance(d, tuple) else d for k, d in block.items()}, name
        path = _write_config(tmp_path, {"schema": cli.SCHEMA, "duality": {"target": "harmonic"}})
        assert cli.load_config(path)["duality"]["E_sch"] == 0.25

    def test_wrong_schema_rejected(self, tmp_path):
        path = _write_config(tmp_path, {"schema": "other/9"})
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(cli.ConfigError):
            cli.load_config(str(path))

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))), ids=os.path.basename
    )
    def test_shipped_config_loads(self, path):
        cli.load_config(path)

    def test_default_json_matches_the_table(self):
        assert cli.load_config(os.path.join(CONFIG_DIR, "default.json")) == cli.load_config(None)

    def test_unreadable_config_exit_code(self, tmp_path):
        code = cli.main(["gaussian", "--config", str(tmp_path / "missing.json")])
        assert code == 1

    def test_malformed_json_exit_code(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert cli.main(["gaussian", "--config", str(p)]) == 1

    def test_unknown_subcommand_rejected(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["quantize", "--bogus"], ["quantize", "--tolerance-profile", "strict"]])
    def test_unknown_flag_rejected(self, capsys, argv):
        assert cli.main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out


class TestExitCodes:
    def test_success(self, tmp_path):
        cfg = _write_config(tmp_path, {"schema": cli.SCHEMA, "quantize": {"n_max": 2}})
        assert cli.main(["quantize", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_tolerance_breach(self, tmp_path):
        # a deliberately coarse grid cannot resolve the packet moments
        cfg = _write_config(
            tmp_path,
            {"schema": cli.SCHEMA, "gaussian": {"n": 16, "stations": [0.0, 5.0]}},
        )
        assert cli.main(["gaussian", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_tolerance_breach_leaves_every_csv(self, tmp_path):
        # every table is written before the first gate is checked
        cfg = _write_config(
            tmp_path,
            {"schema": cli.SCHEMA, "gaussian": {"n": 16, "stations": [0.0, 5.0]}},
        )
        out = tmp_path / "o"
        assert cli.main(["gaussian", "--config", cfg, "--out", str(out)]) == 2
        assert sorted(os.listdir(out)) == ["gaussian_field.csv", "gaussian_summary.csv"]

    def test_bad_parameter(self, tmp_path):
        cfg = _write_config(
            tmp_path, {"schema": cli.SCHEMA, "gaussian": {"sigma": -1.0}}
        )
        assert cli.main(["gaussian", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_branch_error_is_numerical_failure(self, tmp_path, capsys):
        # E_sch far above the well leaves the pair unresolved: a step turns
        # the angle too far for tau to stay monotone
        cfg = _write_config(
            tmp_path,
            {"schema": cli.SCHEMA, "duality": {"target": "harmonic", "omega": 1.0, "E_sch": 1e6}},
        )
        assert cli.main(["duality", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "tau is not strictly monotone" in capsys.readouterr().err

    def test_overflowing_pair_is_numerical_failure(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, {"schema": cli.SCHEMA, "duality": {"target": "harmonic", "E_sch": 1e7, "n": 64}}
        )
        assert cli.main(["duality", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "fundamental pair overflows" in capsys.readouterr().err

    def test_too_coarse_pair_is_numerical_failure(self, tmp_path, capsys):
        # three steps are a valid grid, too coarse to leave a sample after the end trim
        cfg = _write_config(tmp_path, {"schema": cli.SCHEMA, "duality": {"n": 3}})
        assert cli.main(["duality", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "too few samples for the map: 0" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", [[0.01], [0.01, 0.01], [0.0, 0.01]])
    def test_dyson_eps_cannot_fit_a_slope(self, tmp_path, eps):
        cfg = _write_config(tmp_path, {"schema": cli.SCHEMA, "dyson": {"eps": eps}})
        assert cli.main(["dyson", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_dyson_few_odd_steps_keep_the_slope(self, tmp_path):
        # the Dyson rows take the reference's own steps, an odd count included
        cfg = _write_config(tmp_path, {"schema": cli.SCHEMA, "dyson": {"n_steps": 7}})
        assert cli.main(["dyson", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"gaussian": []}, "'gaussian' must be a JSON object"),
            ({"gaussian": {"stations": 5}}, "gaussian.stations must be a list"),
            ({"gaussian": {"sigma": float("nan")}}, "gaussian.sigma must be positive"),
            ({"commutator": {"sizes": [48]}}, "power of two"),
            ({"gaussian": {"sigma": None}}, "gaussian.sigma must be a number"),
            ({"currents": {"sizes": [128.9, 256]}}, "currents.sizes must be an integer"),
            ({"rays": {"n_steps": True}}, "rays.n_steps must be a number"),
            ({"dyson": {"x_end": "1.0"}}, "dyson.x_end must be a number"),
            ({"rays": {"n_steps": 255.5}}, "rays.n_steps must be an integer"),
            ({"quantize": {}, "constants": {"hbar": None}}, "constants.hbar must be a number"),
            ({"gaussian": {"sigmma": 0.5}}, "unknown config key gaussian.sigmma"),
            ({"gaussian": {}, "gausian": {"sigma": 0.5}}, "unknown config block 'gausian'"),
            ({"rays": {"potential": "cubic"}}, "rays.potential must be one of"),
            ({"quantize": {"profile": 3}}, "quantize.profile must be one of"),
            ({"commutator": {"sizes": []}}, "commutator.sizes must not be empty"),
            ({"currents": {"sizes": []}}, "currents.sizes must not be empty"),
            ({"gaussian": {"stations": []}}, "gaussian.stations must not be empty"),
            ({"duality": {"target": "harmonic", "E_sch": None}}, "duality.E_sch must be a number"),
            ({"currents": {"sizes": [16, 32]}}, "grid has no interior"),
            ({"commutator": {"sizes": [16, 32]}}, "grid has no interior"),
            ({"quantize": {"n_max": 2001}}, "n_levels must lie in 1..n_points = 2000, got 2001"),
            ({"quantize": {"n_max": 2001}}, "quantize.n_max must lie in 1..2000"),
            ({"quantize": {"n_max": 0}}, "quantize.n_max must lie in 1..2000"),
            ({"quantize": {"T": 0.0}}, "quantize.T must be positive, got 0.0"),
            ({"duality": {"n": 0}}, "need at least one step, got n = 0"),
            ({"duality": {"n": -5}}, "need at least one step, got n = -5"),
            ({"quantize": {"p0": 1.0}}, "unknown config key quantize.p0"),
            ({"dyson": {"x_end": 0.0}}, "dyson.x_end must differ from the start station 0"),
            ({"commutator": {"sizes": [64, 16]}}, "grid has no interior"),
            ({"commutator": {"sizes": [8]}}, "grid has no interior"),
            ({"currents": {"sizes": [256, 128]}}, "currents.sizes needs at least two sizes, each double"),
            ({"currents": {"sizes": [128, 128]}}, "currents.sizes needs at least two sizes, each double"),
            ({"currents": {"sizes": [128, 512]}}, "currents.sizes needs at least two sizes, each double"),
            ({"currents": {"sizes": [128]}}, "currents.sizes needs at least two sizes, each double"),
        ],
    )
    def test_config_fault_exit_code(self, tmp_path, capsys, payload, message):
        cfg = _write_config(tmp_path, {"schema": cli.SCHEMA, **payload})
        sub = next(iter(payload))
        assert cli.main([sub, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sub, payload",
        [
            ("gaussian", {"constants": {"c": 1e120}}),
            ("rays", {"constants": {"c": 1e120}}),
            ("gaussian", {"gaussian": {"sigma": 1e200}}),
        ],
        ids=["gaussian-c", "rays-c", "gaussian-sigma"],
    )
    def test_overflow_is_numerical_failure(self, tmp_path, capsys, sub, payload):
        cfg = _write_config(tmp_path, {"schema": cli.SCHEMA, **payload})
        assert cli.main([sub, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_nan_gated_value_is_tolerance_breach(self, tmp_path):
        # t and its exact value both overflow to -inf, so the ray error is NaN;
        # a fresh process, because the overflow warning is an error in the suite
        payload = {"schema": cli.SCHEMA, "rays": {"potential": "time-only", "q0": 1e308, "x_end": 1e10}}
        cfg = _write_config(tmp_path, payload)
        proc = _run_python(["-m", "carrollsch.cli", "rays", "--config", cfg, "--out", str(tmp_path / "o")])
        assert proc.returncode == 2, proc.stderr
        assert "tolerance breach: rays_exact = nan" in proc.stderr

    def test_nonfinite_commutator_field_is_config_fault(self, tmp_path):
        # F psi overflows at c = 1e-160; the residual must not be written as 0
        payload = {"schema": cli.SCHEMA, "constants": {"c": 1e-160}, "commutator": {"sizes": [32]}}
        cfg = _write_config(tmp_path, payload)
        proc = _run_python(["-m", "carrollsch.cli", "commutator", "--config", cfg, "--out", str(tmp_path / "o")])
        assert proc.returncode == 1, proc.stderr
        assert "samples contain non-finite entries" in proc.stderr

    def test_gate_intervals(self):
        tol = cli.TOLERANCES["default"]
        assert list(cli.TOLERANCES) == ["default"]
        for key, (lo, hi) in tol.items():
            cli._gate(tol, key, lo, "")  # a value on a bound passes
            cli._gate(tol, key, hi, "")
            for bad in (float("nan"), np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)):
                if not np.isinf(bad):  # no float lies beyond an infinite bound
                    with pytest.raises(cli.ToleranceBreach, match=key):
                        cli._gate(tol, key, bad, "")
        with pytest.raises(cli.ToleranceBreach, match=r"currents_ratio = 3.4 outside \[3.5, inf\]"):
            cli._gate(tol, "currents_ratio", 3.4, "")

    def test_unknown_duality_target(self, tmp_path):
        cfg = _write_config(
            tmp_path, {"schema": cli.SCHEMA, "duality": {"target": "nope"}}
        )
        assert cli.main(["duality", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


ALL_SUBCOMMANDS = ["gaussian", "duality", "commutator", "currents", "rays", "quantize", "dyson"]


class TestSubcommands:
    @pytest.mark.parametrize("sub", ALL_SUBCOMMANDS)
    def test_runs_clean_with_defaults(self, tmp_path, sub):
        out = tmp_path / sub
        assert cli.main([sub, "--out", str(out)]) == 0
        files = os.listdir(out)
        assert files, f"{sub} produced no output"
        for name in files:
            assert name.endswith(".csv")

    def test_duality_velocity_profile(self, tmp_path):
        cfg = _write_config(
            tmp_path, {"schema": cli.SCHEMA, "duality": {"target": "velocity-profile"}}
        )
        out = tmp_path / "o"
        assert cli.main(["duality", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "duality_forward.csv").exists()

    @pytest.mark.parametrize(
        "payload",
        [{"duality": {"target": "free", "E0": 2.0}}, {"duality": {"target": "free"}, "constants": {"hbar": 2.0}}],
        ids=["E0", "hbar"],
    )
    def test_free_duality_gate_scales_with_hbar_over_E0(self, tmp_path, payload):
        # tau(1) = (hbar/E0) pi/4, not pi/4
        cfg = _write_config(tmp_path, {"schema": cli.SCHEMA, **payload})
        assert cli.main(["duality", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_free_duality_uses_configured_E_sch(self, tmp_path):
        maps = {}
        for e_sch in (0.0, 0.3):
            cfg = _write_config(tmp_path, {"schema": cli.SCHEMA, "duality": {"target": "free", "E_sch": e_sch}})
            out = tmp_path / str(e_sch)
            assert cli.main(["duality", "--config", cfg, "--out", str(out)]) == 0
            maps[e_sch] = (out / "duality_map.csv").read_text()
        assert maps[0.0] != maps[0.3]
        q = [float(row.split(",")[4]) for row in maps[0.3].splitlines()[1:]]
        assert q == [-0.6] * len(q)  # q = (2m/hbar^2)(0 - E_sch)

    def test_rays_time_only_honours_q0(self, tmp_path):
        csv = {}
        for q0 in (0.0, 1.0):
            payload = {"rays": {"potential": "time-only", "q0": q0, "t0": 0.25}}
            cfg = _write_config(tmp_path, {"schema": cli.SCHEMA, **payload})
            out = tmp_path / str(q0)
            assert cli.main(["rays", "--config", cfg, "--out", str(out)]) == 0
            csv[q0] = (out / "rays.csv").read_text()
        assert csv[0.0] != csv[1.0]
        t = [float(row.split(",")[1]) for row in csv[0.0].splitlines()[1:]]
        assert t == [0.25] * len(t)  # q0 = 0: no drift in t

    @pytest.mark.parametrize("constants", [{}, {"m": 0.5, "c": 2.0}], ids=["natural", "m0.5-c2"])
    @pytest.mark.parametrize("potential", ["linear", "time-only", "quadratic"])
    def test_rays_follow_the_closed_form(self, tmp_path, potential, constants):
        # q0 = 0.5 gives the time-only ray a slope; the header's closed forms,
        # written out: t0 - q0 x / mc^3, minus alpha x^2 / 2mc^3 or kappa x^3 / 6mc^3
        payload = {"schema": cli.SCHEMA, "constants": constants, "rays": {"potential": potential, "q0": 0.5, "t0": 0.3}}
        cfg = _write_config(tmp_path, payload)
        assert cli.main(["rays", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = np.loadtxt(tmp_path / "o" / "rays.csv", delimiter=",", skiprows=1)
        x, t = rows[:, 0], rows[:, 1]
        mc3 = constants.get("m", 1.0) * constants.get("c", 1.0) ** 3
        alpha, kappa = cli.DEFAULTS["rays"]["alpha"], cli.DEFAULTS["rays"]["kappa"]
        bend = {"linear": alpha * x**2 / 2, "time-only": 0.0 * x, "quadratic": kappa * x**3 / 6}[potential]
        np.testing.assert_allclose(t, 0.3 - 0.5 * x / mc3 - bend / mc3, rtol=0, atol=1e-8)

    def test_rays_run_one_picard_sweep(self, tmp_path, monkeypatch):
        sweeps = []

        def counted(*args, **kwargs):
            sweeps.append(args[5])
            return picard_iterate(*args, **kwargs)

        picard_iterate = cli.classical.picard_iterate
        monkeypatch.setattr(cli.classical, "picard_iterate", counted)
        assert cli.main(["rays", "--out", str(tmp_path / "o")]) == 0
        assert sweeps == [1]
        rows = np.loadtxt(tmp_path / "o" / "rays.csv", delimiter=",", skiprows=1)
        _, its = picard_iterate(PotentialSpec.space_profile(lambda x: x, np.ones_like), 0.0, 0.0, 0.0, 1.0, 1, 256)
        assert np.array_equal(rows[:, 5], its[1])

    @pytest.mark.parametrize(
        "constants", [{"hbar": 1.3, "m": 0.8, "c": 1.1}, {"hbar": 0.5, "c": 2.0}], ids=["c1.1", "c2"]
    )
    def test_currents_with_nonunit_c(self, tmp_path, constants):
        # the x grid spans c times the t grid, so dx = c dt holds for the inversion
        cfg = _write_config(tmp_path, {"schema": cli.SCHEMA, "constants": constants})
        out = tmp_path / "o"
        assert cli.main(["currents", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "currents_residuals.csv").read_text().splitlines()[2:]
        ratios = [float(row.split(",")[2]) for row in rows]
        assert len(ratios) == 2 and min(ratios) > 12.0  # 4th-order stencils: 16 in the limit

    def test_quantize_levels_content(self, tmp_path):
        out = tmp_path / "o"
        assert cli.main(["quantize", "--out", str(out)]) == 0
        lines = (out / "quantize_levels.csv").read_text().splitlines()
        levels = [float(row.split(",")[1]) for row in lines[1:]]
        np.testing.assert_allclose(levels, [1.0, 2.0, 3.0], atol=1e-15)


class TestCommandTable:
    @pytest.mark.parametrize("sub", sorted(cli.COMMANDS))
    def test_entry_is_the_module_function(self, sub):
        # the perfbench tracer names its cli.cmd_s.<sub> spans from __module__ and __name__
        entry = cli.COMMANDS[sub]
        assert entry is getattr(cli, f"cmd_{sub}")
        assert entry.__name__ == f"cmd_{sub}"
        assert entry.__module__ == "carrollsch.cli"


class TestCsvFormat:
    def test_lf_endings_and_roundtrip_floats(self, tmp_path):
        path = tmp_path / "t.csv"
        value = 1.0 / 3.0
        cli.write_csv(str(path), ["a", "b"], [(1, value)])
        raw = path.read_bytes()
        assert b"\r" not in raw
        line = raw.decode().splitlines()[1]
        assert float(line.split(",")[1]) == value

    def test_no_temp_file_leftovers(self, tmp_path):
        path = tmp_path / "t.csv"
        cli.write_csv(str(path), ["a"], [(1.0,)])
        assert sorted(os.listdir(tmp_path)) == ["t.csv"]

    def test_determinism(self, tmp_path):
        for tag in ("a", "b"):
            assert cli.main(["rays", "--out", str(tmp_path / tag)]) == 0
        assert filecmp.cmp(tmp_path / "a" / "rays.csv", tmp_path / "b" / "rays.csv", shallow=False)


def test_scipy_loaded_only_where_needed(tmp_path):
    """Neither the package import nor any of the seven subcommands loads a scipy module."""
    code = textwrap.dedent(
        f"""
        import sys
        import carrollsch
        from carrollsch import cli

        def scipy_modules():
            return [m for m in sys.modules if m.split(".")[0] == "scipy"]

        assert not scipy_modules(), scipy_modules()
        assert len(cli.COMMANDS) == 7, sorted(cli.COMMANDS)
        for sub in sorted(cli.COMMANDS):
            assert cli.main([sub, "--out", {str(tmp_path)!r} + "/" + sub]) == 0, sub
            assert not scipy_modules(), (sub, scipy_modules())
        """
    )
    proc = _run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
