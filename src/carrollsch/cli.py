"""Command-line front end: one subcommand per experiment family.

JSON config in, CSV out.  Output is deterministic for a fixed config and
seed; files are written atomically (temp + rename) with LF line endings and
17-significant-digit floats so golden files diff cleanly.

Exit codes: 0 success, 1 validation error (bad config / arguments),
2 numerical failure (a declared tolerance was breached, or a kernel raised
BranchError or an ArithmeticError such as an overflow).  `DEFAULTS` is the
config schema: an unknown block or key, a value of the wrong type, or an
empty list is a validation error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import Sequence

import numpy as np

from .constants import PhysicalConstants
from .numerics import TimeGrid
from .potentials import PotentialSpec
from . import classical, currents, duality, interaction, operators, propagator

SCHEMA = "carrollsch-config/1"

#: per-profile tolerances used for exit-code gating
TOLERANCES = {
    "default": {
        "gaussian_width_rel": 1e-6,
        "gaussian_drift_rel": 1e-6,
        "duality_tau_free": 1e-8,
        "quantize_norm": 1e-10,
        "rays_exact": 1e-8,
        "currents_ratio": 3.5,
        "dyson_slope_lo": 1.8,
        "dyson_slope_hi": 2.2,
    },
    "strict": {
        "gaussian_width_rel": 1e-7,
        "gaussian_drift_rel": 1e-7,
        "duality_tau_free": 1e-9,
        "quantize_norm": 1e-11,
        "rays_exact": 1e-9,
        "currents_ratio": 3.8,
        "dyson_slope_lo": 1.9,
        "dyson_slope_hi": 2.1,
    },
}


class ConfigError(ValueError):
    pass


class ToleranceBreach(RuntimeError):
    pass


#: kernel exceptions that report a numerical failure, not a bad config
NUMERICAL_ERRORS = (duality.BranchError, ArithmeticError)

#: duality target -> its default E_sch
_E_SCH = {
    "free": 0.0, "constant": 0.0, "harmonic": 0.25, "coulomb-like": -0.5, "velocity-profile": 0.0,
}

#: The config schema, block -> key -> default.  The default's type is the
#: key's type: float, int, or a list of either.  A tuple lists the allowed
#: strings, the first being the default.  duality.E_sch is a float whose
#: default depends on the target (`_E_SCH`), so its entry is None.
DEFAULTS = {
    "constants": {"hbar": 1.0, "m": 1.0, "c": 1.0},
    "gaussian": {"sigma": 1.0, "omega0": 2.0, "t0": 0.0, "stations": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                 "n": 2048},
    "duality": {"target": tuple(_E_SCH), "E0": 1.0, "n": 2048, "E_sch": None, "v0": 2.0,
                "omega": 1.0, "x0": 0.0, "k": 1.0, "sign": -1.0},
    "commutator": {"shift": 0.7, "sizes": [64, 128, 256]},
    "currents": {"sigma": 1.0, "sizes": [128, 256, 512]},
    "rays": {"potential": ("linear", "time-only", "quadratic"), "x_end": 1.0, "n_steps": 256,
             "q0": 0.0, "t0": 0.0, "alpha": 1.0, "kappa": 6.0},
    "quantize": {"T": math.pi, "n_max": 3, "p0": 1.0, "profile": ("sin", "zero")},
    "dyson": {"eps": [0.005, 0.01, 0.02, 0.05], "x_end": 1.0, "n_steps": 256},
}


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return "%.17g" % float(value)


def write_csv(path: str, header: Sequence[str], rows) -> None:
    """Atomic CSV write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-csv-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_config(path: str | None) -> dict:
    """The config at `path`, every block checked against `DEFAULTS`."""
    if path is None:
        return {"schema": SCHEMA}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict) or cfg.get("schema") != SCHEMA:
        raise ConfigError(f"config schema must be {SCHEMA!r}")
    for name in cfg:
        if name != "schema":
            _resolve(cfg, name)
    return cfg


def _cast(value, where: str, cast: type):
    """A JSON number as float or, for cast=int, as an integer; `where` names it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if cast is int and not (math.isfinite(value) and value == int(value)):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return cast(value)


def _value(block: dict, key: str, default, where: str):
    """block[key], or the default, checked against the type of the default."""
    if isinstance(default, tuple):
        value = block.get(key, default[0])
        if value not in default:
            raise ConfigError(f"{where} must be one of {', '.join(default)}, got {value!r}")
        return value
    value = block.get(key, default)
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        if not value:
            raise ConfigError(f"{where} must not be empty")
        return [_cast(v, f"entry of {where}", type(default[0])) for v in value]
    if value is None and key not in block:
        return None  # duality.E_sch: the target's default
    return _cast(value, where, int if type(default) is int else float)


def _resolve(cfg: dict, name: str) -> dict:
    """Block `name` of `cfg`, checked against `DEFAULTS`, with every default filled in."""
    if name not in DEFAULTS:
        raise ConfigError(f"unknown config block {name!r}")
    block = cfg.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"config block {name!r} must be a JSON object")
    for key in block:
        if key not in DEFAULTS[name]:
            raise ConfigError(f"unknown config key {name}.{key}")
    return {key: _value(block, key, d, f"{name}.{key}") for key, d in DEFAULTS[name].items()}


def _constants(cfg: dict) -> PhysicalConstants:
    return PhysicalConstants(**_resolve(cfg, "constants"))


# ---------------------------------------------------------------- gaussian


def cmd_gaussian(cfg: dict, out: str, tol: dict) -> None:
    b = _resolve(cfg, "gaussian")
    sigma, omega0, t0, stations, n = b["sigma"], b["omega0"], b["t0"], b["stations"], b["n"]
    consts = _constants(cfg)
    if not sigma > 0:
        raise ConfigError("gaussian.sigma must be positive")

    half = 20.0 * propagator.effective_width(sigma, max(abs(s) for s in stations) or 1.0, consts)
    center = propagator.carrier_center(t0, consts.hbar * omega0, max(stations), consts) / 2
    grid = TimeGrid(center - half, center + half, n)
    params = propagator.GaussianParams(sigma=sigma, t0=t0, omega0=omega0)
    vzero = PotentialSpec.zero()

    summary = []
    field_rows = []
    for x in stations:
        psi = propagator.gaussian_exact(params, x, grid, consts)
        norm, mean, std = propagator.measured_moments(psi)
        w_pred = propagator.effective_width(sigma, x, consts)
        c_pred = propagator.carrier_center(t0, consts.hbar * omega0, x, consts)
        # the density is exp(-t^2/sigma_eff^2), so sigma_eff = sqrt(2) * std
        summary.append((x, w_pred, np.sqrt(2.0) * std, c_pred, mean, norm))
        rho, j = propagator.carroll_density_current(psi, vzero, consts)
        stride = max(1, n // 64)
        for i in range(0, n, stride):
            field_rows.append(
                (x, grid.times[i], psi.values[i].real, psi.values[i].imag, rho[i], j[i])
            )

    write_csv(
        os.path.join(out, "gaussian_summary.csv"),
        [
            "x",
            "sigma_eff_predicted=sqrt(sigma^2+(hbar*x/(m*c^3*sigma))^2)",
            "sigma_eff_measured=sqrt(2)*std(|psi|^2)",
            "t_c_predicted=t0+E0*x/(m*c^3)",
            "t_c_measured=centroid(|psi|^2)",
            "norm=L2(psi)",
        ],
        summary,
    )
    write_csv(
        os.path.join(out, "gaussian_field.csv"),
        ["x", "t", "re=Re(psi)", "im=Im(psi)", "rho=-(hbar/mc^3)*Im(psi* dt psi)", "j_t=(hbar/mc^3)*Im(psi* dt psi)"],
        field_rows,
    )

    for x, w_pred, std, c_pred, mean, _ in summary:
        if abs(std / w_pred - 1.0) > tol["gaussian_width_rel"]:
            raise ToleranceBreach(f"width mismatch at x={x}: {std} vs {w_pred}")
        scale = max(abs(c_pred), propagator.effective_width(sigma, x, consts))
        if abs(mean - c_pred) > tol["gaussian_drift_rel"] * scale:
            raise ToleranceBreach(f"drift mismatch at x={x}: {mean} vs {c_pred}")


# ----------------------------------------------------------------- duality


def _e_sch(block: dict) -> float:
    """E_sch of a resolved duality block: the configured value or its target's default."""
    return _E_SCH[block["target"]] if block["E_sch"] is None else block["E_sch"]


def _duality_target(block: dict):
    """(name, V_sch, E_sch, x range) of the static target of a resolved duality block."""
    name, x0 = block["target"], block["x0"]
    if name == "free":
        return name, PotentialSpec.zero(), _e_sch(block), (0.0, 2.0)
    if name == "constant":
        return name, PotentialSpec.constant(block["v0"]), _e_sch(block), (0.0, 0.6)
    if name == "harmonic":
        omega = block["omega"]
        v = PotentialSpec.space_profile(lambda x: 0.5 * omega**2 * (x - x0) ** 2)
        return name, v, _e_sch(block), (x0 - 1.5, x0 + 1.5)
    # coulomb-like
    k, sign = block["k"], block["sign"]
    v = PotentialSpec.space_profile(lambda x: sign * k / (x - x0))
    return name, v, _e_sch(block), (x0 + 0.5, x0 + 3.0)


def cmd_duality(cfg: dict, out: str, tol: dict) -> None:
    block = _resolve(cfg, "duality")
    consts = _constants(cfg)
    E0, n = block["E0"], block["n"]

    if block["target"] == "velocity-profile":
        # forward route: V_car from the prescribed velocity v(t) = 1 + t^2
        tg = TimeGrid(-1.0, 1.0, n)
        v_car = PotentialSpec.time_profile(lambda t: -0.5j * consts.hbar * 2 * t / (1 + t**2))
        delta = duality.forward_delta(v_car, 1.0, 0.0, tg, consts)
        xs, vs = duality.vsch_from_vcar(v_car, delta, tg, _e_sch(block), E0, consts)
        write_csv(
            os.path.join(out, "duality_forward.csv"),
            ["t", "delta_re", "delta_im", "x=Re(delta)", "V_sch_re", "V_sch_im"],
            [
                (t, d.real, d.imag, x.real, v.real, v.imag)
                for t, d, x, v in zip(tg.times, delta, xs, vs)
            ],
        )
        return

    name, v_sch, E_sch, x_range = _duality_target(block)
    dmap = duality.inverse_tau(v_sch, E_sch, E0, x_range, consts, n=n)
    rt = duality.roundtrip_residual(dmap, v_sch)
    sw = duality.schwarzian_residual(dmap)

    write_csv(
        os.path.join(out, "duality_map.csv"),
        ["x", "tau", "sigma=y1/y2", "V_sch_target", "q=(2m/hbar^2)(V_sch-E_sch)"],
        [
            (x, t, s, v, q)
            for x, t, s, v, q in zip(
                dmap.x, np.real(dmap.tau), np.real(dmap.sigma), v_sch.v_x(dmap.x), dmap.q
            )
        ],
    )
    write_csv(
        os.path.join(out, "duality_delta.csv"),
        ["t", "delta=tau^{-1}(t)"],
        list(zip(dmap.delta_t, dmap.delta)),
    )
    write_csv(
        os.path.join(out, "duality_residuals.csv"),
        ["target", "roundtrip_residual", "schwarzian_residual=max|{sigma,x}+2q|"],
        [(name, rt, sw)],
    )

    if name == "free" and E_sch == 0:
        # sigma = 1/x, so tau(1) = (hbar/E0) arctan(1)
        tau1, expected = float(np.real(dmap.tau_at(1.0))), consts.hbar / E0 * np.pi / 4
        if abs(tau1 - expected) > tol["duality_tau_free"]:
            raise ToleranceBreach(f"free-case tau(1) = {tau1}, expected {expected}")


# -------------------------------------------------------------- commutator


def cmd_commutator(cfg: dict, out: str, tol: dict) -> None:
    b = _resolve(cfg, "commutator")
    consts = _constants(cfg)
    shift, sizes = b["shift"], b["sizes"]

    v_t = PotentialSpec.time_profile(np.sin, np.cos)
    v_t_shift = PotentialSpec.time_profile(lambda t: np.sin(t) + shift)
    v_t_neg = PotentialSpec.time_profile(lambda t: -np.sin(t) + shift)
    v_x = PotentialSpec.space_profile(lambda x: x, lambda x: np.ones_like(x))

    cases = [
        ("time_matched_plus", v_t, v_t_shift),
        ("time_matched_minus", v_t, v_t_neg),
        ("space_target", v_x, v_t_shift),
    ]
    probes = {}
    for n in sizes:
        grid = TimeGrid(-4.0, 4.0, n)
        probes[n] = operators.gaussian_probes(grid, grid)
    rows = [
        (label, n, operators.commutator_residual(vs, vc, probes[n], consts))
        for label, vs, vc in cases
        for n in sizes
    ]
    write_csv(
        os.path.join(out, "commutator_residuals.csv"),
        ["case", "n", "residual=max||(HF-FH)psi||/||psi||"],
        rows,
    )


# ---------------------------------------------------------------- currents


def cmd_currents(cfg: dict, out: str, tol: dict) -> None:
    b = _resolve(cfg, "currents")
    consts = _constants(cfg)
    sigma, sizes = b["sigma"], b["sizes"]

    params = propagator.GaussianParams(sigma=sigma, t0=0.0, omega0=0.0)
    rows = []
    prev = None
    for n in sizes:
        t_grid = TimeGrid(-12.0, 12.0, n)
        x_grid = TimeGrid(-12.0 * consts.c, 12.0 * consts.c, n)  # dx = c dt for the inversion
        field = propagator.gaussian_field(params, x_grid, t_grid, consts)
        res = currents.continuity_equivalence(field, consts)
        ratio = prev / res if prev is not None else float("nan")
        rows.append((n, res, ratio))
        prev = res
    write_csv(
        os.path.join(out, "currents_residuals.csv"),
        ["n", "residual=max|dt'rho+dx'J|", "ratio=residual(n/2)/residual(n)"],
        rows,
    )
    ratios = [r for _, _, r in rows[1:]]
    if ratios and min(ratios) < tol["currents_ratio"]:
        raise ToleranceBreach(f"continuity refinement ratio {min(ratios)} below bound")


# -------------------------------------------------------------------- rays


def cmd_rays(cfg: dict, out: str, tol: dict) -> None:
    b = _resolve(cfg, "rays")
    consts = _constants(cfg)
    kind, x_end, n_steps, q0, t0 = b["potential"], b["x_end"], b["n_steps"], b["q0"], b["t0"]

    if kind == "time-only":
        v = PotentialSpec.time_profile(np.cos, lambda t: -np.sin(t))

        def t_exact(x):
            return t0 - q0 * x / consts.mc3

    elif kind == "linear":
        alpha = b["alpha"]
        v = PotentialSpec.space_profile(lambda x: alpha * x, lambda x: alpha * np.ones_like(x))

        def t_exact(x):
            return t0 - q0 * x / consts.mc3 - alpha * x**2 / (2 * consts.mc3)

    else:  # quadratic
        kappa = b["kappa"]
        v = PotentialSpec.space_profile(lambda x: 0.5 * kappa * x**2, lambda x: kappa * x)

        def t_exact(x):
            return t0 - q0 * x / consts.mc3 - kappa * x**3 / (6 * consts.mc3)

    ray = classical.trace_ray(v, 0.0, t0, q0, x_end, n_steps, consts)
    xs, picard = classical.picard_iterate(
        v, 0.0, t0, q0, x_end, 2, n_samples=n_steps, constants=consts
    )
    rows = [
        (x, t, q, p, t_exact(x), pi)
        for x, t, q, p, pi in zip(ray.x, ray.t, ray.q, ray.p_x, picard[1])
    ]
    write_csv(
        os.path.join(out, "rays.csv"),
        [
            "x",
            "t (dt/dx=-q/mc^3)",
            "q=p_t+V_car",
            "p_x=q^2/(2mc^3)",
            "t_exact_if_available",
            "picard_1",
        ],
        rows,
    )
    err = max(abs(row[1] - row[4]) for row in rows)
    if err > tol["rays_exact"]:
        raise ToleranceBreach(f"ray error {err} above tolerance against exact quadrature")


# ---------------------------------------------------------------- quantize


def cmd_quantize(cfg: dict, out: str, tol: dict) -> None:
    b = _resolve(cfg, "quantize")
    consts = _constants(cfg)
    T, n_max, p0 = b["T"], b["n_max"], b["p0"]
    v = PotentialSpec.time_profile(np.sin, np.cos)
    if b["profile"] == "zero":
        v = PotentialSpec.zero()

    spec = interaction.quantized_modes(T, n_max, p0, v, consts)
    oracle = interaction.dirichlet_eigenvalue_oracle(T, 2000, n_max) * consts.hbar
    write_csv(
        os.path.join(out, "quantize_levels.csv"),
        ["n", "E_n=n*pi*hbar/T", "E_n_fd_oracle"],
        [(i + 1, e, o) for i, (e, o) in enumerate(zip(spec.levels, oracle))],
    )
    mode_rows = []
    for i, mode in enumerate(spec.modes):
        rho = np.abs(mode.values) ** 2
        stride = max(1, mode.grid.n // 128)
        for k in range(0, mode.grid.n, stride):
            mode_rows.append((i + 1, mode.grid.times[k], rho[k]))
    write_csv(
        os.path.join(out, "quantize_modes.csv"),
        ["n", "t", "rho=(2/T)*sin^2(n*pi*t/T)"],
        mode_rows,
    )
    for mode in spec.modes:
        total = mode.grid.dt * float(np.sum(np.abs(mode.values) ** 2))
        if abs(total - 1.0) > tol["quantize_norm"]:
            raise ToleranceBreach(f"mode norm {total} deviates from 1")


# ------------------------------------------------------------------- dyson


def cmd_dyson(cfg: dict, out: str, tol: dict) -> None:
    b = _resolve(cfg, "dyson")
    consts = _constants(cfg)
    eps_list, x_end, n_steps = b["eps"], b["x_end"], b["n_steps"]
    if len(set(eps_list)) < 2 or min(eps_list) <= 0:
        raise ConfigError("dyson.eps needs at least two distinct positive values to fit a slope")

    grid = TimeGrid(-20.0, 20.0, 1024)
    params = propagator.GaussianParams(sigma=1.0)
    phi0 = propagator.gaussian_exact(params, 0.0, grid, consts)
    g = PotentialSpec.time_profile(lambda t: 0.3 * np.cos(t))

    def eta(x):
        return 1.0 + 0.5 * np.sin(np.asarray(x))

    ref, dy = interaction.dyson_sweep(phi0, g, eta, eps_list, 0.0, x_end, n_steps, consts)
    errs = np.sqrt(grid.dt * np.sum(np.abs(ref - dy) ** 2, axis=1))

    slope, _ = np.polyfit(np.log(eps_list), np.log(errs), 1)
    rows = [(e, err, slope) for e, err in zip(eps_list, errs)]
    write_csv(
        os.path.join(out, "dyson_scaling.csv"),
        ["eps", "err=||phi_dyson-phi_full||", "slope=dlog(err)/dlog(eps)"],
        rows,
    )
    if not (tol["dyson_slope_lo"] <= slope <= tol["dyson_slope_hi"]):
        raise ToleranceBreach(f"Dyson error slope {slope} outside expected window")


# -------------------------------------------------------------------- main


COMMANDS = {
    "commutator": cmd_commutator,
    "duality": cmd_duality,
    "gaussian": cmd_gaussian,
    "currents": cmd_currents,
    "rays": cmd_rays,
    "quantize": cmd_quantize,
    "dyson": cmd_dyson,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="carrollsch",
        description="Experiments for the space-evolution wave dictionary.",
    )
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--tolerance-profile", choices=["strict", "default"], default="default"
    )
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        tol = TOLERANCES[args.tolerance_profile]
        COMMANDS[args.subcommand](cfg, args.out, tol)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ToleranceBreach as exc:
        print(f"tolerance breach: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
