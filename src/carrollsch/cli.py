"""Command-line front end: one subcommand per experiment family.

JSON config in, CSV out.  Output is deterministic for a fixed config and
seed; files are written atomically (temp + rename) with LF line endings and
17-significant-digit floats so golden files diff cleanly.

Exit codes: 0 success, 1 validation error (bad config / arguments),
2 numerical failure (a declared tolerance was breached, or a kernel raised
BranchError, MonotoneError or SingularPointError).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import Callable, Sequence

import numpy as np

from .constants import PhysicalConstants, NATURAL
from .numerics import MonotoneError, SingularPointError, TimeGrid
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
NUMERICAL_ERRORS = (duality.BranchError, MonotoneError, SingularPointError)


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
    if path is None:
        return {"schema": SCHEMA}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict) or cfg.get("schema") != SCHEMA:
        raise ConfigError(f"config schema must be {SCHEMA!r}")
    return cfg


def _block(cfg: dict, name: str) -> dict:
    """The config block `name`; a missing block reads as {} (all defaults)."""
    block = cfg.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"config block {name!r} must be a JSON object")
    return block


def _cast(value, where: str, cast: Callable):
    """A JSON number as float or, for cast=int, as an integer; `where` names it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if cast is int and not (math.isfinite(value) and value == int(value)):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return cast(value)


def _scalar(block: dict, name: str, key: str, default, cast: Callable = float):
    """The numeric key `name.key`, converted by `cast` (float or int)."""
    return _cast(block.get(key, default), f"{name}.{key}", cast)


def _list(block: dict, name: str, key: str, default: list, cast: Callable) -> list:
    """The list-valued key `name.key`, each entry converted by `cast` (float or int)."""
    value = block.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"{name}.{key} must be a list")
    return [_cast(v, f"entry of {name}.{key}", cast) for v in value]


def _constants(cfg: dict) -> PhysicalConstants:
    block = _block(cfg, "constants")
    values = {key: _scalar(block, "constants", key, 1.0) for key in ("hbar", "m", "c")}
    try:
        return PhysicalConstants(**values)
    except ValueError as exc:
        raise ConfigError(f"bad constants block: {exc}") from exc


# ---------------------------------------------------------------- gaussian


def cmd_gaussian(cfg: dict, out: str, tol: dict) -> None:
    block = _block(cfg, "gaussian")
    sigma = _scalar(block, "gaussian", "sigma", 1.0)
    omega0 = _scalar(block, "gaussian", "omega0", 2.0)
    t0 = _scalar(block, "gaussian", "t0", 0.0)
    stations = _list(block, "gaussian", "stations", [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], float)
    n = _scalar(block, "gaussian", "n", 2048, int)
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


def _duality_target(block: dict):
    name = block.get("target", "free")
    if name == "free":
        return name, PotentialSpec.zero(), 0.0, (0.0, 2.0)
    if name == "constant":
        v0 = _scalar(block, "duality", "v0", 2.0)
        E_sch = _scalar(block, "duality", "E_sch", 0.0)
        return name, PotentialSpec.constant(v0), E_sch, (0.0, 0.6)
    if name == "harmonic":
        omega = _scalar(block, "duality", "omega", 1.0)
        x0 = _scalar(block, "duality", "x0", 0.0)
        return (
            name,
            PotentialSpec.space_profile(lambda x: 0.5 * omega**2 * (x - x0) ** 2),
            _scalar(block, "duality", "E_sch", 0.25),
            (x0 - 1.5, x0 + 1.5),
        )
    if name == "coulomb-like":
        k = _scalar(block, "duality", "k", 1.0)
        x0 = _scalar(block, "duality", "x0", 0.0)
        sign = _scalar(block, "duality", "sign", -1.0)
        return (
            name,
            PotentialSpec.space_profile(lambda x: sign * k / (x - x0)),
            _scalar(block, "duality", "E_sch", -0.5),
            (x0 + 0.5, x0 + 3.0),
        )
    raise ConfigError(f"unknown duality target {name!r}")


def cmd_duality(cfg: dict, out: str, tol: dict) -> None:
    block = _block(cfg, "duality")
    consts = _constants(cfg)
    E0 = _scalar(block, "duality", "E0", 1.0)
    n = _scalar(block, "duality", "n", 2048, int)
    name = block.get("target", "free")

    if name == "velocity-profile":
        # forward route: V_car from the prescribed velocity v(t) = 1 + t^2
        tg = TimeGrid(-1.0, 1.0, n)
        v_car = PotentialSpec.time_profile(
            lambda t: -0.5j * consts.hbar * 2 * t / (1 + t**2), allow_complex=True
        )
        delta = duality.forward_delta(v_car, 1.0, 0.0, tg, consts)
        E_sch = _scalar(block, "duality", "E_sch", 0.0)
        xs, vs = duality.vsch_from_vcar(v_car, delta, tg, E_sch, E0, consts)
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

    if name == "free":
        tau1 = float(np.real(dmap.tau_at(1.0)))
        if abs(tau1 - np.pi / 4) > tol["duality_tau_free"]:
            raise ToleranceBreach(f"free-case tau(1) = {tau1}, expected pi/4")


# -------------------------------------------------------------- commutator


def cmd_commutator(cfg: dict, out: str, tol: dict) -> None:
    block = _block(cfg, "commutator")
    consts = _constants(cfg)
    shift = _scalar(block, "commutator", "shift", 0.7)
    sizes = _list(block, "commutator", "sizes", [64, 128, 256], int)

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
    block = _block(cfg, "currents")
    consts = _constants(cfg)
    sigma = _scalar(block, "currents", "sigma", 1.0)
    sizes = _list(block, "currents", "sizes", [128, 256, 512], int)

    params = propagator.GaussianParams(sigma=sigma, t0=0.0, omega0=0.0)
    rows = []
    prev = None
    for n in sizes:
        tg = TimeGrid(-12.0, 12.0, n)
        xg = TimeGrid(-12.0, 12.0, n)
        field = propagator.gaussian_field(params, xg, tg, consts)
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
    block = _block(cfg, "rays")
    consts = _constants(cfg)
    kind = block.get("potential", "linear")
    x_end = _scalar(block, "rays", "x_end", 1.0)
    n_steps = _scalar(block, "rays", "n_steps", 256, int)
    q0 = _scalar(block, "rays", "q0", 0.0)
    t0 = _scalar(block, "rays", "t0", 0.0)

    if kind == "time-only":
        v = PotentialSpec.time_profile(np.cos, lambda t: -np.sin(t))
        q0 = q0 if q0 else 1.0

        def t_exact(x):
            return t0 - q0 * x / consts.mc3

    elif kind == "linear":
        alpha = _scalar(block, "rays", "alpha", 1.0)
        v = PotentialSpec.space_profile(lambda x: alpha * x, lambda x: alpha * np.ones_like(x))

        def t_exact(x):
            return t0 - q0 * x / consts.mc3 - alpha * x**2 / (2 * consts.mc3)

    elif kind == "quadratic":
        kappa = _scalar(block, "rays", "kappa", 6.0)
        v = PotentialSpec.space_profile(lambda x: 0.5 * kappa * x**2, lambda x: kappa * x)

        def t_exact(x):
            return t0 - q0 * x / consts.mc3 - kappa * x**3 / (6 * consts.mc3)

    else:
        raise ConfigError(f"unknown rays potential {kind!r}")

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
    block = _block(cfg, "quantize")
    consts = _constants(cfg)
    T = _scalar(block, "quantize", "T", np.pi)
    n_max = _scalar(block, "quantize", "n_max", 3, int)
    p0 = _scalar(block, "quantize", "p0", 1.0)
    profile = block.get("profile", "sin")
    if profile == "sin":
        v = PotentialSpec.time_profile(np.sin, np.cos)
    elif profile == "zero":
        v = PotentialSpec.zero()
    else:
        raise ConfigError(f"unknown quantize profile {profile!r}")

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
    block = _block(cfg, "dyson")
    consts = _constants(cfg)
    eps_list = _list(block, "dyson", "eps", [0.005, 0.01, 0.02, 0.05], float)
    x_end = _scalar(block, "dyson", "x_end", 1.0)
    n_steps = _scalar(block, "dyson", "n_steps", 256, int)
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
