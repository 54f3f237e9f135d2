"""Command-line front end: one subcommand per experiment family.

JSON config in, CSV out.  Each `cmd_<sub>` body computes from its config
block and the constants and returns its tables and gated values; one runner,
`_command`, enters it in `COMMANDS` under `<sub>`, writes every table and
then checks every gate.  Output is deterministic for a fixed config; files
are written atomically (temp + rename) with LF line endings and
17-significant-digit floats so golden files diff cleanly.

Exit codes: 0 success, 1 validation error (bad config or arguments) or an
output that cannot be written, 2 numerical failure (a gated value outside
its interval in `TOLERANCES`, NaN included, or a kernel raised BranchError
or an ArithmeticError such as an overflow).  `DEFAULTS` is the config
schema: an unknown block or key, a value of the wrong type, a NaN or
infinite number, an integer too large for a float, or an empty list is a
validation error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from .constants import PhysicalConstants
from .numerics import TimeGrid
from .potentials import PotentialSpec
from . import classical, currents, duality, interaction, operators, propagator

SCHEMA = "carrollsch-config/1"

#: gated quantity -> the closed interval (lo, hi) its every sample must lie in
TOLERANCES = {
    "default": {
        "gaussian_width_rel": (0.0, 1e-6),
        "gaussian_drift_rel": (0.0, 1e-6),
        "duality_tau_free": (0.0, 1e-8),
        "quantize_norm": (0.0, 1e-10),
        "rays_exact": (0.0, 1e-8),
        "currents_ratio": (3.5, math.inf),
        "dyson_slope": (1.8, 2.2),
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
#: strings, the first being the default.  An absent duality.E_sch takes its
#: target's default from `_E_SCH`.
DEFAULTS = {
    "constants": {"hbar": 1.0, "m": 1.0, "c": 1.0},
    "gaussian": {"sigma": 1.0, "omega0": 2.0, "t0": 0.0, "stations": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                 "n": 2048},
    "duality": {"target": tuple(_E_SCH), "E0": 1.0, "n": 2048, "E_sch": 0.0, "v0": 2.0,
                "omega": 1.0, "x0": 0.0, "k": 1.0, "sign": -1.0},
    "commutator": {"shift": 0.7, "sizes": [64, 128, 256]},
    "currents": {"sigma": 1.0, "sizes": [128, 256, 512]},
    "rays": {"potential": ("linear", "time-only", "quadratic"), "x_end": 1.0, "n_steps": 256,
             "q0": 0.0, "t0": 0.0, "alpha": 1.0, "kappa": 6.0},
    "quantize": {"T": math.pi, "n_max": 3, "profile": ("sin", "zero")},
    "dyson": {"eps": [0.005, 0.01, 0.02, 0.05], "x_end": 1.0, "n_steps": 256},
}


@functools.cache
def _template(kinds: tuple) -> str:
    """The %-template of a CSV row of these value types: an int or numpy
    integer as `%d`, a str as itself, anything else as `%.17g` of its float."""
    fmts = ("%d" if issubclass(k, (int, np.integer)) else "%s" if issubclass(k, str) else "%.17g" for k in kinds)
    return ",".join(fmts) + "\n"


def write_csv(path: str, header: Sequence[str], rows) -> None:
    """Atomic CSV write (temp file in the target directory, then rename), one `%`
    per row; `open`'s exclusive create gives it mode 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-csv-{os.urandom(8).hex()}")
    fh = open(tmp, "x", newline="\n")  # outside the try: a failed create leaves nothing to remove
    try:
        with fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                row = tuple(row)
                fh.write(_template(tuple(map(type, row))) % row)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_config(path: str | None) -> dict:
    """The config at `path` (None: no file), resolved: block -> key -> value.

    Every block of `DEFAULTS` is present, checked and has its defaults filled in.
    """
    cfg = {}
    if path is not None:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(cfg, dict) or cfg.get("schema") != SCHEMA:
            raise ConfigError(f"config schema must be {SCHEMA!r}")
    for name in cfg:
        if name != "schema" and name not in DEFAULTS:
            raise ConfigError(f"unknown config block {name!r}")
    return {name: _resolve(cfg, name) for name in DEFAULTS}


def _cast(value, where: str, cast: type):
    """A finite JSON number as float or, for cast=int, as an integer; `where` names it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise ConfigError(f"{where} must be finite, got an integer too large for a float") from None
    if not finite:
        raise ConfigError(f"{where} must be finite, got {value!r}")
    if cast is int and value != int(value):
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
    return _cast(value, where, int if type(default) is int else float)


def _resolve(cfg: dict, name: str) -> dict:
    """Block `name` of `cfg`, checked against `DEFAULTS`, with every default filled in."""
    block = cfg.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"config block {name!r} must be a JSON object")
    for key in block:
        if key not in DEFAULTS[name]:
            raise ConfigError(f"unknown config key {name}.{key}")
    resolved = {key: _value(block, key, d, f"{name}.{key}") for key, d in DEFAULTS[name].items()}
    if name == "duality" and "E_sch" not in block:
        resolved["E_sch"] = _E_SCH[resolved["target"]]
    return resolved


def _gate(tol: dict, key: str, value: float, where: str) -> None:
    """Pass only if lo <= value <= hi for (lo, hi) = tol[key]; a NaN value fails."""
    lo, hi = tol[key]
    if not lo <= value <= hi:
        raise ToleranceBreach(f"{key} = {value} outside [{lo}, {hi}] {where}")


#: subcommand -> its runner `(cfg, out, tol)`; `_command` enters each `cmd_<sub>` as it wraps it
COMMANDS = {}


def _command(body):
    """Wrap `body` as the runner `(cfg, out, tol)` that writes and gates its
    results, and enter it in `COMMANDS` under `<sub>`, its name after `cmd_`.

    `body(block, constants)` reads `cfg[<sub>]` and returns `(tables, gates)`:
    file name -> (header, rows), and a list of (key, value, where).  Every
    table is written to `out` before the first gate is checked, so a breach
    still leaves every CSV behind.
    """
    sub = body.__name__[len("cmd_"):]

    @functools.wraps(body)
    def command(cfg: dict, out: str, tol: dict) -> None:
        tables, gates = body(cfg[sub], PhysicalConstants(**cfg["constants"]))
        for name, (header, rows) in tables.items():
            write_csv(os.path.join(out, name), header, rows)
        for key, value, where in gates:
            _gate(tol, key, value, where)

    COMMANDS[sub] = command
    return command


# ---------------------------------------------------------------- gaussian


@_command
def cmd_gaussian(b: dict, consts: PhysicalConstants):
    sigma, omega0, t0, stations, n = b["sigma"], b["omega0"], b["t0"], b["stations"], b["n"]
    if not sigma > 0:
        raise ConfigError("gaussian.sigma must be positive")

    w = propagator.effective_width(sigma, max(abs(s) for s in stations) or 1.0, consts)
    lo, hi = (propagator.carrier_center(t0, consts.hbar * omega0, x, consts) for x in (min(stations), max(stations)))
    center = (lo + hi) / 2  # midway along the packet's path between the outer stations
    half = max(20.0 * w, abs(hi - lo) / 2 + 10.0 * w)  # the outer packets keep 10 widths of margin
    grid = TimeGrid(center - half, center + half, n)
    params = propagator.GaussianParams(sigma=sigma, t0=t0, omega0=omega0)
    vzero = PotentialSpec.zero()

    summary = []
    field_rows = []
    gates = []
    for x in stations:
        psi = propagator.gaussian_exact(params, x, grid, consts)
        norm, mean, std = propagator.measured_moments(psi)
        w_pred = propagator.effective_width(sigma, x, consts)
        c_pred = propagator.carrier_center(t0, consts.hbar * omega0, x, consts)
        # the density is exp(-t^2/sigma_eff^2), so sigma_eff = sqrt(2) * std
        width = np.sqrt(2.0) * std
        summary.append((x, w_pred, width, c_pred, mean, norm))
        gates.append(("gaussian_width_rel", abs(width / w_pred - 1.0), f"at x={x}"))
        gates.append(("gaussian_drift_rel", abs(mean - c_pred) / max(abs(c_pred), w_pred), f"at x={x}"))
        rho, j = propagator.carroll_density_current(psi, vzero, consts)
        kept = slice(None, None, max(1, n // 64))
        v = psi.values[kept]
        field_rows += [(x, *row) for row in zip(grid.times[kept], v.real, v.imag, rho[kept], j[kept])]

    return {
        "gaussian_summary.csv": (
            ["x", "sigma_eff_predicted=sqrt(sigma^2+(hbar*x/(m*c^3*sigma))^2)",
             "sigma_eff_measured=sqrt(2)*std(|psi|^2)", "t_c_predicted=t0+E0*x/(m*c^3)",
             "t_c_measured=centroid(|psi|^2)", "norm=L2(psi)"],
            summary,
        ),
        "gaussian_field.csv": (
            ["x", "t", "re=Re(psi)", "im=Im(psi)", "rho=-(hbar/mc^3)*Im(psi* dt psi)",
             "j_t=(hbar/mc^3)*Im(psi* dt psi)"],
            field_rows,
        ),
    }, gates


# ----------------------------------------------------------------- duality


def _duality_target(block: dict):
    """(V_sch, x range) of the static target of a resolved duality block."""
    name, x0 = block["target"], block["x0"]
    if name == "free":
        return PotentialSpec.zero(), (0.0, 2.0)
    if name == "constant":
        return PotentialSpec.constant(block["v0"]), (0.0, 0.6)
    if name == "harmonic":
        omega = block["omega"]
        v = PotentialSpec.space_profile(lambda x: 0.5 * omega**2 * (x - x0) ** 2)
        return v, (x0 - 1.5, x0 + 1.5)
    # coulomb-like
    k, sign = block["k"], block["sign"]
    return PotentialSpec.space_profile(lambda x: sign * k / (x - x0)), (x0 + 0.5, x0 + 3.0)


@_command
def cmd_duality(block: dict, consts: PhysicalConstants):
    E0, n = block["E0"], block["n"]

    if block["target"] == "velocity-profile":
        # forward route: V_car from the prescribed velocity v(t) = 1 + t^2
        tg = TimeGrid(-1.0, 1.0, n)
        v_car = PotentialSpec.time_profile(lambda t: -0.5j * consts.hbar * 2 * t / (1 + t**2))
        delta = duality.forward_delta(v_car, 1.0, 0.0, tg, consts)
        vs = duality.vsch_from_vcar(v_car, delta, tg, block["E_sch"], E0, consts)
        rows = [(t, d.real, d.imag, d.real, v.real, v.imag) for t, d, v in zip(tg.times, delta, vs)]
        header = ["t", "delta_re", "delta_im", "x=Re(delta)", "V_sch_re", "V_sch_im"]
        return {"duality_forward.csv": (header, rows)}, []

    name, E_sch = block["target"], block["E_sch"]
    v_sch, x_range = _duality_target(block)
    dmap = duality.inverse_tau(v_sch, E_sch, E0, x_range, consts, n=n)
    rt = duality.roundtrip_residual(dmap, v_sch)
    sw = duality.schwarzian_residual(dmap)

    gates = []
    if name == "free" and E_sch == 0:
        # sigma = 1/x, so tau(1) = (hbar/E0) arctan(1)
        tau1, expected = dmap.tau_at(1.0), consts.hbar / E0 * np.pi / 4
        gates.append(("duality_tau_free", abs(tau1 - expected), f"for tau(1) = {tau1}, expected {expected}"))
    return {
        "duality_map.csv": (
            ["x", "tau", "sigma=y1/y2", "V_sch_target", "q=(2m/hbar^2)(V_sch-E_sch)"],
            list(zip(dmap.x, dmap.tau, dmap.sigma, v_sch.v_x(dmap.x), dmap.q)),
        ),
        "duality_delta.csv": (["t", "delta=tau^{-1}(t)"], list(zip(dmap.delta_t, dmap.delta))),
        "duality_residuals.csv": (
            ["target", "roundtrip_residual", "schwarzian_residual=max|{sigma,x}+2q|"],
            [(name, rt, sw)],
        ),
    }, gates


# -------------------------------------------------------------- commutator


@_command
def cmd_commutator(b: dict, consts: PhysicalConstants):
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
    pairs = [(vs, vc) for _, vs, vc in cases]
    residuals = {}
    for n in sizes:  # one size's probes alive at a time
        grid = TimeGrid(-4.0, 4.0, n)
        residuals[n] = operators.commutator_residuals(pairs, operators.gaussian_probes(grid, grid), consts)
    rows = [(label, n, residuals[n][k]) for k, (label, _, _) in enumerate(cases) for n in sizes]
    return {"commutator_residuals.csv": (["case", "n", "residual=max||(HF-FH)psi||/||psi||"], rows)}, []


# ---------------------------------------------------------------- currents


@_command
def cmd_currents(b: dict, consts: PhysicalConstants):
    sigma, sizes = b["sigma"], b["sizes"]
    if len(sizes) < 2 or any(n != 2 * m for m, n in zip(sizes, sizes[1:])):
        raise ConfigError("currents.sizes needs at least two sizes, each double the one before")

    params = propagator.GaussianParams(sigma=sigma, t0=0.0, omega0=0.0)
    rows = []
    prev = None
    for n in sizes:
        t_grid = TimeGrid(-12.0, 12.0, n)
        # dx = c dt fixes the CSV's bytes; the inversion takes any grid
        x_grid = TimeGrid(-12.0 * consts.c, 12.0 * consts.c, n)
        field = propagator.gaussian_field(params, x_grid, t_grid, consts)
        res = currents.continuity_equivalence(field, consts)
        ratio = prev / res if prev is not None else float("nan")
        rows.append((n, res, ratio))
        prev = res
    gates = [("currents_ratio", ratio, f"for continuity refinement at n={n}") for n, _, ratio in rows[1:]]
    header = ["n", "residual=max|dt'rho+dx'J|", "ratio=residual(n/2)/residual(n)"]
    return {"currents_residuals.csv": (header, rows)}, gates


# -------------------------------------------------------------------- rays


@_command
def cmd_rays(b: dict, consts: PhysicalConstants):
    kind, x_end, n_steps, q0, t0 = b["potential"], b["x_end"], b["n_steps"], b["q0"], b["t0"]

    # the exact ray is the free line t0 - q0 x / mc^3 less the potential's bend
    if kind == "time-only":
        v = PotentialSpec.time_profile(np.cos, lambda t: -np.sin(t))

        def bend(x):
            return 0.0

    elif kind == "linear":
        alpha = b["alpha"]
        v = PotentialSpec.space_profile(lambda x: alpha * x, lambda x: alpha * np.ones_like(x))

        def bend(x):
            return alpha * x**2 / (2 * consts.mc3)

    else:  # quadratic
        kappa = b["kappa"]
        v = PotentialSpec.space_profile(lambda x: 0.5 * kappa * x**2, lambda x: kappa * x)

        def bend(x):
            return kappa * x**3 / (6 * consts.mc3)

    ray = classical.trace_ray(v, 0.0, t0, q0, x_end, n_steps, consts)
    _, picard = classical.picard_iterate(v, 0.0, t0, q0, x_end, 1, n_samples=n_steps, constants=consts)
    rows = [
        (x, t, q, p, t0 - q0 * x / consts.mc3 - bend(x), pi)
        for x, t, q, p, pi in zip(ray.x, ray.t, ray.q, ray.p_x, picard[1])
    ]
    header = ["x", "t (dt/dx=-q/mc^3)", "q=p_t+V_car", "p_x=q^2/(2mc^3)", "t_exact_if_available", "picard_1"]
    gates = [("rays_exact", abs(t - t_ex), f"against exact quadrature at x={x}")
             for x, t, _, _, t_ex, _ in rows]
    return {"rays.csv": (header, rows)}, gates


# ---------------------------------------------------------------- quantize


@_command
def cmd_quantize(b: dict, consts: PhysicalConstants):
    T, n_max = b["T"], b["n_max"]
    if not T > 0:
        raise ConfigError(f"quantize.T must be positive, got {T}")
    v = PotentialSpec.zero() if b["profile"] == "zero" else PotentialSpec.time_profile(np.sin, np.cos)

    n_oracle = 2000  # the fixed size of the finite-difference oracle
    try:
        oracle = interaction.dirichlet_eigenvalue_oracle(T, n_oracle, n_max) * consts.hbar
    except ValueError as exc:
        raise ConfigError(f"quantize.n_max must lie in 1..{n_oracle}, the oracle's size: {exc}") from exc
    spec = interaction.quantized_modes(T, n_max, None, v, consts)
    mode_rows = []
    gates = []
    for i, mode in enumerate(spec.modes):
        rho = mode.density()
        kept = slice(None, None, max(1, mode.grid.n // 128))
        mode_rows += [(i + 1, t, r) for t, r in zip(mode.grid.times[kept], rho[kept])]
        total = mode.grid.dt * float(np.sum(rho))
        gates.append(("quantize_norm", abs(total - 1.0), f"for the norm {total} of mode {i + 1}"))
    return {
        "quantize_levels.csv": (
            ["n", "E_n=n*pi*hbar/T", "E_n_fd_oracle"],
            [(i + 1, e, o) for i, (e, o) in enumerate(zip(spec.levels, oracle))],
        ),
        "quantize_modes.csv": (["n", "t", "rho=(2/T)*sin^2(n*pi*t/T)"], mode_rows),
    }, gates


# ------------------------------------------------------------------- dyson


@_command
def cmd_dyson(b: dict, consts: PhysicalConstants):
    eps_list, x_end, n_steps = b["eps"], b["x_end"], b["n_steps"]
    if len(set(eps_list)) < 2 or min(eps_list) <= 0:
        raise ConfigError("dyson.eps needs at least two distinct positive values to fit a slope")
    if x_end == 0.0:
        raise ConfigError("dyson.x_end must differ from the start station 0, or every error is 0")

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
    return {
        "dyson_scaling.csv": (["eps", "err=||phi_dyson-phi_full||", "slope=dlog(err)/dlog(eps)"], rows)
    }, [("dyson_slope", slope, "for the Dyson error against eps")]


# -------------------------------------------------------------------- main


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports bad arguments as a ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _Parser(
        prog="carrollsch",
        description="Experiments for the space-evolution wave dictionary.",
    )
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--out", default="out", help="output directory")

    try:
        args = parser.parse_args(argv)
        COMMANDS[args.subcommand](load_config(args.config), args.out, TOLERANCES["default"])
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ToleranceBreach as exc:
        print(f"tolerance breach: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
