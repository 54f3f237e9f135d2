"""Outside-in layer spans and counts for the carrollsch package.

`install` wraps, from outside the package, the public functions of each layer
module and every function another module imported from a layer (for example
`duality.integrate_fundamental_pair` or `currents._d1`), the potential
evaluation methods, `InteractionMomentum.at_x`, interaction's `CubicSpline`
and `numpy.fft.fft`/`ifft`.  Nothing inside the package changes.

Spans are kept in memory; `Tracer.summary` turns the spans of one cycle into
self times and counts, and `layer_metrics` turns per-cycle summaries into the
per-layer metrics of BENCHMARK.json.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import types
from array import array
from collections import Counter
from time import perf_counter

from jobs import SUBCOMMANDS

LAYERS = (
    "cli",
    "numerics",
    "potentials",
    "operators",
    "duality",
    "propagator",
    "currents",
    "classical",
    "interaction",
)

#: PotentialSpec methods counted by potentials.eval.*
POTENTIAL_EVALS = ("v_t", "v_x", "v_xt", "dv_dx", "dvdx_at", "at")


def self_times(parent, start, end) -> list[float]:
    """Span duration minus the time its direct children cover.

    Spans are properly nested (one thread), so the children of a span cover
    disjoint parts of it and their durations add up.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


class Tracer:
    """Span recorder: name, parent, start and end of every wrapped call.

    Wrappers record only while `active` is set, so a job's untimed input
    construction and oracle check leave no spans.
    """

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._reset()
        self.archive: list[tuple] = []

    def _reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.largest = 0

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def layer(self) -> str:
        """Layer of the innermost open span."""
        if not self._stack:
            return "none"
        return self.names[self.name[self._stack[-1]]].split(".", 1)[0]

    def note_array(self, result) -> None:
        values = getattr(result, "values", result)
        nbytes = getattr(values, "nbytes", 0)
        if isinstance(nbytes, int) and nbytes > self.largest:
            self.largest = nbytes

    def summary(self) -> dict:
        """Self time and calls per span name, and the counts, since the last summary.

        The raw spans move to `archive` for `dump`.
        """
        if self._stack:
            raise RuntimeError("summary taken inside an open span")
        selfs = self_times(self.parent, self.start, self.end)
        self_by, calls, durations = Counter(), Counter(), {}
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            self_by[name] += selfs[i]
            calls[name] += 1
            if name.startswith("cli.cmd_"):
                durations.setdefault(name, []).append(self.end[i] - self.start[i])
        self.archive.append((self.name, self.parent, self.start, self.end))
        out = {
            "self": dict(self_by),
            "calls": dict(calls),
            "durations": durations,
            "counts": dict(self.counts),
            "largest_array_bytes": self.largest,
        }
        self._reset()
        return out

    def dump(self) -> dict:
        """Every archived span as [name id, parent index, start, end], by summary."""
        return {
            "names": list(self.names),
            "summaries": [[list(s) for s in zip(*arrays)] for arrays in self.archive],
        }


def merge(summaries: list[dict]) -> dict:
    """One summary for several (for example the processes of one CLI cycle)."""
    out = {"self": Counter(), "calls": Counter(), "durations": {}, "counts": Counter(), "largest_array_bytes": 0}
    for s in summaries:
        out["self"].update(s["self"])
        out["calls"].update(s["calls"])
        out["counts"].update(s["counts"])
        for k, v in s["durations"].items():
            out["durations"].setdefault(k, []).extend(v)
        out["largest_array_bytes"] = max(out["largest_array_bytes"], s["largest_array_bytes"])
    return {k: dict(v) if isinstance(v, Counter) else v for k, v in out.items()}


# ------------------------------------------------------------- wrappers


def _wrap(tracer: Tracer, span: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        i = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        tracer.note_array(result)
        if after is not None:
            after(args, kwargs, result)
        return result

    return traced


def _wrap_eval(tracer: Tracer, span: str, fn, counted: bool):
    """Potential evaluation: one span and count per outermost call only."""
    import numpy as np

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active or tracer.layer() == "potentials":
            return fn(*args, **kwargs)
        i = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if counted:
            tracer.counts["potentials.eval.calls"] += 1
            tracer.counts["potentials.eval.points"] += int(np.size(result))
        return result

    return traced


def _wrap_fft(tracer: Tracer, fn):
    import numpy as np

    @functools.wraps(fn)
    def counted(a, *args, **kwargs):
        if not tracer.active:
            return fn(a, *args, **kwargs)
        tracer.counts["fft.calls"] += 1
        tracer.counts["fft.points"] += int(np.size(a))
        tracer.counts["fft.calls." + tracer.layer()] += 1
        return fn(a, *args, **kwargs)

    return counted


def _arg_hook(fn, param: str, key: str, tracer: Tracer):
    """Add the bound value of `param` to counts[key] after each call."""
    sig = inspect.signature(fn)

    def after(args, kwargs, result):
        tracer.counts[key] += int(sig.bind(*args, **kwargs).arguments[param])

    return after


def _hooks(tracer: Tracer) -> dict:
    from carrollsch import cli, interaction, numerics

    def operator_bytes(args, kwargs, result):
        # computed, not measured: one read of the input field, one write of the output
        tracer.counts["operators.bytes_computed"] += args[0].values.nbytes + result.values.nbytes

    csv_sig = inspect.signature(cli.write_csv)

    def csv_bytes(args, kwargs, result):
        path = csv_sig.bind(*args, **kwargs).arguments["path"]
        tracer.counts["cli.write_csv.bytes"] += os.path.getsize(path)

    return {
        "numerics.integrate_fundamental_pair": _arg_hook(
            numerics.integrate_fundamental_pair, "n", "numerics.rk4_steps", tracer
        ),
        "interaction.evolve_interacting": _arg_hook(
            interaction.evolve_interacting, "n_steps", "interaction.steps", tracer
        ),
        "operators.apply_H": operator_bytes,
        "operators.apply_F": operator_bytes,
        "cli.write_csv": csv_bytes,
    }


def install(tracer: Tracer):
    """Wrap the package's layer boundaries; returns a function that undoes it."""
    import numpy as np

    package = importlib.import_module("carrollsch")
    mods = {layer: importlib.import_module(f"carrollsch.{layer}") for layer in LAYERS}
    owner = {m.__name__: layer for layer, m in mods.items()}
    hooks = _hooks(tracer)
    wrappers: dict = {}
    undo: list = []

    def wrapper_for(fn):
        if fn not in wrappers:
            span = f"{owner[fn.__module__]}.{fn.__name__}"
            wrappers[fn] = _wrap(tracer, span, fn, hooks.get(span))
        return wrappers[fn]

    def patch(target, attr, new):
        undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, new)

    for ns in (package, *mods.values()):
        for attr, obj in list(vars(ns).items()):
            if not isinstance(obj, types.FunctionType) or obj.__module__ not in owner:
                continue
            # a layer's own private helpers stay inside its self time
            if attr.startswith("_") and obj.__module__ == ns.__name__:
                continue
            patch(ns, attr, wrapper_for(obj))

    commands = mods["cli"].COMMANDS
    saved = dict(commands)
    commands.update({k: wrapper_for(v) for k, v in saved.items()})

    spec = mods["potentials"].PotentialSpec
    for meth in (*POTENTIAL_EVALS, "dv_t"):
        fn = vars(spec)[meth]
        patch(spec, meth, _wrap_eval(tracer, f"potentials.{meth}", fn, meth in POTENTIAL_EVALS))

    inter = mods["interaction"]
    patch(inter.InteractionMomentum, "at_x", _wrap(tracer, "interaction.at_x", inter.InteractionMomentum.at_x))

    spline = inter.CubicSpline

    def build_spline(*args, **kwargs):
        if not tracer.active:
            return spline(*args, **kwargs)
        tracer.counts["interaction.spline_builds"] += 1
        i = tracer.open("interaction.CubicSpline")
        try:
            return spline(*args, **kwargs)
        finally:
            tracer.close(i)

    patch(inter, "CubicSpline", build_spline)
    patch(np.fft, "fft", _wrap_fft(tracer, np.fft.fft))
    patch(np.fft, "ifft", _wrap_fft(tracer, np.fft.ifft))

    def restore() -> None:
        for target, attr, old in reversed(undo):
            setattr(target, attr, old)
        commands.update(saved)

    return restore


# --------------------------------------------------------------- metrics

#: (name, unit) of every per-layer metric this module computes
LAYER_METRICS = (
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    *((f"cli.cmd_s.{sub}", "s") for sub in SUBCOMMANDS),
    ("cli.write_csv.self_s", "s"),
    ("cli.write_csv.bytes", "B"),
    ("numerics.integrate_fundamental_pair.self_s", "s"),
    ("numerics.rk4_steps", "count"),
    ("numerics.deriv_uniform.self_s", "s"),
    ("potentials.eval.calls", "count"),
    ("potentials.eval.points", "count"),
    ("potentials.points_per_call", "points/call"),
    ("operators.apply_H.calls", "count"),
    ("operators.apply_F.calls", "count"),
    ("operators.bytes_computed", "B"),
    ("duality.inverse_tau.self_s", "s"),
    ("duality.residuals.self_s", "s"),
    ("propagator.gaussian_exact.calls", "count"),
    ("propagator.gaussian_exact.self_s", "s"),
    ("propagator.evolve_free.self_s", "s"),
    ("fft.calls", "count"),
    ("fft.points", "count"),
    ("fft.calls.numerics", "count"),
    ("fft.calls.propagator", "count"),
    ("fft.calls.interaction", "count"),
    ("currents.continuity_equivalence.self_s", "s"),
    ("currents.gauge_remove.self_s", "s"),
    ("classical.trace_ray.self_s", "s"),
    ("classical.picard_iterate.self_s", "s"),
    ("interaction.evolve_interacting.self_s", "s"),
    ("interaction.dyson_first_order.self_s", "s"),
    ("interaction.steps", "count"),
    ("interaction.at_x.calls", "count"),
    ("interaction.spline_builds", "count"),
    ("interaction.spline_builds_per_step", "count"),
    ("trace.spans", "count"),
    ("trace.largest_array_bytes", "B"),
)

_RESIDUALS = ("roundtrip_residual", "schwarzian_residual", "inversion_identity_residual")


def _cycle_values(s: dict) -> dict[str, float]:
    """Per-layer values of one cycle's summary."""
    selfs, calls, counts = s["self"], s["calls"], s["counts"]

    def self_of(*names):
        return sum(selfs.get(n, 0.0) for n in names)

    out = {f"{layer}.self_s": sum(v for k, v in selfs.items() if k.startswith(layer + ".")) for layer in LAYERS}
    out.update(
        {
            "cli.write_csv.self_s": self_of("cli.write_csv"),
            "numerics.integrate_fundamental_pair.self_s": self_of("numerics.integrate_fundamental_pair"),
            "numerics.deriv_uniform.self_s": self_of("numerics.deriv_uniform"),
            "duality.inverse_tau.self_s": self_of("duality.inverse_tau"),
            "duality.residuals.self_s": self_of(*(f"duality.{n}" for n in _RESIDUALS)),
            "propagator.gaussian_exact.self_s": self_of("propagator.gaussian_exact"),
            "propagator.evolve_free.self_s": self_of("propagator.evolve_free"),
            "currents.continuity_equivalence.self_s": self_of("currents.continuity_equivalence"),
            "currents.gauge_remove.self_s": self_of("currents.gauge_remove"),
            "classical.trace_ray.self_s": self_of("classical.trace_ray"),
            "classical.picard_iterate.self_s": self_of("classical.picard_iterate"),
            "interaction.evolve_interacting.self_s": self_of("interaction.evolve_interacting"),
            "interaction.dyson_first_order.self_s": self_of("interaction.dyson_first_order"),
            "operators.apply_H.calls": calls.get("operators.apply_H", 0),
            "operators.apply_F.calls": calls.get("operators.apply_F", 0),
            "propagator.gaussian_exact.calls": calls.get("propagator.gaussian_exact", 0),
            "interaction.at_x.calls": calls.get("interaction.at_x", 0),
            "trace.spans": sum(calls.values()),
            "trace.largest_array_bytes": s["largest_array_bytes"],
        }
    )
    for key in (
        "cli.write_csv.bytes",
        "numerics.rk4_steps",
        "potentials.eval.calls",
        "potentials.eval.points",
        "operators.bytes_computed",
        "fft.calls",
        "fft.points",
        "fft.calls.numerics",
        "fft.calls.propagator",
        "fft.calls.interaction",
        "interaction.steps",
        "interaction.spline_builds",
    ):
        out[key] = counts.get(key, 0)
    out["potentials.points_per_call"] = (
        out["potentials.eval.points"] / out["potentials.eval.calls"] if out["potentials.eval.calls"] else 0.0
    )
    out["interaction.spline_builds_per_step"] = (
        out["interaction.spline_builds"] / out["interaction.steps"] if out["interaction.steps"] else 0.0
    )
    return out


def layer_metrics(cycles: list[dict], scale: float = 1.0) -> dict[str, float]:
    """Median over cycles of each per-cycle value; cli.cmd_s.* are medians per call.

    A cycle runs every job kind of the workload once, so counts repeat
    exactly from cycle to cycle and from run to run.  Times are multiplied by
    `scale`, the calibrated/raw ratio of the traced jobs.
    """
    if not cycles:
        raise ValueError("no traced cycle")
    per_cycle = [_cycle_values(s) for s in cycles]
    out = {k: statistics.median(c[k] for c in per_cycle) for k in per_cycle[0]}
    durations = merge(cycles)["durations"]
    for sub in SUBCOMMANDS:
        d = durations.get(f"cli.cmd_{sub}")
        out[f"cli.cmd_s.{sub}"] = statistics.median(d) if d else 0.0
    units = dict(LAYER_METRICS)
    return {k: v * scale if units[k] == "s" else v for k, v in out.items()}
