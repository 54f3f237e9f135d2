"""Workload definitions: the job stream drawn from a seed, the jobs and their oracles.

A workload is a fixed mix of job kinds run in cycles; each cycle runs every
kind once, in an order the seed permutes.  `fields-large` also draws each
job's packet and potential parameters from the ranges in FIELD_RANGES.

Only the stream itself is defined at import time, so run.py can build job
lists without importing the package under test.  The job bodies import
carrollsch lazily and run in the worker process.
"""
from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("cli-cold", "sweep-warm", "fields-large")

#: the seven CLI experiment families, in `carrollsch.cli.COMMANDS`
SUBCOMMANDS = ("commutator", "currents", "duality", "dyson", "gaussian", "quantize", "rays")

#: physical ranges the fields-large parameters are drawn from (uniform)
FIELD_RANGES = {
    "interaction": {"amp": (0.2, 1.0), "k": (1.0, 3.0), "width": (2.0, 6.0), "tc": (-4.0, 4.0), "sigma": (0.8, 1.5)},
    "currents": {"amp": (0.2, 1.0), "k": (0.5, 2.0), "width": (2.0, 5.0), "sigma": (0.8, 1.5), "t0": (-1.0, 1.0)},
    "duality": {"omega": (0.8, 1.2), "x0": (-0.5, 0.5), "E_sch": (0.2, 0.3), "E0": (0.8, 1.2)},
    "spectral": {"sigma": (0.5, 1.5), "omega0": (0.0, 3.0), "t0": (-1.0, 1.0), "dx": (0.05, 0.15)},
    "rays": {"kappa": (2.0, 8.0), "q0": (-1.0, 1.0), "t0": (-1.0, 1.0)},
}
FIELD_JOBS = tuple(FIELD_RANGES)

CONFIG = os.path.join("scripts", "configs", "default.json")


@dataclass(frozen=True)
class Job:
    kind: str
    params: dict = field(default_factory=dict)


class JobStream:
    """Cycles of jobs for one workload; the same seed gives the same cycles."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self._rng = random.Random(seed)

    @property
    def kinds(self) -> tuple[str, ...]:
        return FIELD_JOBS if self.workload == "fields-large" else SUBCOMMANDS

    def next_cycle(self) -> list[Job]:
        kinds = list(self.kinds)
        self._rng.shuffle(kinds)
        if self.workload != "fields-large":
            return [Job(k) for k in kinds]
        return [
            Job(k, {p: self._rng.uniform(lo, hi) for p, (lo, hi) in sorted(FIELD_RANGES[k].items())})
            for k in kinds
        ]


_PROBE_ARRAYS = []


def numpy_probe() -> float:
    """Wall seconds of a fixed in-process workload: about equal parts
    interpreter loop, small-array numpy calls and a 2 MiB array pass, the mix
    the in-process jobs are made of."""
    import numpy as np

    if not _PROBE_ARRAYS:
        _PROBE_ARRAYS.extend([np.linspace(0.0, 1.0, 4096), np.linspace(0.0, 1.0, 1 << 18)])
        numpy_probe()  # first calls into numpy are slower; keep them out of every sample
    small, big = _PROBE_ARRAYS
    t = time.perf_counter()
    acc = 0
    for i in range(40000):
        acc += i * i % 7
    for _ in range(110):
        np.sin(small)
    for _ in range(2):
        np.sin(big)
    return time.perf_counter() - t


@dataclass(frozen=True)
class Probe:
    """A fixed calibration workload and what it takes on the reference machine.

    Co-tenants of a shared host slow a job and a probe run next to it alike,
    so a job's wall time scaled by ref_s / (the probes on either side of it)
    stays put while the host's load moves.  Times so scaled are calibrated
    seconds: wall seconds on the reference machine (2 vCPU Xeon, Python 3.11,
    numpy 2.4) when nothing else runs.  The probes are benchmark code, so no
    change to the package moves them.
    """

    run: Callable[[], float]
    ref_s: float

    def calibrate(self, seconds: float, before: float, after: float) -> float:
        return seconds * self.ref_s / (0.5 * (before + after))


NUMPY_PROBE = Probe(numpy_probe, 0.009)


@dataclass
class Phase:
    """Timed jobs of a run of whole cycles; failed jobs are counted and kept.

    `times` are calibrated seconds (see `Probe`), `raw` the wall seconds.
    """

    times: list = field(default_factory=list)
    raw: list = field(default_factory=list)
    failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def jobs_per_s(self) -> float:
        return len(self.times) / sum(self.times)


def run_cycles(stream: JobStream, do_job, seconds: float, after_cycle=None, probe: Probe | None = None) -> Phase:
    """Closed loop, one job at a time, until `seconds` have passed.

    Only whole cycles run, so every job kind has the same share of the samples
    whatever the run length.  do_job(job) returns (wall seconds, error or
    None).  With a `probe`, it runs between consecutive jobs and each job's
    time is calibrated by the probes on either side; without, times are raw.
    """
    phase = Phase()
    t0 = time.perf_counter()
    before = probe.run() if probe else None
    while True:
        for job in stream.next_cycle():
            dt, err = do_job(job)
            phase.raw.append(dt)
            if probe:
                after = probe.run()
                phase.times.append(probe.calibrate(dt, before, after))
                before = after
            else:
                phase.times.append(dt)
            if err is not None:
                phase.failed += 1
                phase.errors.append(f"{job.kind}: {err}")
        if after_cycle is not None:
            after_cycle()
        if time.perf_counter() - t0 >= seconds:
            return phase


def digest_dir(path: str) -> dict[str, str]:
    """sha256 of every file directly in `path`, by file name."""
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class DigestOracle:
    """A CLI job passes when it writes CSVs identical to the first pass of its kind."""

    def __init__(self) -> None:
        self.reference: dict[str, dict[str, str]] = {}

    def check(self, kind: str, out_dir: str) -> str | None:
        digests = digest_dir(out_dir)
        if not digests:
            return "no CSV written"
        ref = self.reference.setdefault(kind, digests)
        if digests != ref:
            return "CSV digests differ from the first pass"
        return None


# ------------------------------------------------------------ fields-large
#
# Each kind has build(params) -> inputs (untimed), run(inputs) -> outputs
# (timed) and check(inputs, outputs) -> error message or None (untimed).


def _space_time(amp, k, width, tc):
    import numpy as np
    from carrollsch import PotentialSpec

    return PotentialSpec.space_time(
        lambda x, t: amp * np.sin(k * x) * np.exp(-(((t - tc) / width) ** 2))
    )


def _build_interaction(p):
    from carrollsch import GaussianParams, TimeGrid, gaussian_exact

    xg = TimeGrid(0.0, 2.0, 64)
    tg = TimeGrid(-20.0, 20.0, 1024)
    v = _space_time(p["amp"], p["k"], p["width"], p["tc"])
    phi0 = gaussian_exact(GaussianParams(sigma=p["sigma"]), 0.0, tg)
    return v, xg, tg, phi0


def _run_interaction(inputs):
    from carrollsch import evolve_interacting, interaction_momentum

    v, xg, tg, phi0 = inputs
    F = interaction_momentum(v, tg.t_min, xg, tg)
    return evolve_interacting(phi0, F, 0.0, 1.0, 32)


def _check_interaction(inputs, out):
    n0, n1 = inputs[3].norm(), out.norm()
    if not abs(n1 - n0) <= 1e-10 * n0:
        return f"split-step norm drift {abs(n1 - n0):.3e} (norm {n0:.6g})"
    return None


def _build_currents(p):
    import numpy as np
    from carrollsch import Field2D, PotentialSpec, TimeGrid

    n = 1024
    grid = TimeGrid(-12.0, 12.0, n)
    X, T = np.meshgrid(grid.times, grid.times, indexing="ij")
    # free dispersing packet psi(x, t), the closed form of gaussian_exact
    s, t0 = p["sigma"], p["t0"]
    D = 1.0 + 1j * X / s**2
    vals = (np.pi * s**2) ** -0.25 / np.sqrt(D) * np.exp(-((T - t0) ** 2) / (2 * s**2 * D))
    amp, k, width = p["amp"], p["k"], p["width"]
    v_car = PotentialSpec.space_time(lambda x, t: amp * np.cos(k * x) * np.exp(-((t / width) ** 2)))
    return Field2D(grid, grid, vals), v_car


def _run_currents(inputs):
    from carrollsch import continuity_equivalence, gauge_reduce

    psi, v_car = inputs
    t0 = psi.t_grid.t_min
    res = continuity_equivalence(psi, v_car=v_car, t0=t0)
    return res, gauge_reduce(psi, v_car, t0)


def _check_currents(inputs, out):
    import numpy as np

    res, phi = out
    if not np.isfinite(res):
        return f"continuity residual non-finite: {res}"
    a = np.abs(inputs[0].values)
    err = float(np.max(np.abs(np.abs(phi.values) - a)))
    if not err <= 1e-12 * float(np.max(a)):
        return f"gauge factor not unit-modulus: max||phi|-|psi|| = {err:.3e}"
    return None


def _build_duality(p):
    from carrollsch import PotentialSpec

    omega, x0 = p["omega"], p["x0"]
    v = PotentialSpec.space_profile(lambda x: 0.5 * omega**2 * (x - x0) ** 2)
    return v, p["E_sch"], p["E0"], (x0 - 1.5, x0 + 1.5)


def _run_duality(inputs):
    from carrollsch import (
        inverse_tau,
        inversion_identity_residual,
        roundtrip_residual,
        schwarzian_residual,
    )

    v, E_sch, E0, x_range = inputs
    dmap = inverse_tau(v, E_sch, E0, x_range, n=8192)
    res = (
        roundtrip_residual(dmap, v),
        schwarzian_residual(dmap),
        inversion_identity_residual(dmap),
    )
    return dmap, res


def _check_duality(inputs, out):
    import numpy as np

    dmap, res = out
    drift = float(np.max(np.abs(dmap.pair.wronskian - 1.0)))
    if not drift <= 1e-10:
        return f"Wronskian drift {drift:.3e}"
    if not all(np.isfinite(r) for r in res):
        return f"non-finite duality residuals {res}"
    return None


def _build_spectral(p):
    from carrollsch import GaussianParams, TimeGrid

    grid = TimeGrid(-256.0, 256.0, 2**16)
    return GaussianParams(sigma=p["sigma"], t0=p["t0"], omega0=p["omega0"]), grid, p["dx"]


def _run_spectral(inputs):
    from carrollsch import evolve_free, gaussian_exact

    params, grid, dx = inputs
    psi = gaussian_exact(params, 0.0, grid)
    for _ in range(64):
        psi = evolve_free(psi, dx)
    return psi, gaussian_exact(params, psi.x, grid)


def _check_spectral(inputs, out):
    import numpy as np

    psi, ref = out
    err = float(np.max(np.abs(psi.values - ref.values)))
    if not err <= 1e-9:
        return f"evolve_free differs from gaussian_exact by {err:.3e}"
    return None


def _build_rays(p):
    from carrollsch import PotentialSpec

    kappa = p["kappa"]
    v = PotentialSpec.space_profile(lambda x: 0.5 * kappa * x**2, lambda x: kappa * x)
    return v, kappa, p["t0"], p["q0"]


def _run_rays(inputs):
    from carrollsch import picard_iterate, trace_ray

    v, _, t0, q0 = inputs
    ray = trace_ray(v, 0.0, t0, q0, 1.0, 4096)
    xs, iterates = picard_iterate(v, 0.0, t0, q0, 1.0, 4, n_samples=4096)
    return ray, xs, iterates


def _check_rays(inputs, out):
    import numpy as np

    _, kappa, t0, q0 = inputs
    ray, xs, iterates = out

    def exact(x):
        return t0 - q0 * x - kappa * x**3 / 6.0

    # RK4 integrates the polynomial characteristic system exactly
    err = float(np.max(np.abs(ray.t - exact(ray.x))))
    if not err <= 1e-10:
        return f"ray differs from the exact cubic by {err:.3e}"
    # the trapezoid rule is exact for q (linear integrand) and leaves
    # kappa h^2 / 12 on t (quadratic integrand); allow twice that
    h = xs[1] - xs[0]
    perr = float(np.max(np.abs(iterates[-1] - exact(xs))))
    if not perr <= kappa * h**2 / 6:
        return f"Picard iterate differs from the exact cubic by {perr:.3e}"
    return None


FIELD_KINDS = {
    "interaction": (_build_interaction, _run_interaction, _check_interaction),
    "currents": (_build_currents, _run_currents, _check_currents),
    "duality": (_build_duality, _run_duality, _check_duality),
    "spectral": (_build_spectral, _run_spectral, _check_spectral),
    "rays": (_build_rays, _run_rays, _check_rays),
}

#: largest single array each workload allocates, from the job sizes above and
#: the default config (complex128 fields)
LARGEST_ARRAY_BYTES = {
    "cli-cold": 512 * 512 * 16,  # currents, n = 512
    "sweep-warm": 512 * 512 * 16,
    "fields-large": 1024 * 1024 * 16,  # currents, n = 1024
}
