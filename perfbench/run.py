"""Benchmark runner for carrollsch: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-cold|sweep-warm|fields-large
                             --seed N --seconds S --trace 0|1

One client runs one job at a time in a closed loop (no queue, so no waiting
time is measured).  The jobs come from the seed (see jobs.py); the program
only sees the generated inputs.  Every job's output is checked, and the last
stdout line is one JSON object: with --trace 0 it holds the end-to-end
metrics, with --trace 1 the per-layer metrics of a separate traced run.
Lines before it give the machine, the job counts, the tail percentile and
the CSV digests in readable form.

The program is byte-compiled from src/ first; all files the run writes go
under .perfbench_work/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from jobs import (  # noqa: E402
    CONFIG,
    LARGEST_ARRAY_BYTES,
    WORKLOADS,
    DigestOracle,
    JobStream,
    Probe,
    run_cycles,
)

WORK = ".perfbench_work"
PY = sys.executable
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: tail percentiles tried, highest first; the tail is the highest one with
#: at least TAIL_BEYOND samples above it.  The rungs are far apart, so the
#: run-to-run change in sample count (whole cycles in --seconds) does not
#: move a workload to another rung.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
IMPORT_PROBES = 5  # fresh-interpreter imports for cli-cold set-up
#: `python -c pass` on the reference machine; it calibrates the jobs and
#: set-ups that start a fresh interpreter, whose start-up and exit it shares
FLOOR_REF_S = 0.05
SETUP_SAMPLES = 3  # fresh set-up-only workers for in-process set-up
PROBE_REPEATS = 3  # -X importtime and interpreter-floor repeats


class BenchError(RuntimeError):
    pass


# ----------------------------------------------------------------- stats


def percentile(samples: list[float], p: float) -> tuple[float, int]:
    """(value, samples beyond it) of the p-th percentile by nearest rank."""
    xs = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest percentile of
    TAIL_LADDER with at least TAIL_BEYOND samples above it, or the median
    with fewer than 2 * TAIL_BEYOND samples."""
    for p in TAIL_LADDER:
        value, beyond = percentile(samples, p)
        if beyond >= TAIL_BEYOND:
            break
    return p, value, beyond


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds of `import carrollsch` by package, from `-X importtime` output.

    total is carrollsch's cumulative time; scipy, numpy and carrollsch_self
    sum the self times of each package's modules; other is the rest
    (standard library and other dependencies).
    """
    self_us = {"scipy": 0, "numpy": 0, "carrollsch": 0}
    total_us = None
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|", 2)
        name = name.strip()
        top = name.split(".", 1)[0]
        if top in self_us:
            self_us[top] += int(own)
        if name == "carrollsch":
            total_us = int(cumulative)
    if total_us is None:
        raise BenchError("no carrollsch line in -X importtime output")
    out = {
        "import.total_s": total_us / 1e6,
        "import.scipy_s": self_us["scipy"] / 1e6,
        "import.numpy_s": self_us["numpy"] / 1e6,
        "import.carrollsch_self_s": self_us["carrollsch"] / 1e6,
    }
    out["import.other_s"] = out["import.total_s"] - sum(v for k, v in out.items() if k != "import.total_s")
    return out


# ------------------------------------------------------------- processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [os.path.abspath("src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update({v: "1" for v in BLAS_VARS})
    return env


def run_timed(cmd: list[str], env: dict, timeout: float = 120.0, capture_stderr: bool = False):
    """(wall seconds from spawn to exit, exit code, peak RSS in MiB, stderr) of one child."""
    err = tempfile.TemporaryFile("w+", dir=WORK) if capture_stderr else None
    t = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        dt = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    text = ""
    if err is not None:
        err.seek(0)
        text = err.read()
        err.close()
    return dt, proc.returncode, usage.ru_maxrss / 1024.0, text


def floor_probe(env: dict) -> Probe:
    return Probe(lambda: run_timed([PY, "-c", "pass"], env)[0], FLOOR_REF_S)


def import_probe(env: dict) -> float:
    """Fresh-interpreter `import carrollsch`, checked to come from this checkout's src/."""
    src = os.path.abspath("src")
    code = (
        "import os, sys, carrollsch; "
        f"sys.exit(os.path.commonpath([{src!r}, os.path.abspath(carrollsch.__file__)]) != {src!r})"
    )
    dt, rc, _, _ = run_timed([PY, "-c", code], env)
    if rc:
        raise BenchError(f"import carrollsch failed or did not come from {src}")
    return dt


def import_breakdown(env: dict) -> dict[str, float]:
    """Median over PROBE_REPEATS of the -X importtime split, plus the interpreter floor."""
    runs = []
    for _ in range(PROBE_REPEATS):
        _, rc, _, err = run_timed([PY, "-X", "importtime", "-c", "import carrollsch"], env, capture_stderr=True)
        if rc:
            raise BenchError("python -X importtime -c 'import carrollsch' failed")
        runs.append(parse_importtime(err))
    out = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    out["cli.interpreter_floor_s"] = statistics.median(
        run_timed([PY, "-c", "pass"], env)[0] for _ in range(PROBE_REPEATS)
    )
    return out


# ------------------------------------------------------------- workloads


def run_cli_cold(args, env: dict, work: str) -> dict:
    """Every job a fresh `python -m carrollsch.cli SUB --config ... --out TMP`."""
    stream = JobStream("cli-cold", args.seed)
    floor = floor_probe(env)
    oracle = DigestOracle()
    rss = []
    summaries = []

    def job(j, traced=False):
        out = tempfile.mkdtemp(dir=work)
        spans = os.path.join(work, "child-spans.json")
        head = [PY, os.path.join(HERE, "cli_child.py"), spans] if traced else [PY, "-m", "carrollsch.cli"]
        try:
            dt, rc, maxrss, _ = run_timed(head + [j.kind, "--config", CONFIG, "--out", out], env)
            rss.append(maxrss)
            if rc:
                return dt, f"exit code {rc}"
            if traced:
                with open(spans) as fh:
                    payload = json.load(fh)
                summaries.append(payload["summary"])
                child_spans.append(payload["spans"])
            return dt, oracle.check(j.kind, out)
        finally:
            shutil.rmtree(out)

    child_spans: list = []
    if not args.trace:
        setup = []
        for _ in range(IMPORT_PROBES):
            before = floor.run()
            dt = import_probe(env)
            setup.append((floor.calibrate(dt, before, floor.run()), dt))
        phase = run_cycles(stream, job, args.seconds, probe=floor)
        return {
            "setup": [c for c, _ in setup],
            "setup_raw": [dt for _, dt in setup],
            "times": phase.times,
            "raw": phase.raw,
            "peak_rss_mb": max(rss),
            **_outcome([phase], oracle),
        }

    import_probe(env)
    plain = run_cycles(stream, job, args.seconds / 2, probe=floor)
    cycles = []

    def end_cycle():
        cycles.append(tracer.merge(summaries))
        summaries.clear()

    traced = run_cycles(stream, lambda j: job(j, traced=True), args.seconds / 2, end_cycle, probe=floor)
    with open(os.path.join(WORK, "spans-cli-cold.json"), "w") as fh:
        json.dump(child_spans, fh)
    return {
        "layers": tracer.layer_metrics(cycles, sum(traced.times) / sum(traced.raw)),
        "untraced_jobs_per_s": plain.jobs_per_s,
        "traced_jobs_per_s": traced.jobs_per_s,
        **_outcome([plain, traced], oracle),
    }


def _outcome(phases, oracle) -> dict:
    return {
        "attempted": sum(len(p.times) for p in phases),
        "failed": sum(p.failed for p in phases),
        "errors": [e for p in phases for e in p.errors],
        "digests": oracle.reference,
    }


def run_in_process(args, env: dict, work: str) -> dict:
    """Jobs as calls inside one worker process (worker.py)."""

    def worker(setup_only: bool, timeout: float) -> dict:
        cmd = [
            PY, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work,
        ]
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--spawned-at", repr(time.monotonic())]
        try:
            r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker did not finish within {timeout} s") from exc
        if r.returncode:
            raise BenchError(f"worker exited with code {r.returncode}")
        return json.loads(r.stdout.splitlines()[-1])

    res = worker(False, 120.0)
    if not args.trace:
        floor = floor_probe(env)
        res["setup"], res["setup_raw"] = [], []
        for _ in range(SETUP_SAMPLES):
            before = floor.run()
            extra = worker(True, 25.0)
            res["setup"].append(floor.calibrate(extra["setup_s"], before, floor.run()))
            res["setup_raw"].append(extra["setup_s"])
            res["attempted"] += extra["attempted"]
            res["failed"] += extra["failed"]
            res["errors"] += extra["errors"]
    return res


# ---------------------------------------------------------------- report


def machine() -> dict:
    def getconf(name):
        try:
            return int(subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10).stdout)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "l2_bytes_per_core": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "blas_threads": {v: "1" for v in BLAS_VARS},
    }


def report(args, res: dict) -> dict:
    """Print the readable lines; return the final JSON object."""
    attempted, failed = res["attempted"], res["failed"]
    info = machine()
    info["largest_array_bytes"] = LARGEST_ARRAY_BYTES[args.workload]
    print("machine " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: "
          f"{attempted} jobs attempted, {failed} failed")
    for e in res["errors"][:20]:
        print(f"  failed job: {e}")
    for kind, digests in sorted(res["digests"].items()):
        for name, sha in digests.items():
            print(f"digest {kind} {name} sha256 {sha}")

    if args.trace:
        metrics = {**res["imports"], **res["layers"]}
        metrics["trace.overhead_frac"] = res["untraced_jobs_per_s"] / res["traced_jobs_per_s"] - 1.0
        units = dict(LAYER_UNITS)
    else:
        times = res["times"]
        p, value, beyond = tail(times)
        metrics = {
            "setup_s": statistics.median(res["setup"]),
            "call_s.p50": percentile(times, 50.0)[0],
            "call_s.tail": value,
            "jobs_per_s": len(times) / sum(times),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = dict(E2E_UNITS)
        raw = res["raw"]
        print(f"raw wall seconds: setup {statistics.median(res['setup_raw']):.6g}, "
              f"p50 {percentile(raw, 50.0)[0]:.6g}, tail {percentile(raw, p)[0]:.6g}, "
              f"jobs/s {len(raw) / sum(raw):.6g}; calibrated/raw {sum(times) / sum(raw):.4f}")
        for k, v in res.get("imports", {}).items():
            print(f"{k:40s} {v:.6g} s")
        print(f"{'failed_frac':40s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
        print(f"call_s.tail is p{p:g} of n={len(times)} timed jobs, {beyond} samples beyond; "
              f"setup_s is the median of {len(res['setup'])}")
    for k, v in metrics.items():
        print(f"{k:40s} {v:.6g} {units[k]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


E2E_UNITS = (
    ("setup_s", "s"),
    ("call_s.p50", "s"),
    ("call_s.tail", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

LAYER_UNITS = (
    ("import.total_s", "s"),
    ("import.scipy_s", "s"),
    ("import.numpy_s", "s"),
    ("import.carrollsch_self_s", "s"),
    ("import.other_s", "s"),
    ("cli.interpreter_floor_s", "s"),
    *tracer.LAYER_METRICS,
    ("trace.overhead_frac", "ratio"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    missing = [p for p in (os.path.join("src", "carrollsch", "__init__.py"), CONFIG) if not os.path.isfile(p)]
    if missing:
        print(f"error: run from the root of a carrollsch checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    # this process, its children and the calibration probes share one CPU, so
    # a probe sees the contention the job next to it saw
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = child_env()
    try:
        subprocess.run([PY, "-m", "compileall", "-q", "src", HERE], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=600)
        os.makedirs(WORK, exist_ok=True)
        work = tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-")
        try:
            if args.workload == "cli-cold":
                res = run_cli_cold(args, env, work)
            else:
                res = run_in_process(args, env, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if args.workload == "cli-cold" or args.trace:
            res["imports"] = import_breakdown(env)
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
