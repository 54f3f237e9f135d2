"""In-process workloads (sweep-warm, fields-large) in one fresh interpreter.

Usage: python perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
           --work DIR --spawned-at T [--setup-only]

run.py starts this from the root of a checkout with src/ on PYTHONPATH and
passes the CLOCK_MONOTONIC time at which it spawned the process, so set-up is
timed from a fresh interpreter: import, input construction and one untimed
warm-up cycle.  Then it runs whole cycles for --seconds (untraced), or for
half the time untraced and half traced.  Prints one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

from jobs import CONFIG, FIELD_KINDS, NUMPY_PROBE, DigestOracle, JobStream, run_cycles


class Timed:
    """Times the job body; the tracer, when given, records only inside it."""

    def __init__(self) -> None:
        self.tracer = None
        self.last = 0.0

    def __call__(self, fn, *args):
        if self.tracer is not None:
            self.tracer.active = True
        t = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dt = time.perf_counter() - t
            if self.tracer is not None:
                self.tracer.active = False
            self.last = dt


class SweepJobs:
    """sweep-warm: cli.COMMANDS[sub](cfg, out, tol) on the default config."""

    def __init__(self, work: str, timed: Timed):
        from carrollsch import cli

        self.cli = cli
        self.cfg = cli.load_config(CONFIG)
        self.tol = cli.TOLERANCES["default"]
        self.work = work
        self.timed = timed
        self.oracle = DigestOracle()

    def __call__(self, job):
        out = tempfile.mkdtemp(dir=self.work)
        try:
            try:
                self.timed(self.cli.COMMANDS[job.kind], self.cfg, out, self.tol)
            except Exception as exc:  # a failed job is counted, and the loop goes on
                return self.timed.last, f"{type(exc).__name__}: {exc}"
            return self.timed.last, self.oracle.check(job.kind, out)
        finally:
            shutil.rmtree(out)


class FieldJobs:
    """fields-large: build inputs (untimed), run (timed), check the oracle (untimed)."""

    def __init__(self, timed: Timed):
        self.timed = timed
        self.oracle = None

    def __call__(self, job):
        build, run, check = FIELD_KINDS[job.kind]
        self.timed.last = 0.0
        try:
            inputs = build(job.params)
            out = self.timed(run, inputs)
            return self.timed.last, check(inputs, out)
        except Exception as exc:  # a failed job is counted, and the loop goes on
            return self.timed.last, f"{type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=["sweep-warm", "fields-large"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import carrollsch

    src = os.path.abspath("src")
    if os.path.commonpath([src, os.path.abspath(carrollsch.__file__)]) != src:
        print(f"error: carrollsch imported from {carrollsch.__file__}, not {src}", file=sys.stderr)
        return 2

    timed = Timed()
    do_job = SweepJobs(args.work, timed) if args.workload == "sweep-warm" else FieldJobs(timed)
    stream = JobStream(args.workload, args.seed)
    warm = run_cycles(stream, do_job, 0.0)
    result = {"setup_s": time.monotonic() - args.spawned_at, "phases": [warm]}

    if not args.setup_only and args.trace:
        import tracer

        plain = run_cycles(stream, do_job, args.seconds / 2, probe=NUMPY_PROBE)
        tr = tracer.Tracer()
        timed.tracer = tr
        restore = tracer.install(tr)
        cycles = []
        try:
            traced = run_cycles(
                stream, do_job, args.seconds / 2, lambda: cycles.append(tr.summary()), probe=NUMPY_PROBE
            )
        finally:
            restore()
            timed.tracer = None
        with open(os.path.join(os.path.dirname(args.work), f"spans-{args.workload}.json"), "w") as fh:
            json.dump(tr.dump(), fh)
        result.update(
            layers=tracer.layer_metrics(cycles, sum(traced.times) / sum(traced.raw)),
            untraced_jobs_per_s=plain.jobs_per_s,
            traced_jobs_per_s=traced.jobs_per_s,
            phases=[warm, plain, traced],
        )
    elif not args.setup_only:
        phase = run_cycles(stream, do_job, args.seconds, probe=NUMPY_PROBE)
        result.update(times=phase.times, raw=phase.raw, phases=[warm, phase])

    phases = result.pop("phases")
    result.update(
        attempted=sum(len(p.times) for p in phases),
        failed=sum(p.failed for p in phases),
        errors=[e for p in phases for e in p.errors][:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        digests=do_job.oracle.reference if do_job.oracle else {},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
