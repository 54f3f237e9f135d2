"""Tests of the benchmark's own arithmetic, job streams and tracing.

Run from the root of a checkout: python -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


class TestSelfTime:
    def test_nested_spans(self):
        # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9]
        parent = [-1, 0, 1, 0]
        start = [0.0, 1.0, 2.0, 5.0]
        end = [10.0, 4.0, 3.0, 9.0]
        assert tracer.self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0]

    def test_self_times_add_up_to_the_roots(self):
        tr = tracer.Tracer()
        a = tr.open("numerics.a")
        b = tr.open("potentials.b")
        tr.close(tr.open("numerics.c"))
        tr.close(b)
        tr.close(tr.open("numerics.d"))
        tr.close(a)
        root = tr.end[a] - tr.start[a]
        s = tr.summary()
        assert sum(s["self"].values()) == pytest.approx(root, abs=1e-12)
        assert s["calls"] == {"numerics.a": 1, "potentials.b": 1, "numerics.c": 1, "numerics.d": 1}

    def test_merge_adds_counts_and_keeps_the_largest_array(self):
        one = {"self": {"cli.x": 1.0}, "calls": {"cli.x": 1}, "durations": {"cli.cmd_a": [1.0]},
               "counts": {"fft.calls": 2}, "largest_array_bytes": 8}
        two = {"self": {"cli.x": 0.5}, "calls": {"cli.x": 2}, "durations": {"cli.cmd_a": [2.0]},
               "counts": {"fft.calls": 3}, "largest_array_bytes": 4}
        m = tracer.merge([one, two])
        assert m["self"] == {"cli.x": 1.5}
        assert m["calls"] == {"cli.x": 3}
        assert m["durations"] == {"cli.cmd_a": [1.0, 2.0]}
        assert m["counts"] == {"fft.calls": 5}
        assert m["largest_array_bytes"] == 8


class TestTail:
    @pytest.mark.parametrize(
        "n, p, rank",
        [(200, 90.0, 180), (99, 75.0, 75), (40, 75.0, 30), (39, 50.0, 20), (21, 50.0, 11), (1000, 99.0, 990)],
    )
    def test_highest_percentile_with_ten_beyond(self, n, p, rank):
        got_p, value, beyond = run.tail([float(i) for i in range(n, 0, -1)])
        assert (got_p, value, beyond) == (p, float(rank), n - rank)
        assert beyond >= run.TAIL_BEYOND

    def test_short_runs_fall_back_to_the_median_rank(self):
        assert run.tail([float(i) for i in range(1, 16)]) == (50.0, 8.0, 7)


class TestJobStream:
    @pytest.mark.parametrize("workload", jobs.WORKLOADS)
    def test_same_seed_same_jobs(self, workload):
        a, b = jobs.JobStream(workload, 11), jobs.JobStream(workload, 11)
        cycles = [a.next_cycle() for _ in range(5)]
        assert cycles == [b.next_cycle() for _ in range(5)]
        for cycle in cycles:
            assert sorted(j.kind for j in cycle) == sorted(a.kinds)

    def test_seed_changes_the_order_and_parameters(self):
        a, b = jobs.JobStream("fields-large", 1), jobs.JobStream("fields-large", 2)
        assert [a.next_cycle() for _ in range(3)] != [b.next_cycle() for _ in range(3)]

    def test_parameters_stay_in_their_ranges(self):
        stream = jobs.JobStream("fields-large", 3)
        for _ in range(20):
            for job in stream.next_cycle():
                for name, value in job.params.items():
                    lo, hi = jobs.FIELD_RANGES[job.kind][name]
                    assert lo <= value <= hi


def test_parse_importtime():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   encodings",
            "import time:       300 |        300 |       numpy._core",
            "import time:        50 |        350 |     numpy",
            "import time:       400 |        400 |       scipy._lib",
            "import time:        20 |        420 |     scipy.integrate",
            "import time:        30 |         30 |     carrollsch.numerics",
            "import time:        10 |       1000 |   carrollsch",
        ]
    )
    got = run.parse_importtime(text)
    assert got["import.total_s"] == pytest.approx(1000e-6)
    assert got["import.numpy_s"] == pytest.approx(350e-6)
    assert got["import.scipy_s"] == pytest.approx(420e-6)
    assert got["import.carrollsch_self_s"] == pytest.approx(40e-6)
    assert got["import.other_s"] == pytest.approx(190e-6)


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.LAYER_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)


def _traced_counts(workload: str, seed: int, work: str) -> dict:
    timed = worker.Timed()
    do_job = worker.SweepJobs(work, timed) if workload == "sweep-warm" else worker.FieldJobs(timed)
    tr = tracer.Tracer()
    timed.tracer = tr
    restore = tracer.install(tr)
    cycles = []
    try:
        phase = jobs.run_cycles(jobs.JobStream(workload, seed), do_job, 0.0, lambda: cycles.append(tr.summary()))
    finally:
        restore()
    assert phase.failed == 0, phase.errors
    units = dict(tracer.LAYER_METRICS)
    return {k: v for k, v in tracer.layer_metrics(cycles).items() if units[k] in ("count", "B")}


@pytest.mark.parametrize("workload", ["sweep-warm", "fields-large"])
def test_two_traced_runs_give_identical_counts(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    first = _traced_counts(workload, 5, str(tmp_path))
    assert first == _traced_counts(workload, 5, str(tmp_path))
    assert first["fft.calls"] > 0 and first["potentials.eval.calls"] > 0
    if workload == "fields-large":
        # InteractionMomentum.at_x builds a spline per call, two calls per step
        assert first["interaction.spline_builds"] == 2 * first["interaction.steps"] == 64


def test_install_restores_the_package():
    import numpy as np
    from carrollsch import cli, duality, potentials

    before = (duality.integrate_fundamental_pair, cli.COMMANDS["rays"], potentials.PotentialSpec.v_xt, np.fft.fft)
    restore = tracer.install(tracer.Tracer())
    assert duality.integrate_fundamental_pair is not before[0]
    assert cli.COMMANDS["rays"] is not before[1]
    restore()
    after = (duality.integrate_fundamental_pair, cli.COMMANDS["rays"], potentials.PotentialSpec.v_xt, np.fft.fft)
    assert after == before
