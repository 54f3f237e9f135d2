"""Smoke tests for the experiment scripts: each runs in a fresh interpreter."""
from __future__ import annotations

import os
import subprocess
import sys

import pytest

import carrollsch

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")

EXPERIMENT_CSVS = [
    "commutator/commutator_residuals.csv",
    "currents/currents_residuals.csv",
    "duality/duality_delta.csv",
    "duality/duality_map.csv",
    "duality/duality_residuals.csv",
    "dyson/dyson_scaling.csv",
    "gaussian/gaussian_field.csv",
    "gaussian/gaussian_summary.csv",
    "quantize/quantize_levels.csv",
    "quantize/quantize_modes.csv",
    "rays/rays.csv",
]


@pytest.mark.parametrize(
    "script, csvs",
    [
        ("run_all_experiments.py", EXPERIMENT_CSVS),
        ("duality_gallery.py", ["duality_gallery.csv"]),
    ],
)
def test_script_writes_its_csvs(tmp_path, script, csvs):
    src = os.path.dirname(os.path.dirname(carrollsch.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), "--out", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in csvs:
        assert (tmp_path / name).is_file(), name
