"""The benchmark's tracer binds to the package it traces.

`perfbench/tracer.py` wraps names of the package from outside: the public
functions of each layer module, the CLI commands, the potential evaluation
methods, `InteractionMomentum.at_x`, interaction's `CubicSpline` and numpy's
FFT.  A package change that drops one of them breaks every traced benchmark
run; installing and restoring the tracer here makes it fail the suite too.
"""
from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracer imports its sibling `jobs`
    return importlib.import_module("tracer")


def _bindings(tracer) -> list[tuple[object, str, object]]:
    """(namespace index, name, object) of every name the tracer may patch."""
    mods = [importlib.import_module("carrollsch")]
    mods += [importlib.import_module(f"carrollsch.{layer}") for layer in tracer.LAYERS]
    inter = importlib.import_module("carrollsch.interaction")
    spaces = [*(vars(m) for m in mods), importlib.import_module("carrollsch.cli").COMMANDS]
    spaces += [vars(importlib.import_module("carrollsch.potentials").PotentialSpec)]
    spaces += [vars(inter.InteractionMomentum), vars(np.fft)]
    return [(i, name, obj) for i, ns in enumerate(spaces) for name, obj in list(ns.items())]


def _patched(a, b) -> set[str]:
    """Names bound to another object in b than in a; the two lists must pair up."""
    assert [x[:2] for x in a] == [y[:2] for y in b]
    return {x[1] for x, y in zip(a, b) if x[2] is not y[2]}


def test_install_then_restore_leaves_the_package_as_it_was(tracer):
    before = _bindings(tracer)
    restore = tracer.install(tracer.Tracer())
    try:
        patched = _patched(before, _bindings(tracer))
    finally:
        restore()
    assert {"CubicSpline", "at_x", "dv_dx", "evolve_interacting", "rays", "fft", "ifft"} <= patched
    assert _patched(before, _bindings(tracer)) == set()
