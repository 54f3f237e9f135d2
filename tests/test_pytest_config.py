"""The repository's pytest settings, run on a throwaway test file in a fresh interpreter."""
from __future__ import annotations

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")

TWO_TESTS = """
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=20)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 0


def test_passes():
    assert True
"""


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # on failure Hypothesis imports libcst to write a patch, and libcst's
    # DeprecationWarning must not turn into an INTERNALERROR under "error"
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", os.path.abspath(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
