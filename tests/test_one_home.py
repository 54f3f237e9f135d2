"""Each numerical idea has one home.

The kinetic multiplier exp(-i beta h w^2) is built by `numerics` alone; a
second copy of the expression elsewhere in the package would bypass its
cache and could drift from it.
"""
from __future__ import annotations

import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "carrollsch"


def test_squared_frequencies_only_in_numerics():
    squared = re.compile(r"omegas\s*\*\*\s*2\b")
    homes = sorted(p.name for p in PACKAGE.glob("*.py") if squared.search(p.read_text()))
    assert homes == ["numerics.py"], f"omegas**2 outside numerics.py: {homes}"
