"""The public API is what something reaches.

Every name `carrollsch/__init__.py` exports must be used by another package
module, a script, the benchmark harness or the acceptance suite; a name whose
only caller is its own unit test does not belong in the package.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "carrollsch"


def _exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _caller_lines() -> list[str]:
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return [line for p in files for line in p.read_text().splitlines()]


def test_every_export_has_a_caller():
    lines = _caller_lines()

    def reached(name: str) -> bool:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        return any(word.search(line) and not own.match(line) for line in lines)

    unreached = [name for name in _exports() if not reached(name)]
    assert not unreached, f"exported but reached only by their own tests: {unreached}"
