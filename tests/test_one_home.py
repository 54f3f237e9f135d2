"""Each numerical idea has one home.

The kinetic multiplier exp(-i beta h w^2) is built by `numerics` alone; a
second copy of the expression elsewhere in the package would bypass its
cache and could drift from it.  The RK4 stage abscissae (nodes, midpoints
x_k + h/2, step ends) are built by `numerics` alone, so every caller samples
its coefficients at the points `rk4` steps through (no other module trims
the last node or makes the loop's float lists), and the RK4 weight h/6
is written there alone; within `numerics`, the scalar loop `rk4` and its
array twin `rk4_sums` are the only places that form the weighted sum, so
the stage order and the weights have one home.  No module imports
scipy: the package runs on numpy alone, and scipy is a test-time
reference.  In `cli`, one runner writes the CSVs and checks the gates, so no
command can bypass it, and it alone fills `COMMANDS`, so a subcommand's name
is written once.  Every phase factor of `interaction`, and the
carrier of the commutator's probes in `operators`, comes from
`numerics.unit_phase`, so neither forms a complex exponential of its own.
A complex stencil, and F's 1/(2 m c^2), is scaled by its exact complex
reciprocal in one helper, `numerics._scaled`, whose guard keeps the bits of
the division; no other module writes that factor or divides F by its scale.
Every forward and inverse FFT is taken in `numerics`, so a chain of free
x-steps, which carries its spectrum from one step to the next, has no second
transform path beside it in `propagator`, `interaction` or `currents`.  The
package's one interpolant, the cubic Hermite, lives in `numerics`: no other
module looks up a piece with `searchsorted`, and interaction's `CubicSpline`
is that interpolant under the name the benchmark's tracer patches.  The
continuity bridge in `currents` takes V off the current in closed form, so it
imports nothing from `interaction` and forms no gauge integral or phase.  The
row-block size is one module constant, `numerics.BLOCK_BYTES`: no other module
sets one, and the one blocked kernel, the continuity bridge, takes no
parameter for it.  Each step count is checked where the stepping arithmetic
needs it, once: "need at least one step" is raised by `numerics.rk4_abscissae`
for every RK4 run and by `interaction._split_step` for every Strang run.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "carrollsch"


def test_squared_frequencies_only_in_numerics():
    squared = re.compile(r"omegas\s*\*\*\s*2\b")
    homes = sorted(p.name for p in PACKAGE.glob("*.py") if squared.search(p.read_text()))
    assert homes == ["numerics.py"], f"omegas**2 outside numerics.py: {homes}"


def test_rk4_midpoints_only_in_numerics():
    midpoint = re.compile(r"\+\s*0\.5\s*\*\s*h\b")
    homes = sorted(p.name for p in PACKAGE.glob("*.py") if midpoint.search(p.read_text()))
    assert homes == ["numerics.py"], f"RK4 midpoints (+ 0.5 * h) built outside numerics.py: {homes}"


def test_rk4_weights_only_in_numerics():
    weight = re.compile(r"\bh\s*/\s*6\b")
    homes = sorted(p.name for p in PACKAGE.glob("*.py") if weight.search(p.read_text()))
    assert homes == ["numerics.py"], f"RK4 weight (h / 6) written outside numerics.py: {homes}"


def _is_rk4_weighting(node: ast.AST) -> bool:
    """`h6 * ...`, or the weighted sum ((d1 + 2 * d2) + 2 * d3) + d4 of the stage slopes."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Add))):
        return False
    if isinstance(node.op, ast.Mult):
        return any(isinstance(side, ast.Name) and side.id == "h6" for side in (node.left, node.right))
    partial_sums = [node.left, getattr(node.left, "left", None)]
    return all(
        isinstance(s, ast.BinOp) and isinstance(s.op, ast.Add)
        and isinstance(s.right, ast.BinOp) and isinstance(s.right.op, ast.Mult)
        and isinstance(s.right.left, ast.Constant) and s.right.left.value == 2
        for s in partial_sums
    )


def test_rk4_step_only_in_rk4_and_its_array_twin():
    """Within numerics.py, only `rk4` and `rk4_sums` form the RK4 weighted sum."""
    tree = ast.parse((PACKAGE / "numerics.py").read_text())
    homes = sorted(
        {getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top) if _is_rk4_weighting(node)}
    )
    assert homes == ["rk4", "rk4_sums"], f"RK4 weighted sum formed in {homes}"


def _imported_roots(path: Path) -> set[str]:
    """Top-level package of every import statement in path (docstrings do not count)."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_module_imports_scipy():
    homes = sorted(p.name for p in PACKAGE.glob("*.py") if "scipy" in _imported_roots(p))
    assert homes == [], f"scipy imported by {homes}"


def test_cli_writes_and_gates_in_one_runner():
    """write_csv( and _gate( are called from one top-level function of cli.py, the runner."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    for callee in ("write_csv", "_gate"):
        callers = sorted(
            fn.name
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef)
            and any(
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == callee
                for node in ast.walk(fn)
            )
        )
        assert callers == ["_command"], f"{callee} called from {callers}"


def _np_exp_calls(tree: ast.AST) -> list[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "exp"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
    ]


def test_interaction_takes_phases_from_unit_phase():
    """interaction.py calls no np.exp: its gauge, mode and split-step phases are numerics.unit_phase."""
    tree = ast.parse((PACKAGE / "interaction.py").read_text())
    exps = [node.lineno for node in _np_exp_calls(tree)]
    assert exps == [], f"np.exp called in interaction.py at lines {exps}"


def test_operators_takes_phases_from_unit_phase():
    """No np.exp call in operators.py has an imaginary literal in its argument:
    the probes' carrier is numerics.unit_phase."""
    tree = ast.parse((PACKAGE / "operators.py").read_text())
    imaginary = [
        call.lineno
        for call in _np_exp_calls(tree)
        if any(isinstance(node, ast.Constant) and isinstance(node.value, complex) for node in ast.walk(call))
    ]
    assert imaginary == [], f"np.exp of an imaginary argument in operators.py at lines {imaginary}"


def test_complex_scale_only_in_numerics():
    """The complex reciprocal, complex(r, -0.0), is built in numerics._scaled
    alone, and operators.py does not divide F by 2 m c**2."""
    homes = sorted(
        f"{p.name}:{getattr(top, 'name', '<module>')}"
        for p in PACKAGE.glob("*.py")
        for top in ast.parse(p.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "complex"
    )
    assert homes == ["numerics.py:_scaled"], f"complex(...) built in {homes}"
    operators = (PACKAGE / "operators.py").read_text()
    assert not re.search(r"/\s*\(\s*2\s*\*\s*m\s*\*\s*c", operators), "operators.py divides by 2 m c**2"


def _fft_uses(path: Path) -> list[int]:
    """Lines of path that call np.fft.fft or np.fft.ifft, or import from numpy.fft."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in ("fft", "ifft"):
            if isinstance(node.value, ast.Attribute) and node.value.attr == "fft":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("numpy.fft"):
            lines.append(node.lineno)
    return lines


def test_transforms_only_in_numerics():
    homes = sorted(p.name for p in PACKAGE.glob("*.py") if _fft_uses(p))
    assert homes == ["numerics.py"], f"np.fft.fft/ifft used outside numerics.py: {homes}"


def test_one_interpolant_in_numerics():
    homes = sorted(p.name for p in PACKAGE.glob("*.py") if "searchsorted" in p.read_text())
    assert homes == ["numerics.py"], f"searchsorted used outside numerics.py: {homes}"


def test_interaction_spline_alias_is_the_hermite():
    from carrollsch import interaction, numerics

    assert interaction.CubicSpline is numerics.cubic_hermite


def test_currents_takes_no_gauge_phase():
    """currents.py imports nothing from interaction and calls neither cumulative_integral nor unit_phase."""
    tree = ast.parse((PACKAGE / "currents.py").read_text())
    imported = set()  # last component of every module and name imported
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert "interaction" not in imported, "currents.py imports from interaction"
    calls = sorted(
        {
            getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        & {"cumulative_integral", "unit_phase"}
    )
    assert calls == [], f"currents.py calls {calls}"


def test_block_size_only_in_numerics():
    import inspect

    from carrollsch import continuity_equivalence

    homes = sorted(p.name for p in PACKAGE.glob("*.py") if re.search(r"^BLOCK_BYTES\s*=", p.read_text(), re.M))
    assert homes == ["numerics.py"], f"BLOCK_BYTES assigned in {homes}"
    names = set(inspect.signature(continuity_equivalence).parameters)
    assert not any("block" in name for name in names), f"continuity_equivalence takes {names}"


def test_rk4_stage_layout_only_in_numerics():
    """No caller trims the last node off the stages or turns them into the loop's
    float lists: `.tolist()` and `[:-1]` appear in numerics.py alone."""
    layout = re.compile(r"\.tolist\(\)|\[:-1\]")
    homes = sorted(p.name for p in PACKAGE.glob("*.py") if layout.search(p.read_text()))
    assert homes == ["numerics.py"], f"RK4 stage layout handled outside numerics.py: {homes}"


def test_commands_filled_only_by_the_runner():
    """cli.COMMANDS starts as an empty dict and only `_command` writes an entry:
    each subcommand's name is written once, in its `cmd_<sub>`."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())

    def names(node):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]

    literals = [
        node.value for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign)) and "COMMANDS" in names(node)
    ]
    assert len(literals) == 1 and isinstance(literals[0], ast.Dict) and not literals[0].keys
    writers = sorted(
        {
            getattr(top, "name", "<module>")
            for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "COMMANDS"
        }
    )
    assert writers == ["_command"], f"COMMANDS written in {writers}"


def test_step_count_checked_only_where_the_steps_are_taken():
    """The one step-count message is raised in rk4_abscissae and _split_step alone."""
    homes = sorted(
        f"{p.name}:{getattr(top, 'name', '<module>')}"
        for p in PACKAGE.glob("*.py")
        for top in ast.parse(p.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Raise)
        and any(
            isinstance(c, ast.Constant) and isinstance(c.value, str) and "need at least one step" in c.value
            for c in ast.walk(node)
        )
    )
    assert homes == ["interaction.py:_split_step", "numerics.py:rk4_abscissae"], f"step count checked in {homes}"
