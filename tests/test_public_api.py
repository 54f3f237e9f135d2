"""The public API is what something reaches.

Every name `carrollsch/__init__.py` exports must be used by another package
module, a script, the benchmark harness or the acceptance suite; a name whose
only caller is its own unit test does not belong in the package.  Likewise a
default that only unit tests override is one value in use, so a constant.
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


def _caller_files() -> list[Path]:
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return files


def _used_names(path: Path) -> set[str]:
    """Every name the code of path reaches: names, attributes, imported names and
    aliases, and the words of its string constants (a hook string such as
    "operators.apply_H" names its target).  Docstrings do not count, and nor
    does a def or class statement's own name."""
    tree = ast.parse(path.read_text())
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            names.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            names.update(re.findall(r"\w+", node.value))
    return names


def test_every_export_has_a_caller():
    used = set().union(*map(_used_names, _caller_files()))
    unreached = [name for name in _exports() if name not in used]
    assert not unreached, f"exported but reached only by their own tests: {unreached}"


def _defaults(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(callable, parameter, position in a call) of every default in a module.

    A function gives its defaulted parameters; a method's positions skip self
    or cls, which a call through an attribute fills; a dataclass gives its
    defaulted fields.  Keyword-only parameters get position -1.  `constants`
    is exempt: every kernel takes the physical constants with NATURAL as the
    default.
    """
    out = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
        for node in scope.body:
            if isinstance(node, ast.FunctionDef):
                a = node.args
                positional = a.posonlyargs + a.args
                skip = int(scope is not tree and bool(positional) and positional[0].arg in ("self", "cls"))
                first = len(positional) - len(a.defaults)
                out += [(node.name, arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
                out += [(node.name, arg.arg, -1) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d]
            elif isinstance(node, ast.AnnAssign) and node.value is not None and scope is not tree:
                fields = [f for f in scope.body if isinstance(f, ast.AnnAssign)]
                out.append((scope.name, node.target.id, fields.index(node)))
    return [d for d in out if d[1] != "constants"]


def _calls(tree: ast.Module) -> list[tuple[str, ast.Call]]:
    """(name called, call) of every call but a function's call of itself.

    Names go through `import ... as` aliases, and cls(...) names its class.
    """
    aliases = {a.asname: a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}

    def innermost(kind):  # call -> name of the innermost enclosing `kind` node
        return {id(c): n.name for n in ast.walk(tree) if isinstance(n, kind) for c in ast.walk(n)}

    classes, functions = innermost(ast.ClassDef), innermost(ast.FunctionDef)
    out = []
    for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        f = call.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        name = classes.get(id(call)) if name == "cls" else aliases.get(name, name)
        if name != functions.get(id(call)):
            out.append((name, call))
    return out


def _passes(call: ast.Call, param: str, position: int) -> bool:
    """Whether the call sets the parameter, by position, by keyword or by a spread."""
    spread = any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords)
    return spread or 0 <= position < len(call.args) or any(k.arg == param for k in call.keywords)


def test_every_default_is_set_by_a_caller():
    """A default that no caller outside the unit tests sets is one value in use: a constant.

    A callable is judged only if something outside the unit tests calls it;
    whether an uncalled one belongs is the export rule's question.
    """
    trees = {p: ast.parse(p.read_text()) for p in _caller_files()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for name, call in _calls(tree):
            calls.setdefault(name, []).append(call)
    unset = [
        f"{name}({param})"
        for p, tree in trees.items()
        if p.parent == PACKAGE
        for name, param, position in _defaults(tree)
        if name in calls and not any(_passes(c, param, position) for c in calls[name])
    ]
    assert not unset, f"defaults that only their own tests set: {unset}"
