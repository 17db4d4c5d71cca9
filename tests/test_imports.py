"""Unused-import guard: every name a module under ``src/``, ``tests/`` or
``scripts/`` imports must be used in that module.

An import stays when its statement carries ``# noqa`` (one kept for a
caller outside the module) or when the module lists the name in
``__all__``.  Names in quoted annotations count as uses.  Since an
``__all__`` entry counts as a use, a last test checks that every entry of
the package's ``__all__`` resolves.
"""

import ast
from pathlib import Path

import resemotenet

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Each name the module's import statements bind, with its line; a
    statement marked ``# noqa`` binds none here."""
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name != "*":
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, in its code, its quoted annotations
    and its ``__all__``."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    for annotation in annotations:
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used |= {n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree)
    return [f"line {line}: {name}"
            for name, line in _imported(tree, source.splitlines()).items()
            if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    found = {str(path.relative_to(ROOT)): unused for path in MODULES
             if (unused := unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}


def test_guard_flags_unused_and_honours_noqa_and_all():
    source = ("import os\n"
              "import sys  # noqa: F401\n"
              "from typing import (Iterable,\n"
              "                    Sequence)\n"
              "from json import dumps\n"
              "__all__ = ['dumps']\n"
              "def f(x: 'Sequence[int]') -> None:\n"
              "    return None\n")
    assert unused_imports(source) == ["line 1: os", "line 3: Iterable"]


def test_every_name_in_the_package_all_resolves():
    # the guard counts `__all__` entries as uses, so a stale one passes it
    assert [name for name in resemotenet.__all__ if not hasattr(resemotenet, name)] == []
