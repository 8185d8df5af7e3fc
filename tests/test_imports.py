"""Every top-level import of a ``repro`` module must be used.

No linter ships with the repository, so this walks ``src/repro`` with
``ast``.  A bound name counts as used when the module reads it, lists
it in ``__all__``, or names it in a string annotation.  Imports under
``if TYPE_CHECKING:`` serve string annotations and are not checked,
and a package's ``__init__.py`` may import from its own modules only
to re-export.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "repro").rglob("*.py"))


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _top_level_imports(body, reexports: bool):
    """``(bound name, line)`` of the imports outside any function or
    class, looking into ``if``/``try`` blocks but not ``TYPE_CHECKING``
    ones; relative imports are skipped when *reexports*."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0],
                       node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (reexports and node.level):
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, ast.If):
            if not _is_type_checking(node.test):
                yield from _top_level_imports(node.body, reexports)
            yield from _top_level_imports(node.orelse, reexports)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody,
                          *(h.body for h in node.handlers)):
                yield from _top_level_imports(block, reexports)


def _annotations(tree: ast.AST):
    """Every annotation expression, and every subscript (type aliases
    such as ``Union["Condition", int]`` are subscripts too)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, ast.Subscript):
            yield node


def _names(expr: ast.AST):
    """Names read by *expr*, including inside its string constants."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from _names(parsed)


def _exported(tree: ast.Module):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            for elt in node.value.elts:
                if isinstance(elt, ast.Constant):
                    yield elt.value


def unused_imports(path: Path):
    """``(name, line)`` of the top-level imports *path* never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    used.update(_exported(tree))
    for annotation in _annotations(tree):
        used.update(_names(annotation))
    imports = _top_level_imports(tree.body, path.name == "__init__.py")
    return [(name, line) for name, line in imports if name not in used]


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_unused_names_are_reported(tmp_path):
    source = (
        "from __future__ import annotations\n"
        "from typing import TYPE_CHECKING, Dict, List, Optional\n"
        "import os, sys\n"
        "from .a import Kept, Listed, Quoted, Unused\n"
        "if TYPE_CHECKING:\n"
        "    from .b import OnlyTyped\n"
        "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    json = None\n"
        "__all__ = ['Listed']\n"
        "X: 'Dict[str, Quoted]' = {}\n"
        "def f(a: Optional['OnlyTyped']) -> int:\n"
        "    return Kept(os.sep)\n")
    module, package = tmp_path / "mod.py", tmp_path / "__init__.py"
    module.write_text(source, encoding="utf-8")
    package.write_text(source, encoding="utf-8")
    assert unused_imports(module) == [
        ("List", 2), ("sys", 3), ("Unused", 4), ("json", 8)]
    assert unused_imports(package) == [("List", 2), ("sys", 3), ("json", 8)]
