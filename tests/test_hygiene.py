"""Dead-code checks on the library source, by its syntax tree alone.

No module of ``qell`` except the package ``__init__`` (which re-exports)
imports a name it never uses, no function defines a nested function it never
refers to, and no module checks with a bare ``assert``, which ``python -O``
strips.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qell"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_used(node) -> set[str]:
    """Every bare name read, and the root name of every attribute chain."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _imported(tree):
    """(bound name, line) for each import of the module, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def unused_imports(tree) -> list[str]:
    used = _names_used(tree)
    return [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]


def unused_nested_functions(tree) -> list[str]:
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(fn):
            if inner is fn or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own = {id(n) for n in ast.walk(inner)}     # a self-call is no use
            if not any(isinstance(n, ast.Name) and n.id == inner.name and id(n) not in own
                       for n in ast.walk(fn)):
                out.append(f"{fn.name}.{inner.name} (line {inner.lineno})")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_nested_functions(path):
    assert unused_nested_functions(_tree(path)) == []


def bare_asserts(tree) -> list[str]:
    return [f"assert (line {n.lineno})" for n in ast.walk(tree) if isinstance(n, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_bare_asserts(path):
    assert bare_asserts(_tree(path)) == []


def test_the_checks_see_what_they_look_for():
    tree = ast.parse(
        "from fractions import Fraction\n"
        "from .charmod import ClassFunction, ScalarContext\n"
        "def product_gset(X):\n"
        "    def act(g, pt):\n"
        "        return act(g, pt)\n"
        "    assert X\n"
        "    return ScalarContext(X)\n")
    assert [s.split()[0] for s in unused_imports(tree)] == ["Fraction", "ClassFunction"]
    assert [s.split()[0] for s in unused_nested_functions(tree)] == ["product_gset.act"]
    assert bare_asserts(tree) == ["assert (line 6)"]
