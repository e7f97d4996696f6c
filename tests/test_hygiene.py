"""Dead-code checks on the library source, by its syntax tree alone.

No module of ``qell`` except the package ``__init__`` (which re-exports)
imports a name it never uses, no function defines a nested function it never
refers to, no module-level private name goes unreferenced in the package, no
module checks with a bare ``assert``, which ``python -O`` strips, and no module
but ``gsets`` builds a G-set, so every table from outside is checked there.
Every ``InternalCheckError`` of the modules in ``NAMED_CHECK_MODULES`` is named
by a test that makes it fire.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qell"
PACKAGE = sorted(SRC.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
TESTS = sorted(Path(__file__).resolve().parent.glob("test_*.py"))
NAMED_CHECK_MODULES = ["charmod.py", "groups.py", "gsets.py"]


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


def _references(trees):
    """(name, node) for every read of a name: bare, as an attribute, or
    imported by name."""
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                yield n.id, n
            elif isinstance(n, ast.Attribute):
                yield n.attr, n
            elif isinstance(n, ast.ImportFrom):
                for alias in n.names:
                    yield alias.name, n


def _private_definitions(tree):
    """(name, node) for each private function, class or assigned name at
    module level; dunders are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def unreferenced_private_names(modules: dict) -> list[str]:
    """Private module-level names, over a {module name: tree} package, that
    nothing outside their own definition reads."""
    readers: dict[str, list] = {}
    for name, n in _references(modules.values()):
        readers.setdefault(name, []).append(n)
    out = []
    for module, tree in modules.items():
        for name, node in _private_definitions(tree):
            own = {id(n) for n in ast.walk(node)}     # a self-call is no use
            if all(id(n) in own for n in readers.get(name, ())):
                out.append(f"{module}.{name} (line {node.lineno})")
    return out


def test_no_unreferenced_private_names():
    assert unreferenced_private_names({p.stem: _tree(p) for p in PACKAGE}) == []


def bare_asserts(tree) -> list[str]:
    return [f"assert (line {n.lineno})" for n in ast.walk(tree) if isinstance(n, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_bare_asserts(path):
    assert bare_asserts(_tree(path)) == []


GSET_CONSTRUCTORS = {"FiniteGSet", "_Derived"}


def gset_constructions(tree) -> list[str]:
    """Calls of a G-set constructor, by bare name or as an attribute."""
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Call):
            name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            if name in GSET_CONSTRUCTORS:
                out.append(f"{name} (line {n.lineno})")
    return out


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "gsets.py"],
                         ids=lambda p: p.stem)
def test_only_gsets_builds_a_gset(path):
    assert gset_constructions(_tree(path)) == []


def _string_constants(tree) -> dict[str, str]:
    """The module-level names bound once, each to a string constant."""
    bound: dict[str, list] = {}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []
        for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
            bound.setdefault(name, []).append(node.value)
    return {name: values[0].value for name, values in bound.items()
            if len(values) == 1 and isinstance(values[0], ast.Constant)
            and isinstance(values[0].value, str)}


def internal_check_messages(tree) -> list[str]:
    """The message of every ``raise InternalCheckError(...)``: a string
    constant, or a module-level name bound once to one, or else the
    message's source, which no pattern is meant to name."""
    constants = _string_constants(tree)
    raises = sorted((n for n in ast.walk(tree)
                     if isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
                     and getattr(n.exc.func, "id", None) == "InternalCheckError"),
                    key=lambda n: n.lineno)
    return [arg.value if isinstance(arg, ast.Constant)
            else constants.get(arg.id, arg.id) if isinstance(arg, ast.Name)
            else ast.unparse(arg)
            for arg in (n.exc.args[0] for n in raises)]


def _parametrized(fn) -> dict[str, list[str]]:
    """A test function's parametrized arguments: name -> its string values."""
    out: dict[str, list[str]] = {}
    for dec in fn.decorator_list:
        if not (isinstance(dec, ast.Call) and getattr(dec.func, "attr", None) == "parametrize"
                and isinstance(dec.args[0], ast.Constant)):
            continue
        names = [name.strip() for name in dec.args[0].value.split(",")]
        for case in getattr(dec.args[1], "elts", ()):
            values = case.elts if len(names) > 1 and isinstance(case, ast.Tuple) else [case]
            for name, v in zip(names, values):
                if isinstance(v, ast.Constant) and isinstance(v.value, str):
                    out.setdefault(name, []).append(v.value)
    return out


def internal_check_patterns(tree) -> list[str]:
    """The ``match`` of every ``pytest.raises(InternalCheckError, match=...)``
    in a test function: a string, or the values of the parametrized argument
    it names."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        params = _parametrized(fn)
        for call in ast.walk(fn):
            if not (isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "raises"
                    and call.args and getattr(call.args[0], "id", None) == "InternalCheckError"):
                continue
            for kw in call.keywords:
                if kw.arg == "match" and isinstance(kw.value, ast.Constant):
                    out.append(kw.value.value)
                elif kw.arg == "match" and isinstance(kw.value, ast.Name):
                    out.extend(params.get(kw.value.id, ()))
    return out


def unnamed_internal_checks(module, tests) -> list[str]:
    """The messages of ``module`` that no pattern of ``tests`` matches."""
    patterns = [m for tree in tests for m in internal_check_patterns(tree)]
    return [m for m in internal_check_messages(module)
            if not any(re.search(pattern, m) for pattern in patterns)]


@pytest.mark.parametrize("name", NAMED_CHECK_MODULES)
def test_every_internal_check_is_named_by_a_test(name):
    assert unnamed_internal_checks(_tree(SRC / name), [_tree(p) for p in TESTS]) == []


def test_the_named_check_scan_sees_what_it_looks_for():
    module = ast.parse(
        "_ANGLE = 'angle is wrong'\n"
        "_TWICE = 'first'\n"
        "def f(x, message):\n"
        "    if x:\n"
        "        raise InternalCheckError('rows are wrong')\n"
        "    raise InternalCheckError('split failed')\n"
        "    raise InternalCheckError(f'bad {x}')\n"
        "    raise PreconditionError('not a check')\n"
        "    raise InternalCheckError(_ANGLE)\n"
        "    raise InternalCheckError(message)\n"
        "    raise InternalCheckError(_TWICE)\n"
        "_TWICE = 'second'\n")
    assert internal_check_messages(module) == [
        "rows are wrong", "split failed", "f'bad {x}'", "angle is wrong", "message", "_TWICE"]
    tests = ast.parse(
        "@pytest.mark.parametrize('case, message', [(1, 'split'), (2, 3)])\n"
        "def test_a(case, message):\n"
        "    with pytest.raises(InternalCheckError, match=message):\n"
        "        run(case)\n"
        "def test_b():\n"
        "    with pytest.raises(PreconditionError, match='rows'):\n"
        "        run()\n")
    assert internal_check_patterns(tests) == ["split"]
    assert unnamed_internal_checks(module, [tests]) == [
        "rows are wrong", "f'bad {x}'", "angle is wrong", "message", "_TWICE"]


def test_the_checks_see_what_they_look_for():
    tree = ast.parse(
        "from fractions import Fraction\n"
        "from .charmod import ClassFunction, ScalarContext\n"
        "def product_gset(X):\n"
        "    def act(g, pt):\n"
        "        return act(g, pt)\n"
        "    assert X\n"
        "    return ScalarContext(X, _used)\n"
        "_used = 1\n"
        "_dead: int = 2\n"
        "def _helper():\n"
        "    return _helper()\n"
        "class _Gone:\n"
        "    __slots__ = ()\n")
    assert [s.split()[0] for s in unused_imports(tree)] == ["Fraction", "ClassFunction"]
    assert [s.split()[0] for s in unused_nested_functions(tree)] == ["product_gset.act"]
    assert bare_asserts(tree) == ["assert (line 6)"]
    assert unreferenced_private_names({"m": tree}) == [
        "m._dead (line 9)", "m._helper (line 10)", "m._Gone (line 12)"]
    reader = ast.parse("from . import m\nfrom .m import _helper\nprint(m._Gone)\n")
    assert unreferenced_private_names({"m": tree, "r": reader}) == ["m._dead (line 9)"]
    builds = ast.parse("FiniteGSet(G, 1, t)\ngsets._Derived(G, 1, t)\nFiniteGSet.key(X)\n")
    assert gset_constructions(builds) == ["FiniteGSet (line 1)", "_Derived (line 2)"]
