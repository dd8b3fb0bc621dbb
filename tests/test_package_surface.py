"""The package holds no code that only the tests call.

Every top-level def, class and constant of `src/nervecheck/*.py`, private
ones included but not dunders, and every public method or property of a
top-level class, must be reachable from a root:

* the `nervecheck` script's entry point, as `pyproject.toml` declares it;
* every name, attribute and identifier-like string in `benchmarks/` (a
  benchmark may name a function in a string: `benchmarks/spans.py` traces
  functions by module and name);
* the module-level statements of `src/` other than definitions, imports
  and docstrings.

A definition reaches the names it loads or reads as attributes; a class
reaches its body except its public methods, which are definitions of
their own.  Names resolve by name alone, across modules, so the test may
keep alive a name that a finer analysis would drop; but definitions that
only reference each other, such as two mutually recursive functions that
only the tests call, are dead.  A public method name that two classes
define would keep both methods alive through a caller of either, so that
fails too, unless ALLOWED lists the name.

Every name that a module of `src/` imports must be read in that module,
except in `__init__.py`, whose imports are the package's re-exports, and on
lines marked `# noqa: F401`, which import a module for its side effects.
No module takes another module's private name: it neither imports one nor
reads one as an attribute of a name that an import binds.

The modules form layers, and a module imports package modules only from
layers below its own (see LAYERS).
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "nervecheck").glob("*.py"))
BENCH = sorted((ROOT / "benchmarks").glob("*.py"))

# The modules of `src/nervecheck` from the bottom layer up; a module may
# import package modules only from the layers before its own.  The package
# namespace `__init__` sits above them all.
LAYERS = (("matrixgroup",), ("formcalc",), ("nerve", "eulercocycle"),
          ("cartanmodel",), ("formdsl",), ("harness",), ("cli",))

# Public names kept without a caller, or defined as methods by more than
# one class, each with its reason.
ALLOWED: dict[str, str] = {}


def _is_method(node: ast.stmt) -> bool:
    return isinstance(node, ast.FunctionDef) and not node.name.startswith("_")


def _definitions(tree: ast.Module):
    """(name, node) of the top-level defs, classes and constants, and of
    the public methods and properties of the classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if _is_method(item):
                    yield item.name, item


def _names(*nodes: ast.AST) -> set[str]:
    """The names loaded, and the attributes read, anywhere in nodes."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, ast.Attribute)
            or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _edges(node: ast.stmt) -> set[str]:
    """The names a definition reaches."""
    if isinstance(node, ast.ClassDef):
        return _names(*node.bases, *node.keywords, *node.decorator_list,
                      *(item for item in node.body if not _is_method(item)))
    return _names(node)


def _strings(tree: ast.AST) -> set[str]:
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.isidentifier()}


def _roots(trees: dict) -> set[str]:
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    script = re.search(r'^nervecheck = "nervecheck\.\w+:(\w+)"', pyproject,
                       re.M)
    assert script, "pyproject.toml declares no nervecheck script"
    roots = {script.group(1)}
    for path in BENCH:
        roots |= _names(trees[path]) | _strings(trees[path])
    for path in SRC:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                     ast.Assign, ast.AnnAssign, ast.Import,
                                     ast.ImportFrom, ast.Expr)):
                roots |= _names(node)
    return roots


def _shared_methods() -> dict[str, list[str]]:
    """The public method names that more than one class of `src/` defines,
    each with those classes."""
    classes = defaultdict(list)
    for path in SRC:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if _is_method(item):
                        classes[item.name].append(f"{path.name}: {node.name}")
    return {name: where for name, where in classes.items() if len(where) > 1}


def _unreached() -> set[tuple[str, str]]:
    """(module, name) of every definition but the dunders that no root
    reaches."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in SRC + BENCH}
    nodes = defaultdict(list)
    for path in SRC:
        for name, node in _definitions(trees[path]):
            nodes[name].append(node)
    reached: set[str] = set()
    todo = list(_roots(trees))
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in nodes[name]:
                todo.extend(_edges(node))
    return {(path.name, name) for path in SRC
            for name, _ in _definitions(trees[path])
            if name not in reached and not name.startswith("__")}


def test_every_public_name_has_a_caller_outside_the_tests():
    found = {(m, n) for m, n in _unreached() if not n.startswith("_")}
    assert sorted(f"{m}: {n}" for m, n in found if n not in ALLOWED) == []
    # an allowlisted name that gains a caller and is one class's method
    # leaves the list
    assert set(ALLOWED) <= {n for _, n in found} | set(_shared_methods())


def test_no_two_classes_define_a_public_method_of_one_name():
    shared = _shared_methods()
    assert sorted(f"{n} in {', '.join(shared[n])}" for n in shared
                  if n not in ALLOWED) == []


def test_every_private_top_level_name_has_a_caller_in_the_package():
    found = {(m, n) for m, n in _unreached() if n.startswith("_")}
    assert sorted(f"{m}: {n}" for m, n in found) == []


def _unused_imports(path: Path) -> list[str]:
    """module:line: name of every name imported and never read."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                out.append(f"{path.name}:{node.lineno}: {name}")
    return out


def test_every_import_in_the_package_is_read():
    assert [u for path in SRC if path.name != "__init__.py"
            for u in _unused_imports(path)] == []


def test_unused_import_check_finds_a_planted_import(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("from __future__ import annotations\n"
                       "import os.path\n"
                       "import sys  # noqa: F401\n"
                       "from dataclasses import dataclass, field\n"
                       "from functools import (partial,\n"
                       "                       reduce)  # noqa: F401\n"
                       "x: field = os.path.join\n", encoding="utf-8")
    assert _unused_imports(planted) == ["planted.py:4: dataclass"]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _private_imports(source: str) -> list[str]:
    """line: name of every private name that a module takes from another:
    imported (`from m import _x`, `import m._x`) or read as an attribute
    of a name that an import binds (`from . import m` and then `m._x`)."""
    tree = ast.parse(source)
    bound, out = set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            parts = (node.module or "").split(".") if isinstance(
                node, ast.ImportFrom) else []
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
                out += [f"{node.lineno}: {part}"
                        for part in parts + alias.name.split(".")
                        if _private(part)]
    out += [f"{node.lineno}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and _private(node.attr)
            and isinstance(node.value, ast.Name) and node.value.id in bound]
    return out


def test_no_module_takes_a_private_name_of_another():
    assert [f"{path.name}:{found}" for path in SRC
            for found in _private_imports(path.read_text(encoding="utf-8"))
            ] == []


def test_private_name_check_finds_planted_imports():
    assert _private_imports(
        "from __future__ import annotations\n"
        "from .nerve import Cochain, _total\n"
        "import numpy._core as core\n"
        "from . import nerve\n"
        "from ._impl import public\n"
        "class A:\n"
        "    def f(self, other):\n"
        "        return self._x, other._y, nerve.__name__, nerve._conj\n"
    ) == ["2: _total", "3: _core", "5: _impl", "8: nerve._conj"]


def _package_imports(tree: ast.Module) -> set[str]:
    """The modules of the package that a module's ast imports, anywhere in
    it, relatively or as `nervecheck.<module>`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = ["nervecheck"] * bool(node.level) + [
                part for part in (node.module or "").split(".") if part]
            paths = ([path + [alias.name] for alias in node.names]
                     if len(path) == 1 else [path])
        elif isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
        else:
            continue
        out |= {p[1] for p in paths if p[0] == "nervecheck" and len(p) > 1}
    return out


def _upward_imports(sources: dict[str, str]) -> list[str]:
    """module -> imported of every import of {module: source} that does not
    go to a lower layer of LAYERS."""
    rank = {name: i for i, layer in enumerate(LAYERS) for name in layer}
    return sorted(f"{name} -> {imported}"
                  for name, source in sources.items()
                  for imported in _package_imports(ast.parse(source))
                  if rank.get(imported, len(LAYERS)) >= rank[name])


def test_every_module_imports_only_from_lower_layers():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in SRC
               if path.stem != "__init__"}
    assert sorted(modules) == sorted(n for layer in LAYERS for n in layer)
    assert _upward_imports(modules) == []


def test_layer_check_finds_planted_upward_imports():
    assert _upward_imports({
        "eulercocycle": "from .cartanmodel import EquivariantForm\n"
                        "from .formcalc import FormEval\n",
        "nerve": "def f():\n    from . import eulercocycle\n",
        "formcalc": "import nervecheck.formcalc\n"
                    "from nervecheck.harness import run_check\n",
    }) == ["eulercocycle -> cartanmodel", "formcalc -> formcalc",
           "formcalc -> harness", "nerve -> eulercocycle"]
