"""The package holds no code that only the tests call.

Every top-level def, class and constant of `src/nervecheck/*.py`, private
ones included but not dunders, and every public method or property of a
top-level class, must be referenced, by name or as an attribute, from code
in `src/` or in `benchmarks/` other than its own definition.  A benchmark
may name a function in a string (`benchmarks/spans.py` traces functions by
module and name), so identifier-like strings there count as references
too.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "nervecheck").glob("*.py"))
BENCH = sorted((ROOT / "benchmarks").glob("*.py"))

# Public names kept without a caller, each with its reason.
ALLOWED = {
    # the total degree level + form degree + 2 * polynomial degree, which
    # the tests pin as the cocycle's degree 4
    "total_degree",
    # the ISeedSequence method of `harness._SeedWords`, which numpy's PCG64
    # calls to read its seed words
    "generate_state",
}


def _definitions(tree: ast.Module):
    """(name, node) of the top-level defs, classes and constants, and of
    the public methods and properties of the classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield item.name, item


def _references(tree: ast.AST) -> Counter:
    """How often each name is loaded or read as an attribute in tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _strings(tree: ast.AST) -> set[str]:
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.isidentifier()}


def _unreferenced() -> set[tuple[str, str]]:
    """(module, name) of every definition but the dunders without a
    reference from outside its own definition."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in SRC + BENCH}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    bench_strings = set().union(*(_strings(trees[p]) for p in BENCH))
    out = set()
    for path in SRC:
        for name, node in _definitions(trees[path]):
            if name.startswith("__") or name in bench_strings:
                continue
            # a definition's references to itself do not count
            if refs[name] - _references(node)[name] == 0:
                out.add((path.name, name))
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    found = {(m, n) for m, n in _unreferenced() if not n.startswith("_")}
    assert sorted(f"{m}: {n}" for m, n in found if n not in ALLOWED) == []
    # an allowlisted name that gains a caller leaves the list
    assert ALLOWED <= {n for _, n in found}


def test_every_private_top_level_name_has_a_caller_in_the_package():
    found = {(m, n) for m, n in _unreferenced() if n.startswith("_")}
    assert sorted(f"{m}: {n}" for m, n in found) == []
