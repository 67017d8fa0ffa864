"""Rules on the package source that no behavioural test can observe."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "counterpairs"
CACHES = {"cache", "lru_cache", "cached_property"}


def _cache_uses(tree):
    """Names of functools memo decorators that a module imports or references."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "functools"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from (alias.name for alias in node.names if alias.name in CACHES)
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            yield node.attr


def test_no_module_memoizes():
    # observables are pure functions of frozen values: recomputed, never cached
    found = {path.relative_to(SRC).as_posix(): sorted(set(_cache_uses(ast.parse(path.read_text()))))
             for path in sorted(SRC.rglob("*.py"))}
    assert found and not {name: uses for name, uses in found.items() if uses}


def _is_ndarray(node):
    """Whether an isinstance class argument names ndarray, alone or in a tuple."""
    if isinstance(node, ast.Tuple):
        return any(map(_is_ndarray, node.elts))
    return (isinstance(node, ast.Attribute) and node.attr == "ndarray"
            or isinstance(node, ast.Name) and node.id == "ndarray")


def _array_tests(tree):
    """Name of the innermost function around each isinstance(..., ndarray) call."""
    owner = {}
    for node in ast.walk(tree):     # breadth first: inner functions overwrite outer ones
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(inner), node.name) for inner in ast.walk(node))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and _is_ndarray(node.args[1])):
            yield owner.get(id(node))


def test_one_predicate_tells_scalars_from_arrays():
    # every scalar-or-array decision goes through _elementwise.is_array
    found = {(path.relative_to(SRC).as_posix(), name) for path in sorted(SRC.rglob("*.py"))
             for name in _array_tests(ast.parse(path.read_text()))}
    assert found == {("_elementwise.py", "is_array")}
