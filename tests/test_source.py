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
