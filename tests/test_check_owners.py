"""Each certificate check keeps the callers it has, so a second copy of a
check cannot come back unnoticed.

A certificate's meaning is checked by ``cluster._strong_failures``, called
only by the verifier (``_failures``) and by the search's candidate test
(``_strong_cover``), and its lookups in a drawing by
``cluster._structural_check``, called only by ``_verified``.  A caller is
the top-level function or method of ``src/fancross`` whose body calls the
check by name, in ``cluster`` itself, or through an import of it or the
attribute ``cluster.<name>`` elsewhere.
"""

from __future__ import annotations

import ast

from test_no_dead_helpers import DEFINITIONS, library_sources

OWNERS = {
    "_strong_failures": {"cluster._failures", "cluster._strong_cover"},
    "_structural_check": {"cluster._verified"},
}


def callers(sources: dict[str, str], module: str, name: str) -> set[str]:
    """``module.function`` (or ``module.Class.method``) of every top-level
    function or method in ``sources`` that calls ``module``'s ``name``."""
    out: set[str] = set()
    for mod, text in sources.items():
        tree = ast.parse(text, filename=mod)
        local = mod == module or any(
            isinstance(stmt, ast.ImportFrom)
            and (stmt.module or "").split(".")[-1] == module
            and any(alias.name == name and alias.asname is None for alias in stmt.names)
            for stmt in ast.walk(tree)
        )
        units: list[tuple[str, ast.AST]] = []
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                units += [
                    (f"{mod}.{stmt.name}.{item.name}", item)
                    for item in stmt.body
                    if isinstance(item, DEFINITIONS)
                ]
            elif isinstance(stmt, DEFINITIONS):
                units.append((f"{mod}.{stmt.name}", stmt))
        for where, unit in units:
            for node in ast.walk(unit):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if (local and isinstance(f, ast.Name) and f.id == name) or (
                    isinstance(f, ast.Attribute)
                    and f.attr == name
                    and isinstance(f.value, ast.Name)
                    and f.value.id == module
                ):
                    out.add(where)
    return out


def test_each_certificate_check_has_its_callers_only():
    sources = library_sources()
    for name, owners in OWNERS.items():
        assert callers(sources, "cluster", name) == owners, name


def test_guard_sees_a_second_caller():
    sources = {
        "cluster": (
            "def _check(x):\n    return x\n\n"
            "def _owner(x):\n    return _check(x)\n\n"
            "class Search:\n    def run(self, x):\n        return _check(x)\n"
        ),
        "other": "from .cluster import _check\n\ndef again(x):\n    return [_check(y) for y in x]\n",
        "third": "from . import cluster\n\ndef once(x):\n    return cluster._check(x)\n",
        "fourth": "def _check(x):\n    return x\n\ndef own(x):\n    return _check(x)\n",
    }
    assert callers(sources, "cluster", "_check") == {
        "cluster._owner",
        "cluster.Search.run",
        "other.again",
        "third.once",
    }
