"""The library keeps no private helper that nothing in it calls.

Every private top-level function or class of ``src/fancross`` (a name that
starts with one underscore) must be used by name somewhere in
``src/fancross`` outside its own definition: as a name or as an attribute.
An import, a docstring and a call from the tests do not count, so a helper
left behind when its last caller goes fails this test.
"""

from __future__ import annotations

import ast

from test_exact_arithmetic import SRC

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every private top-level function or class in
    ``sources`` (module name -> text) that no code outside its own
    definition uses, sorted."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for module, text in sources.items():
        for stmt in ast.parse(text, filename=module).body:
            own = stmt.name if isinstance(stmt, DEFINITIONS) else None
            if own and own.startswith("_") and not own.startswith("__"):
                defined[own] = module
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return sorted(f"{module}.{name}" for name, module in defined.items() if name not in used)


def library_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted(SRC.rglob("*.py"))}


def test_library_has_no_dead_private_helpers():
    sources = library_sources()
    assert len(sources) >= 10
    helpers = [
        stmt.name
        for text in sources.values()
        for stmt in ast.parse(text).body
        if isinstance(stmt, DEFINITIONS) and stmt.name.startswith("_")
    ]
    assert len(helpers) >= 80
    assert dead_helpers(sources) == []


def test_guard_catches_a_dead_helper():
    sources = {
        "a": (
            "def _used():\n    return 1\n\n"
            "def _recursive(n):\n    return _recursive(n - 1) + _used() if n else 0\n\n"
            "class _Gone:\n    '''See _Gone.'''\n"
        ),
        "b": "from a import _Gone, _used\n\ndef f():\n    return _used()\n",
    }
    assert dead_helpers(sources) == ["a._Gone", "a._recursive"]
