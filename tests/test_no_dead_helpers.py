"""The library keeps no private helper that nothing in it calls.

Every private top-level function or class of ``src/fancross`` (a name that
starts with one underscore), and every private method of a top-level class,
must be used by name somewhere in ``src/fancross`` outside its own
definition: as a name or as an attribute.  An import, a docstring and a call
from the tests do not count, so a helper left behind when its last caller
goes fails this test.  Uses are matched by name alone, so a use of one
class's ``_plan`` also keeps any other ``_plan``.
"""

from __future__ import annotations

import ast
from collections import Counter

from test_exact_arithmetic import SRC

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_used(node: ast.AST) -> Counter[str]:
    """How often each name occurs in ``node`` as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """``module.name``, or ``module.Class.name`` for a method, of every
    private top-level function or class and every private method of a
    top-level class in ``sources`` (module name -> text) that no code
    outside its own definition uses, sorted."""
    definitions: list[tuple[str, ast.AST]] = []
    used: Counter[str] = Counter()
    for module, text in sources.items():
        tree = ast.parse(text, filename=module)
        used += names_used(tree)
        for stmt in tree.body:
            if isinstance(stmt, DEFINITIONS):
                definitions.append((f"{module}.{stmt.name}", stmt))
            if isinstance(stmt, ast.ClassDef):
                definitions += [
                    (f"{module}.{stmt.name}.{item.name}", item)
                    for item in stmt.body
                    if isinstance(item, DEFINITIONS)
                ]
    return sorted(
        where
        for where, node in definitions
        if node.name.startswith("_")
        and not node.name.startswith("__")
        and used[node.name] == names_used(node)[node.name]
    )


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
    methods = [
        item.name
        for text in sources.values()
        for stmt in ast.parse(text).body
        if isinstance(stmt, ast.ClassDef)
        for item in stmt.body
        if isinstance(item, DEFINITIONS)
        and item.name.startswith("_")
        and not item.name.startswith("__")
    ]
    assert len(methods) >= 15
    assert dead_helpers(sources) == []


def test_guard_catches_a_dead_helper():
    sources = {
        "a": (
            "def _used():\n    return 1\n\n"
            "def _recursive(n):\n    return _recursive(n - 1) + _used() if n else 0\n\n"
            "class _Gone:\n    '''See _Gone.'''\n\n"
            "class Box:\n"
            "    def size(self):\n        return self._helper()\n\n"
            "    def _helper(self):\n        return 1\n\n"
            "    def _unused(self, n):\n        return self._unused(n - 1) if n else 0\n\n"
            "    def __len__(self):\n        return 0\n"
        ),
        "b": "from a import _Gone, _used\n\ndef f():\n    return _used()\n",
    }
    assert dead_helpers(sources) == ["a.Box._unused", "a._Gone", "a._recursive"]
