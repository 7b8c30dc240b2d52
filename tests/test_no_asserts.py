"""The library states its invariants with typed errors, never ``assert``.

An ``assert`` vanishes under ``python -O``, and where it does fire it raises
``AssertionError``, which the command line does not catch.  An ``assert``
statement anywhere in ``src/fancross`` fails this test.
"""

from __future__ import annotations

import ast

from test_exact_arithmetic import SRC


def assert_lines(tree: ast.AST) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_library_has_no_assert_statements():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10
    found = {
        p.name: lines
        for p in modules
        if (lines := assert_lines(ast.parse(p.read_text(), filename=str(p))))
    }
    assert found == {}


def test_guard_catches_an_assert():
    assert assert_lines(ast.parse("def f(x):\n    assert x, 'why'\n")) == [2]
