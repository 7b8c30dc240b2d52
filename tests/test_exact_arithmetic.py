"""The library computes with integers and ``Fraction``s only.

A float literal, a true division ``/`` (which turns two ints into a float)
or a call to ``float`` or ``round`` anywhere in ``src/fancross`` fails this
test, so an inexact step cannot slip in unnoticed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fancross"


def inexact_nodes(tree: ast.AST) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            out.append(f"line {node.lineno}: true division")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "round")
        ):
            out.append(f"line {node.lineno}: call to {node.func.id}")
    return out


def test_library_has_no_inexact_arithmetic():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10
    found = {
        p.name: bad
        for p in modules
        if (bad := inexact_nodes(ast.parse(p.read_text(), filename=str(p))))
    }
    assert found == {}


@pytest.mark.parametrize(
    "snippet", ["x = 0.5", "x = a / b", "x /= 2", "x = float(a)", "x = round(a)", "x = 1j"]
)
def test_guard_catches_each_inexact_form(snippet):
    assert inexact_nodes(ast.parse(snippet))
