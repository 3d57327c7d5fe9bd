"""Rules the package source keeps, checked on its syntax trees."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "zonotutte").glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, so no invariant may rest on one
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
