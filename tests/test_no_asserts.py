"""Invariants in the package raise typed errors; `assert` vanishes under `python -O`."""

import ast
from pathlib import Path

import crystalcharge

PACKAGE = Path(crystalcharge.__file__).resolve().parent


def test_no_assert_statements_in_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
