"""Half-integers are stored doubled, as ints; only the CLI turns one into a Fraction, to print it."""

import ast
from pathlib import Path

import crystalcharge

PACKAGE = Path(crystalcharge.__file__).resolve().parent


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_only_the_cli_imports_fractions():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        path.name
        for path in modules
        if "fractions" in imported_modules(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == ["cli.py"]
