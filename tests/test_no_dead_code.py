"""Every function, class and method is named in the package outside its own definition; test-only helpers live in tests.

Every module-level import of a module is named in that module; __init__.py re-exports, so it is exempt.
"""

import ast
from collections import Counter
from pathlib import Path

import crystalcharge

PACKAGE = Path(crystalcharge.__file__).resolve().parent


def names(node):
    """How often each identifier appears as a Name or an Attribute under node."""
    found = (n for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in found)


def definitions(tree):
    """Module-level functions and classes, and the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("__"))


def test_every_definition_is_named_in_the_package():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    used = sum(map(names, trees.values()), Counter())
    unused = [
        f"{path.stem}.{node.name}"
        for path, tree in trees.items()
        if path.name != "__init__.py"
        for node in definitions(tree)
        if used[node.name] == names(node)[node.name]
    ]
    assert unused == []


def test_every_import_is_named_in_its_module():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = names(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = ((alias.asname or alias.name).split(".")[0] for alias in node.names)
                unused += [f"{path.stem}.{name}" for name in bound if not used[name]]
    assert unused == []
