"""No package function calls itself: a recursion as deep as the rank or a word's length exhausts the stack.

A function calls itself by its bare name; a method by self.name or
cls.name.  Two recursions have a small bound on their depth and are
exempt: root_data.partitions recurses once per part, at most the number
of parts, and verify._Shape.views once, from a restriction to the
interval it restricts.
"""

import ast
from pathlib import Path

import crystalcharge

PACKAGE = Path(crystalcharge.__file__).resolve().parent
EXEMPT = {"root_data.partitions", "verify._Shape.views"}


def self_calls(body, prefix, in_class=False):
    """The qualified names of the functions under body that call themselves."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from self_calls(node.body, f"{prefix}.{node.name}", in_class=True)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{node.name}"
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if in_class:
                    own = isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    own = own and func.value.id in ("self", "cls") and func.attr == node.name
                else:
                    own = isinstance(func, ast.Name) and func.id == node.name
                if own:
                    yield name
                    break
            yield from self_calls(node.body, name)


def package_self_calls():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    return {name for path in modules for name in self_calls(ast.parse(path.read_text(encoding="utf-8")).body, path.stem)}


def test_no_package_function_calls_itself():
    assert package_self_calls() == EXEMPT


def test_self_calls_are_found():
    source = "def f(n):\n    return f(n - 1)\n\nclass A:\n    def g(self):\n        return self.g()\n\n    def h(self):\n        return other.h()\n"
    assert set(self_calls(ast.parse(source).body, "m")) == {"m.f", "m.A.g"}
