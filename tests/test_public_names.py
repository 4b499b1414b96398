"""Every module-level name in the library has a caller in it.

A public def or class in src/diskcontact must be referenced from
somewhere in src/ (a name, an attribute or an import other than its own
definition) or exported from diskcontact/__init__.py, and so must a
private module-level def.  Code that only tests call lives next to those
tests.
"""

import ast
from pathlib import Path

import diskcontact

PACKAGE = Path(diskcontact.__file__).parent


def _unreferenced(kinds, private: bool) -> list[str]:
    """`module:name` of each module-level def of the given kinds, public or
    private, that src/ neither references nor exports."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    used, exported = set(), set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                (exported if name == "__init__.py" else used).update(a.name for a in node.names)
    return [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, kinds)
        and node.name.startswith("_") == private
        and node.name not in used | exported
    ]


def test_every_public_name_is_used_or_exported():
    assert _unreferenced((ast.FunctionDef, ast.ClassDef), private=False) == []


def test_every_private_function_is_used():
    assert _unreferenced(ast.FunctionDef, private=True) == []
