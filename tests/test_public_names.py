"""Every public module-level name in the library has a caller in it.

A public def or class in src/diskcontact must be referenced from
somewhere in src/ (a name, an attribute or an import other than its own
definition) or exported from diskcontact/__init__.py.  Code that only
tests call lives next to those tests.
"""

import ast
from pathlib import Path

import diskcontact

PACKAGE = Path(diskcontact.__file__).parent


def test_every_public_name_is_used_or_exported():
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
    unused = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used | exported
    ]
    assert unused == []
