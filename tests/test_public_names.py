"""Every module-level name in the library has a caller in it.

A public def or class in src/diskcontact must be referenced from
somewhere in src/ (a name, an attribute or an import other than its own
definition) or exported by the package (`diskcontact.__all__`, read from
its export table), and so must a private module-level def.  Dunder defs
(the package's PEP 562 `__getattr__` and `__dir__`) are called by the
interpreter and are not counted.  Code that only tests call lives next
to those tests.
"""

import ast
from pathlib import Path

import diskcontact

PACKAGE = Path(diskcontact.__file__).parent


def _unreferenced(kinds, private: bool) -> list[str]:
    """`module:name` of each module-level def of the given kinds, public or
    private, that src/ neither references nor exports."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    used, exported = set(), set(diskcontact.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, kinds)
        and node.name.startswith("_") == private
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used | exported
    ]


def test_every_public_name_is_used_or_exported():
    assert _unreferenced((ast.FunctionDef, ast.ClassDef), private=False) == []


def test_every_private_function_is_used():
    assert _unreferenced(ast.FunctionDef, private=True) == []
