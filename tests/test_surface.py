"""The package keeps no public function that only tests call: each one is
referenced by package code outside its own definition."""

import ast
from pathlib import Path

import fedcausal

PACKAGE = Path(fedcausal.__file__).parent


def _referenced_names(tree, skip):
    """Identifiers used as a ``Name`` or ``Attribute`` in ``tree``, outside ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def test_every_public_function_has_a_package_caller():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    uncalled = [
        f"{module}:{node.name}"
        for module, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and not any(node.name in _referenced_names(t, node) for t in trees.values())
    ]
    assert uncalled == []
