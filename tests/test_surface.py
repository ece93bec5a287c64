"""The package keeps no public function that only tests call, each one
referenced by package code outside its own definition, no module import
that its module never uses, no use of another module's private name, and
one place where the package parses a payload text."""

import ast
from pathlib import Path

import fedcausal
from fedcausal import errors

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


def test_every_module_import_is_used():
    # An import the module never names is left over from deleted code.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{path.name}:{alias.asname or alias.name.split('.')[0]}"
                    for alias in node.names
                    if (alias.asname or alias.name.split(".")[0]) not in used
                ]
    assert unused == []


def _is_private(name):
    # A dunder such as __version__ is not private.
    return name.startswith("_") and not name.startswith("__")


def _private_uses(tree):
    """Private names ``tree`` takes from another module: ``from x import _y``,
    a private module in ``import a._b`` or ``from a._b import c``, and an
    attribute chain such as ``np.linalg._umath_linalg`` that starts at a name
    an import bound."""
    imported, private = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        from_import = isinstance(node, ast.ImportFrom)
        modules = [node.module or ""] if from_import else [alias.name for alias in node.names]
        private += [m for m in modules if any(map(_is_private, m.split(".")))]
        private += [alias.name for alias in node.names if from_import and _is_private(alias.name)]
        imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                private.append(ast.unparse(node))
    return private


def test_no_module_imports_a_private_name():
    # A name one module shares with another is public.
    private = [f"{path.name}:{name}" for path in sorted(PACKAGE.glob("*.py"))
               for name in _private_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert private == []


def test_the_private_name_rule_sees_imports_and_attributes():
    source = """
import numpy as np
import numpy.linalg._umath_linalg
from numpy import _core
from numpy._core import numeric
from .numkit import _logistic, __version__
solve = np.linalg._umath_linalg.solve
local = {}
local._ok = 1
"""
    assert _private_uses(ast.parse(source)) == [
        "numpy.linalg._umath_linalg", "_core", "numpy._core", "_logistic",
        "np.linalg._umath_linalg"]


def test_every_error_is_raised_and_every_warning_warned():
    # A class of fedcausal.errors that no package code raises or warns names
    # no failure; FedcausalError is the base that handlers catch.
    raised, warned = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.update(n.id for n in ast.walk(exc) if isinstance(n, ast.Name))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "warn"):
                warned.update(n.id for a in node.args[1:] for n in ast.walk(a)
                              if isinstance(n, ast.Name))
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and c.__module__ == errors.__name__]
    unused = [c.__name__ for c in classes if c is not errors.FedcausalError
              and c.__name__ not in (warned if issubclass(c, Warning) else raised)]
    assert unused == []


def test_the_package_parses_a_payload_text_in_one_place():
    # Every payload text is parsed in one function, the audit's rule for a
    # text (wire.read_payload), so a new reader of a payload goes through it,
    # not a second decoder that could skip a check. The scenario loader and
    # the CLI read files, not payloads.
    readers = []
    for name in ("wire", "fedruntime", "density_ratio", "site_estimator"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        readers += [name for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "loads"
                    and isinstance(node.value, ast.Name) and node.value.id == "json"]
    assert readers == ["wire"]
