"""Source hygiene of the package, read from the syntax trees only.

For every module of src/matroidfrag except __init__.py:
- every imported name is used in its module (names inside string
  annotations count as uses);
- every module-level private function, class or constant (one leading
  underscore) is referenced somewhere in src/ outside its own
  definition.
Nothing is imported or run, so a left-over helper or import fails here
rather than lingering unnoticed.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "matroidfrag"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
MODULES = sorted(name for name in TREES if name != "__init__.py")


def _references(tree):
    """Every name the tree reads: loaded names, attribute names, names
    imported from another module, and names inside string annotations."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
            for sub in ast.walk(annotation) if annotation is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield from _references(ast.parse(sub.value, mode="eval"))


def _bound_imports(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _private_definitions(tree):
    """(name, node) for each module-level function, class or constant
    with one leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


REFERENCES = Counter(ref for tree in TREES.values() for ref in _references(tree))


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = TREES[module]
    used = {
        ref
        for node in tree.body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
        for ref in _references(node)
    }
    assert sorted(set(_bound_imports(tree)) - used) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_private_definition_is_referenced(module):
    unused = [
        name
        for name, node in _private_definitions(TREES[module])
        if REFERENCES[name] == sum(ref == name for ref in _references(node))
    ]
    assert unused == []
