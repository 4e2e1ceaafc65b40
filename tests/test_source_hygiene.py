"""Source hygiene of the package, read from the syntax trees only.

For every module of src/matroidfrag except __init__.py:
- every imported name is used in its module (names inside string
  annotations count as uses);
- every module-level private function, class or constant (one leading
  underscore) is referenced somewhere in src/ outside its own
  definition;
- every parameter of every function (lambdas and methods included) is
  read in its body, apart from a method's self or cls and the
  parameters of protocol signatures in PROTOCOL_PARAMETERS, which the
  caller fixes.
Nothing is imported or run, so a left-over helper, import or parameter
fails here rather than lingering unnoticed.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "matroidfrag"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
MODULES = sorted(name for name in TREES if name != "__init__.py")
# (module, qualified function, parameter) read by no body on purpose
PROTOCOL_PARAMETERS = {("records.py", "FrozenRecord.__setattr__", "value")}


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


def _functions(tree, prefix="", in_class=False):
    """(qualified name, node, receiver) for each function and lambda in
    the tree, nested ones included; receiver is the name of a method's
    self or cls, which the call binds, else None."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.", in_class=True)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            positional = node.args.posonlyargs + node.args.args
            receiver = positional[0].arg if in_class and not static and positional else None
            yield prefix + node.name, node, receiver
            yield from _functions(node, f"{prefix}{node.name}.")
        else:
            if isinstance(node, ast.Lambda):
                yield prefix + "<lambda>", node, None
            yield from _functions(node, prefix, in_class)


def _unread_parameters(node, receiver):
    args = node.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    body = node.body if isinstance(node.body, list) else [node.body]
    read = {sub.id for stmt in body for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)}
    return [p.arg for p in params if p is not None and p.arg not in read | {receiver}]


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_parameter_is_read(module):
    unread = [
        (module, name, param)
        for name, node, receiver in _functions(TREES[module])
        for param in _unread_parameters(node, receiver)
    ]
    assert sorted(set(unread) - PROTOCOL_PARAMETERS) == []


def _record_classes():
    """(module, class node) for each class of src/ that derives, directly
    or through another class of src/, from Record or FrozenRecord."""
    classes = [(module, node) for module, tree in TREES.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    records, grew = {"Record", "FrozenRecord"}, True
    while grew:
        found = {node.name for _, node in classes
                 if any(isinstance(b, ast.Name) and b.id in records for b in node.bases)}
        grew = not found <= records
        records |= found
    return [(module, node) for module, node in classes
            if node.name in records - {"Record", "FrozenRecord"}]


def _only_stores_parameters(init):
    """Whether every statement of `init`, its docstring aside, sets a
    field to a parameter unchanged: `self.f = p` or
    `object.__setattr__(self, "f", p)`."""
    args = init.args
    receiver, *params = [a.arg for a in args.posonlyargs + args.args]
    params += [a.arg for a in args.kwonlyargs]
    body = init.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]

    def stores(stmt):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
            return (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                    and target.value.id == receiver
                    and isinstance(value, ast.Name) and value.id in params)
        call = stmt.value if isinstance(stmt, ast.Expr) else None
        return (isinstance(call, ast.Call) and ast.unparse(call.func) == "object.__setattr__"
                and len(call.args) == 3 and not call.keywords
                and isinstance(call.args[0], ast.Name) and call.args[0].id == receiver
                and isinstance(call.args[1], ast.Constant)
                and isinstance(call.args[2], ast.Name) and call.args[2].id in params)

    return bool(body) and all(map(stores, body))


def test_records_declare_their_fields_once():
    # `Record.__init__` binds values to the fields in `__slots__` order,
    # so an `__init__` that only stores its parameters repeats the slots
    repeated = [
        (module, node.name)
        for module, node in _record_classes()
        for init in node.body
        if isinstance(init, ast.FunctionDef) and init.name == "__init__"
        and _only_stores_parameters(init)
    ]
    assert repeated == []
