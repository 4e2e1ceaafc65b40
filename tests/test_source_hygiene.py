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
And every public name in the package's `__all__` is used outside
tests/: read in src/ outside its own definition and __init__.py, or
in demos/ or bench/, where bench/tracer.py also binds functions by
their names as strings; and so is every public method and property of
a class in `__all__`, read as an attribute, and every public field in
such a class's `__slots__`, loaded as an attribute.
The tests' reference module, tests/reference.py, imports from the
package only names in `__all__` and from `matroidfrag.galois`, and
otherwise only the standard library; it reads no attribute and imports
no name with a leading underscore; it uses every import; and every
function and constant it defines is read by some test module.
Every Hypothesis test under tests/ names its seed (`@seed`), so no
draw depends on the test's source text.
Nothing is imported or run, so a left-over helper, import, parameter
or export fails here rather than lingering unnoticed.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "matroidfrag"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
MODULES = sorted(name for name in TREES if name != "__init__.py")
REFERENCE = ROOT / "tests" / "reference.py"
# (module, qualified function, parameter) read by no body on purpose
PROTOCOL_PARAMETERS = {("records.py", "Record.__setattr__", "value")}


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


def _reads(tree):
    """The names a module reads outside its import statements."""
    return {ref for node in tree.body if not isinstance(node, (ast.Import, ast.ImportFrom))
            for ref in _references(node)}


REFERENCES = Counter(ref for tree in TREES.values() for ref in _references(tree))


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = TREES[module]
    assert sorted(set(_bound_imports(tree)) - _reads(tree)) == []


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
    or through another class of src/, from Record."""
    classes = [(module, node) for module, tree in TREES.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    records, grew = {"Record"}, True
    while grew:
        found = {node.name for _, node in classes
                 if any(isinstance(b, ast.Name) and b.id in records for b in node.bases)}
        grew = not found <= records
        records |= found
    return [(module, node) for module, node in classes
            if node.name in records - {"Record"}]


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


def _function(module, name):
    return next(node for node in ast.walk(TREES[module])
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _reduces_vectors(node):
    """Whether a function clears coordinates: XOR on packed ints, or a
    field subtraction on encodings."""
    return any(isinstance(sub, (ast.AugAssign, ast.BinOp)) and isinstance(sub.op, ast.BitXor)
               or isinstance(sub, ast.Attribute) and sub.attr == "sub_enc"
               for sub in ast.walk(node))


def test_no_elimination_in_matrices_is_a_generator():
    # the sifts and rank loops are plain loops: a generator per
    # elimination costs a frame switch per vector
    reducers = [node for node in ast.walk(TREES["matrices.py"])
                if isinstance(node, ast.FunctionDef) and _reduces_vectors(node)]
    assert {"_sift_gf2", "_sift_enc", "rank_gf2", "_rank_generic"} <= {f.name for f in reducers}
    generators = [f.name for f in reducers
                  if any(isinstance(sub, (ast.Yield, ast.YieldFrom)) for sub in ast.walk(f))]
    assert generators == []


def test_one_move_witness_has_no_elimination_of_its_own():
    # `fragility._one_move` reads its closures off `matrices._sift`; a
    # loop, an XOR or a field operation in it would be a second
    # elimination beside the sift
    own = [ast.unparse(sub) for sub in ast.walk(_function("fragility.py", "_one_move"))
           if isinstance(sub, (ast.For, ast.While, ast.comprehension))
           or isinstance(sub, ast.AugAssign) and isinstance(sub.op, ast.BitXor)
           or isinstance(sub, ast.Attribute) and sub.attr in ("mul_enc", "sub_enc")]
    assert own == []


def _exports():
    """The names in the package's `__all__`, dunder names aside."""
    for node in TREES["__init__.py"].body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [name for name in ast.literal_eval(node.value) if not name.startswith("__")]
    raise AssertionError("no __all__ in __init__.py")


def _scripts(folder):
    return [ast.parse(path.read_text(), str(path)) for path in sorted((ROOT / folder).glob("*.py"))]


def test_every_export_is_used_outside_the_tests():
    # a use is a name, an attribute or an imported name in src/ outside
    # the export's own definition, or in demos/ or bench/, or a string
    # in bench/ that is the name, as the tracer binds functions by
    # getattr; docstrings and the README are not code, so they do not count
    demos, bench = _scripts("demos"), _scripts("bench")
    uses = Counter(ref for tree in demos + bench for ref in _references(tree))
    uses.update(node.value for tree in bench for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str))
    uses.update(ref for module in MODULES for ref in _references(TREES[module]))
    for module in MODULES:
        for node in TREES[module].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                uses.subtract(ref for ref in _references(node) if ref == node.name)
    assert [name for name in _exports() if uses[name] <= 0] == []


def _attribute_uses(loads_only=False):
    """The attribute names in src/ (the modules, __init__.py aside), in
    demos/ and in bench/, with the strings in bench/, as the tracer binds
    functions by getattr; with loads_only, an attribute that is stored
    or deleted is not counted."""
    demos, bench = _scripts("demos"), _scripts("bench")
    uses = Counter(node.attr for tree in demos + bench + [TREES[m] for m in MODULES]
                   for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and (isinstance(node.ctx, ast.Load) or not loads_only))
    uses.update(node.value for tree in bench for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str))
    return uses


def _public_members():
    """(class, member, definition) for each public method and property
    of each class in the package's `__all__`; dunder methods, and every
    name with a leading underscore, aside."""
    exported = set(_exports())
    for module in MODULES:
        for node in TREES[module].body:
            if isinstance(node, ast.ClassDef) and node.name in exported:
                for member in node.body:
                    if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not member.name.startswith("_")):
                        yield node.name, member.name, member


def test_every_public_method_is_used_outside_the_tests():
    """The rule of test_every_export_is_used_outside_the_tests for the
    methods and properties of exported classes: a method is reached as
    an attribute, so a use is an attribute name in src/ outside the
    method's own definition, or in demos/ or bench/, or a string in
    bench/ that is the name.  Members are matched by name alone, so a
    member that shares its name with a member of another exported class
    slips through on the other's uses, as `LabeledMatrix.rank` did on
    `ReprMatroid.rank`'s."""
    uses = _attribute_uses()
    unused = []
    for cls, name, node in _public_members():
        own = sum(isinstance(sub, ast.Attribute) and sub.attr == name for sub in ast.walk(node))
        if uses[name] - own <= 0:
            unused.append(f"{cls}.{name}")
    assert unused == []


def _public_slots():
    """(class, field) for each public name in the `__slots__` of each
    class in the package's `__all__`."""
    exported = set(_exports())
    for module in MODULES:
        for node in TREES[module].body:
            if isinstance(node, ast.ClassDef) and node.name in exported:
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign) and any(
                            isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets):
                        yield from ((node.name, name) for name in ast.literal_eval(stmt.value)
                                    if not name.startswith("_"))


def test_every_public_field_is_read_outside_the_tests():
    """The rule of test_every_public_method_is_used_outside_the_tests for
    the public fields in the `__slots__` of exported classes, counting
    loads only: a constructor that sets a field nobody reads outside the
    tests does not make it used.  Fields are matched by name alone, as
    members are."""
    uses = _attribute_uses(loads_only=True)
    assert [f"{cls}.{name}" for cls, name in _public_slots() if uses[name] <= 0] == []


def test_the_reference_module_imports_only_the_public_api():
    # an oracle that reaches a private helper of the code it checks may
    # share that helper's fault
    refused = []
    for node in ast.walk(ast.parse(REFERENCE.read_text(), str(REFERENCE))):
        if isinstance(node, ast.Import):
            refused += [alias.name for alias in node.names
                        if alias.name.split(".")[0] not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.module == "matroidfrag":
                refused += sorted(set(names) - set(_exports()))
            elif node.module == "matroidfrag.galois":
                refused += [name for name in names if name.startswith("_")]
            elif node.level or node.module.split(".")[0] not in sys.stdlib_module_names:
                refused.append(node.module)
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            refused.append(ast.unparse(node))
    assert refused == []


def test_the_reference_module_has_no_unused_import_or_reference():
    tree = ast.parse(REFERENCE.read_text(), str(REFERENCE))
    assert sorted(set(_bound_imports(tree)) - _reads(tree)) == []
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    defined |= {t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets}
    read = set().union(*(_reads(ast.parse(path.read_text(), str(path)))
                         for path in (ROOT / "tests").glob("test_*.py")))
    assert sorted(defined - read) == []


def _decorators(node):
    """The names of a function's decorators, called or not, without the
    module they are read from."""
    for d in node.decorator_list:
        yield ast.unparse(d.func if isinstance(d, ast.Call) else d).rsplit(".", 1)[-1]


def test_every_hypothesis_test_names_its_seed():
    # with no @seed, a @given test draws from a seed derived from its
    # source text under derandomize, so an edit to its body re-draws it
    unseeded = [
        f"{path.name}::{node.name}"
        for path in sorted((ROOT / "tests").glob("test_*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "given" in _decorators(node) and "seed" not in _decorators(node)
    ]
    assert unseeded == []
