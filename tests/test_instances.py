"""Instance file codec and random generation tests."""

import copy
import hashlib
import json
import math
import pickle
import random
import re
import sys
import traceback
from collections import Counter

import pytest

from matroidfrag import instances, matrices
from matroidfrag import (
    CapExceeded,
    DegreeCap,
    Exhausted,
    GeneratedInstance,
    InstanceFile,
    InvalidArgs,
    InvalidField,
    LabeledMatrix,
    MalformedJson,
    NFragileTask,
    PipelineTask,
    RelaxTask,
    ReprMatroid,
    SchemaViolation,
    ToolkitError,
    XFragileTask,
    field_from_tower,
    field_of_order,
    gen_random,
    is_N_fragile,
    parse_instance,
    serialize_instance,
    x_fragile_failure,
)
from matroidfrag.fragility import PARTITION_CAP_DEFAULT
from reference import GF2, GF3, drawn_matrix, reference_gen_random
from test_refusals import SHAPE_REFUSALS
from watch import raise_sites, watch

MINIMAL = '{"field": {"p": 2, "tower": []}, "matrix": {"rows": ["a"], "cols": ["b"], "entries": [[1]]}}'


def with_task(task_json):
    return (
        '{"field": {"p": 2, "tower": []},'
        ' "matrix": {"rows": ["a"], "cols": ["b"], "entries": [[1]]},'
        f' "task": {task_json}}}'
    )


def test_minimal_instance():
    inst = parse_instance(MINIMAL)
    assert inst.matrix.rows == ("a",)
    assert inst.matrix.enc("a", "b") == 1
    assert inst.task is None
    assert inst.seed is None


def test_round_trip_is_identity_on_canonical_form():
    texts = [
        MINIMAL,
        with_task('{"kind": "xfragile", "x": ["a", "b"]}'),
        with_task('{"kind": "relax", "contract": [], "delete": []}'),
        '{"field": {"p": 3, "tower": [{"deg": 2, "modulus": [1, 0, 1]}]},'
        ' "matrix": {"rows": ["a"], "cols": ["b"], "entries": [[7]]}, "seed": 9}',
    ]
    for text in texts:
        first = serialize_instance(parse_instance(text))
        second = serialize_instance(parse_instance(json.dumps(first)))
        assert first == second


# two task blocks per kind over the GF(3) matrix of `task_doc`, minors
# with an empty row side and with an empty column side among them
TASK_BLOCKS = [
    {"kind": "xfragile", "x": ["c", "a"]},
    {"kind": "xfragile", "x": []},
    {"kind": "nfragile", "minor": {"rows": ["b"], "cols": ["d", "c"], "entries": [[2, 0]]}},
    {"kind": "nfragile", "minor": {"rows": [], "cols": ["c"], "entries": []}},
    {"kind": "pipeline", "minor": {"rows": ["d", "a"], "cols": [], "entries": [[], []]}},
    {"kind": "pipeline", "minor": {"rows": ["a"], "cols": ["b"], "entries": [[1]]}},
    {"kind": "relax", "contract": ["b", "a"], "delete": ["d"]},
    {"kind": "relax", "contract": [], "delete": ["c"]},
]


def task_doc(task):
    return json.dumps({"field": {"p": 3, "tower": []},
                       "matrix": {"rows": ["a", "b"], "cols": ["c", "d"],
                                  "entries": [[1, 2], [0, 1]]},
                       "task": task, "seed": 4})


@pytest.mark.parametrize("task", TASK_BLOCKS, ids=lambda t: t["kind"])
def test_every_task_kind_round_trips(task):
    inst = parse_instance(task_doc(task))
    assert inst.task.kind == task["kind"]
    obj = serialize_instance(inst)
    assert parse_instance(json.dumps(obj)) == inst
    # the block comes back with its keys in slot order and its sets sorted
    cls = type(inst.task)
    assert list(obj["task"]) == ["kind", *cls.__slots__]
    assert obj["task"] == {k: sorted(v) if k in ("x", "contract", "delete") else v
                           for k, v in task.items()}


def test_tower_field_instance():
    inst = parse_instance(
        '{"field": {"p": 2, "tower": [{"deg": 2, "modulus": [1, 1, 1]}]},'
        ' "matrix": {"rows": ["a"], "cols": ["b"], "entries": [[2]]}}'
    )
    assert inst.matrix.field.order == 4
    assert serialize_instance(inst)["field"] == {
        "p": 2,
        "tower": [{"deg": 2, "modulus": [1, 1, 1]}],
    }


def test_task_payloads():
    nf = parse_instance(with_task(
        '{"kind": "nfragile", "minor": {"rows": ["a"], "cols": [], "entries": [[]]}}'
    )).task
    assert isinstance(nf, NFragileTask)
    assert nf.minor.ground == {"a"}
    xt = parse_instance(with_task('{"kind": "xfragile", "x": ["b"]}')).task
    assert isinstance(xt, XFragileTask)
    assert xt.x == frozenset({"b"})
    rt = parse_instance(with_task('{"kind": "relax", "contract": ["a"], "delete": []}')).task
    assert isinstance(rt, RelaxTask)
    assert rt.contract == frozenset({"a"})
    pt = parse_instance(with_task(
        '{"kind": "pipeline", "minor": {"rows": [], "cols": ["b"], "entries": []}}'
    )).task
    assert isinstance(pt, PipelineTask)
    assert pt.minor.ground == {"b"}


# every document one edit away from a well-formed one, at any depth:
# the base documents are each field, a 1 x 1 or an empty matrix, and no
# task or one of each kind; an edit at an object or an array replaces a
# value by a CATALOGUE value or drops it, adds a missing key of KEYS
# (as null), or appends a CATALOGUE value
KEYS = ("field", "matrix", "task", "seed", "p", "tower", "deg", "modulus",
        "rows", "cols", "entries", "kind", "x", "minor", "contract", "delete")
FIELDS_JSON = ({"p": 2, "tower": []}, {"p": 3, "tower": []},
               {"p": 2, "tower": [{"deg": 2, "modulus": [1, 1, 1]}]})
# the last value is a tower step over the degree cap
CATALOGUE = (None, False, True, *range(-1, 10), 1.5, "", "a", "b", "relax",
             [], [0], [[]], {}, {"p": 2}, [{"deg": 17, "modulus": [1] * 18}])


def base_documents():
    for field in FIELDS_JSON:
        for ground in (["a", "b"], []):
            matrix = {"rows": ground[:1], "cols": ground[1:], "entries": [[1]] if ground else []}
            doc = {"field": field, "matrix": matrix, "seed": 1}
            yield doc
            for task in ({"kind": "xfragile", "x": ground}, {"kind": "nfragile", "minor": matrix},
                         {"kind": "pipeline", "minor": matrix},
                         {"kind": "relax", "contract": ground[:1], "delete": ground[1:]}):
                yield {**doc, "task": task}


def one_edits(node):
    """Each copy of the JSON value `node` with one edit in it, at `node`
    or at any depth below; what is not on the edit's path is shared."""
    if isinstance(node, dict):
        places, added = list(node), [(key, None) for key in KEYS if key not in node]

        def put(key, value):
            return {**node, key: value}

        def drop(key):
            return {k: v for k, v in node.items() if k != key}
    elif isinstance(node, list):
        places, added = range(len(node)), [(len(node), value) for value in CATALOGUE]

        def put(i, value):
            return [*node[:i], value, *node[i + 1:]]

        def drop(i):
            return [*node[:i], *node[i + 1:]]
    else:
        return
    for place in places:
        yield drop(place)
        yield from (put(place, value) for value in CATALOGUE)
        yield from (put(place, edited) for edited in one_edits(node[place]))
    yield from (put(place, value) for place, value in added)


def test_parse_refuses_only_with_toolkit_errors():
    # a refusal of a parsed document locates what it refuses: its
    # message starts with the JSON path of a block or a value
    outcomes = Counter()
    for base in base_documents():
        for doc in one_edits(base):
            try:
                parse_instance(json.dumps(doc))
                outcomes["accepted"] += 1
            except (SchemaViolation, InvalidField, DegreeCap) as exc:
                assert str(exc).startswith("$"), exc
                outcomes[type(exc).__name__] += 1
    assert outcomes == {"accepted": 891, "SchemaViolation": 17336, "InvalidField": 1930,
                        "DegreeCap": 30}


def test_copies_and_pickles_rebuild_an_instance():
    A3 = LabeledMatrix(GF3, ["c"], ["d"], [[2]])
    # copies and pickles rebuild the record by its checked `__init__`
    inst = InstanceFile(GF3, A3, NFragileTask(ReprMatroid(A3)), 1)
    for twin in (copy.copy(inst), pickle.loads(pickle.dumps(inst))):
        assert serialize_instance(twin) == serialize_instance(inst)


def test_task_records_hold_sets_and_parse_back():
    # a task record holds frozensets, so it hashes and equals its parsed
    # copy; the record refuses a task label outside the matrix, or a
    # label both contracted and deleted, which is the check
    # parse_instance reports, so serialize_instance writes only
    # documents that parse back
    A = LabeledMatrix(GF2, ["a", "b"], ["c"], [[1], [0]])
    N = ReprMatroid(LabeledMatrix(GF2, ["a"], ["c"], [[1]]))
    for task in (XFragileTask(["a", "c", "a"]), RelaxTask(["a"], iter(["b"])),
                 NFragileTask(N), PipelineTask(N)):
        inst = InstanceFile(GF2, A, task, 3)
        assert parse_instance(json.dumps(serialize_instance(inst))) == inst
        assert len({inst, copy.copy(inst)}) == 1
    assert XFragileTask(["a", "c", "a"]).x == frozenset({"a", "c"})


# One bad document per value rule the constructors own, with the same
# content handed to the constructor directly: (document edits, the
# block's JSON path, the constructor call, the part of its message that
# locates the value).  The reader refuses with the block's path and the
# constructor's message: SchemaViolation for a matrix or task block, the
# constructor's InvalidField for the field block.
AB = LabeledMatrix(GF2, ["a"], ["b"], [[1]])


def over(p=2, tower=()):
    return {"field": {"p": p, "tower": [{"deg": d, "modulus": m} for d, m in tower]}}


def matrix(rows, cols, entries):
    return {"matrix": {"rows": rows, "cols": cols, "entries": entries}}


def minor(rows, cols, entries):
    return {"task": {"kind": "nfragile", "minor": {"rows": rows, "cols": cols, "entries": entries}}}


VALUE_RULES = {
    "entry-out-of-range": (matrix(["a"], ["b"], [[2]]), "$.matrix",
                           lambda: LabeledMatrix(GF2, ["a"], ["b"], [[2]]), "entry ('a', 'b')"),
    "entry-not-an-int": (matrix(["a"], ["b"], [[1.5]]), "$.matrix",
                         lambda: LabeledMatrix(GF2, ["a"], ["b"], [[1.5]]), "entry ('a', 'b')"),
    "entry-true": (matrix(["a", "c"], ["b"], [[0], [True]]), "$.matrix",
                   lambda: LabeledMatrix(GF2, ["a", "c"], ["b"], [[0], [True]]),
                   "entry ('c', 'b')"),
    "short-row": (matrix(["a", "c"], ["b", "d"], [[1, 0], [1]]), "$.matrix",
                  lambda: LabeledMatrix(GF2, ["a", "c"], ["b", "d"], [[1, 0], [1]]), "row 'c'"),
    "extra-row": (matrix(["a"], ["b"], [[1], [0]]), "$.matrix",
                  lambda: LabeledMatrix(GF2, ["a"], ["b"], [[1], [0]]), "1 entry rows, got 2"),
    "duplicate-label": (matrix(["a"], ["b", "a"], [[1, 0]]), "$.matrix",
                        lambda: LabeledMatrix(GF2, ["a"], ["b", "a"], [[1, 0]]), "['a']"),
    "minor-entry-out-of-range": (minor(["a"], ["b"], [[3]]), "$.task.minor",
                                 lambda: LabeledMatrix(GF2, ["a"], ["b"], [[3]]),
                                 "entry ('a', 'b')"),
    "task-label-outside": ({"task": {"kind": "xfragile", "x": ["a", "q"]}}, "$.task",
                           lambda: InstanceFile(GF2, AB, XFragileTask(["a", "q"])),
                           "task x: label 'q'"),
    "minor-label-outside": (minor(["q"], ["b"], [[0]]), "$.task",
                            lambda: InstanceFile(GF2, AB, NFragileTask(ReprMatroid(
                                LabeledMatrix(GF2, ["q"], ["b"], [[0]])))),
                            "task minor: label 'q'"),
    "contract-delete-overlap": ({"task": {"kind": "relax", "contract": ["a", "b"],
                                          "delete": ["b"]}}, "$.task",
                                lambda: RelaxTask(["a", "b"], ["b"]), "overlap: ['b']"),
    "p-not-an-int": (over(p="2"), "$.field", lambda: field_from_tower("2", []),
                     "characteristic '2'"),
    "deg-not-an-int": (over(tower=[(2.0, [1, 1, 1])]), "$.field",
                       lambda: field_from_tower(2, [(2.0, [1, 1, 1])]), "tower step 0: degree 2.0"),
    "coefficient-not-an-int": (over(tower=[(2, [1, 1, 1]), (2, [2, "1", 1])]), "$.field",
                               lambda: field_from_tower(2, [(2, [1, 1, 1]), (2, [2, "1", 1])]),
                               "tower step 1: modulus[1] = '1'"),
}


@pytest.mark.parametrize("case", sorted(VALUE_RULES))
def test_each_value_is_checked_once_by_its_constructor(case):
    edits, path, build, where = VALUE_RULES[case]
    doc = {**over(), **matrix(["a"], ["b"], [[1]]), **edits}
    with pytest.raises(ToolkitError) as direct:
        build()
    parsed_type = InvalidField if path == "$.field" else SchemaViolation
    with pytest.raises(parsed_type) as parsed:
        parse_instance(json.dumps(doc))
    assert str(parsed.value) == f"{path}: {direct.value}"
    assert where in str(direct.value)


# case -> (document, class, message): `parse_instance(document)` is
# refused with an error of the class whose message matches.  Every
# message but a JSON decoder's starts with the path of what it refuses
READER_REFUSALS = {
    **{f"task-{task['kind']}-unexpected-{stray}": (
        task_doc({**task, stray: []}), SchemaViolation, rf"^\$\.task: unexpected key '{stray}'$",
    ) for task in TASK_BLOCKS[::2]
        for stray in ("stray", *(k for k in ("x", "minor", "delete") if k not in task))},
    **{f"task-{task['kind']}-missing-{last}": (
        task_doc({k: v for k, v in task.items() if k != last}), SchemaViolation,
        rf"^\$\.task: missing key '{last}'$",
    ) for task in TASK_BLOCKS[::2] for last in [list(task)[-1]]},
    **{f"unknown-kind-{kind}": (
        task_doc({"kind": kind, "x": []}), SchemaViolation,
        rf"^\$\.task\.kind: unknown kind '{kind}'$",
    ) for kind in ("bogus", "", "Relax", "kind", "minor")},
    "malformed-json": ("{bad", MalformedJson, "line 1"),
    "too-deep": ("[" * 200000 + "]" * 200000, MalformedJson, "^maximum recursion depth"),
    "too-many-digits": ('{"seed": ' + "9" * 5000 + "}", MalformedJson, "^Exceeds the limit"),
    "not-an-object": ("[1]", SchemaViolation, r"\$: expected object"),
    "missing-matrix": ('{"field": {"p": 2, "tower": []}}', SchemaViolation,
                       r"\$: missing key 'matrix'"),
    "unexpected-key": (MINIMAL[:-1] + ', "extra": 1}', SchemaViolation, "unexpected key 'extra'"),
    "entry-true": (MINIMAL.replace("[[1]]", "[[true]]"), SchemaViolation,
                   r"^\$\.matrix: entry \('a', 'b'\): True is neither"),
    "entry-out-of-range": (MINIMAL.replace("[[1]]", "[[2]]"), SchemaViolation, "out of range"),
    "duplicate-labels": (MINIMAL.replace('["b"]', '["a"]'), SchemaViolation, r"\$\.matrix"),
    "kind-without-slots": (with_task('{"kind": "bogus"}'), SchemaViolation, r"\$\.task\.kind"),
    "x-outside-the-matrix": (with_task('{"kind": "xfragile", "x": ["q"]}'), SchemaViolation,
                             r"^\$\.task: task x: label 'q' not in the matrix$"),
    "minor-outside-the-matrix": (
        with_task('{"kind": "nfragile", "minor": {"rows": ["q"], "cols": [], "entries": [[]]}}'),
        SchemaViolation, r"^\$\.task: task minor: label 'q' not in the matrix$"),
    "relax-sides-overlap": (
        with_task('{"kind": "relax", "contract": ["a"], "delete": ["a"]}'), SchemaViolation,
        r"^\$\.task: contract and delete overlap: \['a'\]$"),
    "seed-a-string": (MINIMAL[:-1] + ', "seed": "x"}', SchemaViolation, r"\$\.seed"),
    # InstanceFile reads a seed of None as no seed, so the reader refuses null
    "seed-null": (MINIMAL[:-1] + ', "seed": null}', SchemaViolation,
                  r"^\$\.seed: expected integer, got NoneType$"),
    **{name: (json.dumps({**over(p, tower), **matrix([], [], [])}), cls, message)
       for name, p, tower, cls, message in (
        ("reducible-modulus", 2, [(2, [0, 0, 1])], InvalidField, r"\[0, 0, 1\] is reducible"),
        ("degree-one-step", 3, [(1, [1, 1])], InvalidField,
         r"^\$\.field: tower step 0: degree 1 invalid"),
        # GF(2^4) then a degree-5 step over it: total degree 20 > 16
        ("degree-cap", 2, [(4, [1, 1, 0, 0, 1]), (5, [1, 0, 0, 0, 0, 1])], DegreeCap,
         r"^\$\.field: tower step 1: total degree exceeds cap 16$"))},
}


def reader_refusal(case):
    """Parse the case's document, which must be refused with the case's
    class and message; returns the line of instances.py that raised."""
    document, cls, message = READER_REFUSALS[case]
    with pytest.raises(cls, match=message) as info:
        parse_instance(document)
    return [frame.lineno for frame in traceback.extract_tb(info.tb)
            if frame.filename == instances.__file__][-1]


@pytest.mark.parametrize("case", list(READER_REFUSALS))
def test_the_reader_refuses_each_document_of_the_table(case):
    reader_refusal(case)


def test_every_reader_refusal_refuses_a_row_of_the_table():
    # every `raise` of parse_instance and of the functions of
    # instances.py that it calls, directly or not, read off the syntax
    # tree, is the one that refuses some row
    sites = set(raise_sites(instances.__file__, {"parse_instance"}))
    refused = set(map(reader_refusal, READER_REFUSALS))
    assert refused == sites, f"raised by no row: {sorted(sites - refused)}"


# -- generation ---------------------------------------------------------------


def test_gen_is_deterministic():
    for kind in ("xfragile", "nfragile", "relax", "pipeline"):
        a = gen_random(kind, seed=11)
        b = gen_random(kind, seed=11)
        assert isinstance(a, GeneratedInstance)
        assert serialize_instance(a.instance) == serialize_instance(b.instance)
        assert a.rejections == b.rejections


def test_gen_xfragile_satisfies_predicate():
    for seed in range(6):
        gi = gen_random("xfragile", seed=seed, q=2, rows=2, cols=3, x_rows=1, x_cols=1)
        inst = gi.instance
        assert x_fragile_failure(inst.matrix, inst.task.x) is None
        assert inst.seed == seed


def test_gen_nfragile_satisfies_predicate():
    for seed in range(4):
        gi = gen_random("nfragile", seed=seed, q=2, rows=3, cols=3, minor_size=2)
        M = ReprMatroid(gi.instance.matrix)
        assert is_N_fragile(M, gi.instance.task.minor)


def test_gen_relax_shape():
    gi = gen_random("relax", seed=5, q=2, rows=2, cols=2)
    t = gi.instance.task
    assert isinstance(t, RelaxTask)
    rest = gi.instance.matrix.labels() - t.contract - t.delete
    assert len(rest) == 2
    assert gi.instance.matrix.enc("r0", "c0") == 0


@pytest.mark.parametrize("kind,args,error,message", SHAPE_REFUSALS)
def test_gen_refuses_a_shape_before_the_first_draw(monkeypatch, kind, args, error, message):
    # each shape that API_REFUSALS refuses is refused before the first draw
    monkeypatch.setattr(instances, "_draw_rows", None)
    with pytest.raises(error, match=f"^{message}$"):
        gen_random(kind, seed=0, **args)


NOT_INTS = ["a", True, False, 1.5, 2.0, None]


@pytest.mark.parametrize("value", NOT_INTS, ids=repr)
@pytest.mark.parametrize("kind,arg", [
    ("relax", "seed"), ("nfragile", "seed"), ("nfragile", "rows"), ("xfragile", "cols"),
    ("xfragile", "x_rows"), ("xfragile", "x_cols"), ("pipeline", "minor_size"),
    ("relax", "max_attempts"),
])
def test_gen_refuses_an_argument_that_is_not_an_int(monkeypatch, kind, arg, value):
    # a bool passes for 0 or 1 and a float or a string for a seed, and
    # each would reach the document as something parse_instance refuses;
    # the refusal comes before the first draw
    monkeypatch.setattr(instances, "_draw_rows", None)
    with pytest.raises(InvalidArgs, match=f"{arg} must be an int"):
        gen_random(kind, **{"seed": 0, arg: value})


LONGEST_SEED = 10 ** sys.get_int_max_str_digits() - 1


# either side of the C integer widths, and the longest seed a document
# can carry, long enough that `_check_seed` compares it with a power of ten
SEED_MAGNITUDES = {0: "0", 1: "1", 2**31 - 1: "(2**31-1)", 2**32: "2**32", 2**63: "2**63",
                   2**64 + 1: "(2**64+1)", 2**200: "2**200", LONGEST_SEED: "longest"}


@pytest.mark.parametrize("seed", sorted({sign * s for s in SEED_MAGNITUDES for sign in (1, -1)}),
                         ids=lambda s: "-" * (s < 0) + SEED_MAGNITUDES[abs(s)])
def test_every_accepted_seed_round_trips(seed):
    inst = gen_random("relax", seed=seed, rows=2, cols=2).instance
    assert inst.seed == seed
    assert parse_instance(json.dumps(serialize_instance(inst))) == inst


def test_empty_minor_of_nonempty_ground_is_refused(monkeypatch):
    # every partition realises the empty minor, so no draw could succeed;
    # the shape is refused before the first draw
    monkeypatch.setattr(instances, "_draw_rows", None)
    for kind in ("nfragile", "pipeline"):
        with pytest.raises(InvalidArgs, match="empty minor"):
            gen_random(kind, seed=25, q=2, rows=3, cols=4, minor_size=0)
    monkeypatch.undo()
    # on the empty ground set the one partition is unique
    gi = gen_random("pipeline", seed=0, rows=0, cols=0, minor_size=0)
    assert gi.rejections == 0
    assert gi.instance.task.minor.ground == frozenset()


def witness_draws(monkeypatch, events, kind, **kwargs):
    """gen_random(kind, **kwargs) with each witness verdict logged to
    `events`, which the caller's watches fill too, as a ("witness", moved
    label or None) pair.  The witness runs once per draw, first, so the
    log splits into draws that each open with their verdict; returns the
    draw's result and that split."""
    witness = instances._one_move

    def logged_witness(*display_and_sides):
        moved = witness(*display_and_sides)
        events.append(("witness", moved))
        return moved

    events.clear()
    with monkeypatch.context() as m:
        m.setattr(instances, "_one_move", logged_witness)
        gi = gen_random(kind, **kwargs)
    starts = [i for i, e in enumerate(events) if isinstance(e, tuple)]
    assert starts[:1] == [0] and len(starts) == gi.rejections + 1
    return gi, [events[i:j] for i, j in zip(starts, starts[1:] + [len(events)])]


def test_rejected_draws_build_no_matrix(monkeypatch):
    # the witness runs on each draw's rows, before anything is built; a
    # draw it rejects builds no LabeledMatrix, and one it passes is built
    # once and then checked: by x_fragile_failure, which builds none, or
    # by the partition search, which builds minors and displays
    events = []
    watch(monkeypatch, (LabeledMatrix, "_of_display"), events, key=lambda cls, *args: "matrix")
    for kind, shape in (("xfragile", dict(rows=4, cols=5, x_rows=2, x_cols=2)),
                        ("relax", dict(rows=3, cols=3)),
                        ("nfragile", dict(rows=4, cols=4, minor_size=3)),
                        ("pipeline", dict(rows=3, cols=4, minor_size=3))):
        _, draws = witness_draws(monkeypatch, events, kind, seed=5, q=2, **shape)
        for (_, moved), *rest in draws:
            if moved is not None:
                assert rest == []
            elif kind in ("xfragile", "relax"):
                assert rest == ["matrix"]
            else:
                assert rest[:1] == ["matrix"]
        assert sum(1 for (_, moved), *_ in draws if moved) > 0, kind


def test_serialized_sets_are_sorted_lists():
    gi = gen_random("xfragile", seed=1, q=2, rows=2, cols=2, x_rows=1, x_cols=1)
    obj = serialize_instance(gi.instance)
    assert obj["task"]["x"] == sorted(obj["task"]["x"])
    assert isinstance(gi.instance, InstanceFile)


# Rejection counts and sha256 of the sorted-key JSON of
# serialize_instance, recorded with the full partition search deciding
# every draw; None, None where the draws run out (Exhausted).
PINNED_DRAWS = [
    ("relax", {"q": 2, "rows": 3, "cols": 3}, 1, 10,
     "e20905122c502d066d97f0bd3935f91fb3cab85ee0e6978624ff1d1a14258093"),
    ("relax", {"q": 2, "rows": 4, "cols": 4}, 2, 92,
     "93766dedb6c2389538224aaa3260de4ed780ae9c6bd9883446ed1cef3a7df81f"),
    ("relax", {"q": 3, "rows": 3, "cols": 3}, 3, 5,
     "2e046d91953d6c2ad754782f7bbf18e09fa0fdf3ca5d15bbb31dac19cba414d4"),
    ("relax", {"q": 4, "rows": 2, "cols": 3}, 4, 2,
     "0182e423c0f1c1b609de1d7fbcb80020d48d91a9299e517f186c8c5056537304"),
    ("relax", {"q": 2, "rows": 3, "cols": 4}, 21, 67,
     "d94554c54adce4896695a9c0137d9ac730365e75a2684c1102bb3fdf8bbc5f9e"),
    ("nfragile", {"q": 2, "rows": 3, "cols": 3, "minor_size": 2}, 5, 26,
     "e9b1f7f0c90c34e124be15bde3e3c88a3537380f2401fdb35955a5fddc797b61"),
    ("nfragile", {"q": 3, "rows": 3, "cols": 3, "minor_size": 3}, 6, 1,
     "ae3990753f1214dac1a10e4ea5abc78d1ba63cf44362633a128f67c93c72eb2f"),
    ("nfragile", {"q": 2, "rows": 4, "cols": 4, "minor_size": 3}, 24, 39,
     "8a9454c0e2259783a082d4a7da81c008cf989abf153bd9ac6a80b8b7b4437d55"),
    ("nfragile", {"q": 3, "rows": 2, "cols": 2, "minor_size": 4}, 26, 0,
     "5bc3de7e16dfe106da8013941120b691eb9f6ae3588a81e044a61857bff2b752"),
    ("pipeline", {"q": 2, "rows": 4, "cols": 4, "minor_size": 3}, 8, 55,
     "e0d8491c06ff8bd44ea4f61591b3365e8bddb5286c83dc5c0a538482699acf34"),
    ("pipeline", {"q": 3, "rows": 3, "cols": 4, "minor_size": 3}, 9, 7,
     "61bfb86e1aa3e07c815c0a1b030a5468f70721c96f2cabafa8febd5ad54d8224"),
    ("pipeline", {"q": 2, "rows": 4, "cols": 5, "minor_size": 3}, 27, 84,
     "bb43006d225ed29684da7e9cb94b8a3ba2c824eb4bb5d2cf2e21ad161aa362b8"),
    ("pipeline", {"q": 4, "rows": 3, "cols": 3, "minor_size": 2}, 28, 12,
     "79a3e06b51c9a084152045fcc45a2129876aa167c7dd789dfb5a32c0d8e8bce0"),
    ("relax", {"q": 2, "rows": 5, "cols": 5, "max_attempts": 60}, 11, None, None),
    ("xfragile", {"q": 2, "rows": 3, "cols": 3, "x_rows": 1, "x_cols": 1}, 12, 26,
     "1eb75fba72e33d24863da783ae0a409dc4db2f9c9762fa734b7311153a5320a9"),
    ("xfragile", {"q": 3, "rows": 3, "cols": 4, "x_rows": 2, "x_cols": 1}, 13, 1,
     "4c5444d13c4bf61920706f40656f5fd6e5b7f868991211a81c3579c414e9e02d"),
    ("xfragile", {"q": 4, "rows": 3, "cols": 3, "x_rows": 1, "x_cols": 2}, 15, 1,
     "4760eee2e4dd622df66706f7ac84f8d4c232d1cab6a3b48bddcae68e1ddbbcbb"),
    ("xfragile", {"q": 2, "rows": 4, "cols": 4, "x_rows": 1, "x_cols": 1}, 20, 510,
     "ab8124156be1a7a006069bf67e7cd98cd31e0344f87ac08a198328191ccde43e"),
    ("xfragile", {"q": 2, "rows": 3, "cols": 5, "x_rows": 3, "x_cols": 0}, 21, 3,
     "afd053ab66c11dea806f4fce2af5f7f63781ce837820470c4c5cb7532f262aee"),
    ("xfragile", {"q": 2, "rows": 5, "cols": 2, "x_rows": 0, "x_cols": 2}, 29, 1,
     "9120c7a0dbab04d599c70106ab19734beadd2e9664f88870f0d920e25db4e996"),
    ("xfragile", {"q": 2, "rows": 1, "cols": 2, "x_rows": 0, "x_cols": 1,
                  "max_attempts": 50}, 18, None, None),
]


# Every distinct shape of one block of the generate benchmark's
# catalogue, the suites' shapes with at most four elements outside the
# minor, copied here as data: each at its own seed, with its rejection
# count and the sha256 of the sorted-key JSON of serialize_instance,
# recorded while the witness still ran on a built LabeledMatrix.
CATALOGUE_DRAWS = [
    ("relax", {"q": 2, "rows": 2, "cols": 2}, 1000, 5,
     "f8d88b6b91da79111182d726a05188fd093a7abc1764b2bda3a4ebab90ee024d"),
    ("relax", {"q": 2, "rows": 2, "cols": 3}, 1001, 19,
     "06d14866b3c84d5fd3b569bef9256a023ae10b7d7b8db10a1e2eb575cd8174ee"),
    ("relax", {"q": 2, "rows": 2, "cols": 4}, 1002, 7,
     "edb5cb04a0ed9235d2cc211890614f33325b9130823df60686d79b27290957d0"),
    ("relax", {"q": 2, "rows": 3, "cols": 2}, 1003, 10,
     "acce0217a5b7e56ef7d2f9068af66bf68b01a8f30d5a5933da065dbbf3476ce0"),
    ("relax", {"q": 2, "rows": 3, "cols": 3}, 1004, 6,
     "8acccc375af861c16e0f4b973bab27d256c233b2031d59994e35e835a1692b90"),
    ("relax", {"q": 2, "rows": 4, "cols": 2}, 1005, 0,
     "f0ed46560d5218ff1e190e1d3ce543faee6b65dc5bdeaa50e88162999ed2ad4f"),
    ("relax", {"q": 3, "rows": 2, "cols": 2}, 1006, 9,
     "5fd35eea17c4796f21fba6a88dbd20beebf1bf9508bc8be65b05cb2eadf8d99d"),
    ("relax", {"q": 3, "rows": 2, "cols": 3}, 1007, 5,
     "4d1164f3614922108d0c2a75a2173c2a3d6d58ee3806a1fe018bcc520b965020"),
    ("relax", {"q": 3, "rows": 2, "cols": 4}, 1008, 5,
     "06df0e7eb387733e45bbe7fc0c9f74e69a15962471741f5f1ad9aeb2c3a5455e"),
    ("relax", {"q": 3, "rows": 3, "cols": 2}, 1009, 4,
     "f1f077d67fcea789ef239fb89d02387351f0ce4fd23de683ea110eba128c6324"),
    ("relax", {"q": 3, "rows": 3, "cols": 3}, 1010, 2,
     "d83e15fd2a31d3dfc030839fa67b84c135bafdca31750b142e5f3288916b6385"),
    ("relax", {"q": 3, "rows": 4, "cols": 2}, 1011, 4,
     "7cbc5ed1f40a2949f3e335d8c97482b4e5028ff73176fcdfbf6add05bb004996"),
    ("nfragile", {"q": 2, "rows": 1, "cols": 1, "minor_size": 1}, 1012, 0,
     "850f0fd3678aebc2b288783bf3d835cd660ec76f0cc37c14afbacf81116ecf99"),
    ("nfragile", {"q": 2, "rows": 1, "cols": 1, "minor_size": 2}, 1013, 0,
     "195108f83a8de3f3024c6c4495fefcf019a76715952889f2f44180149d31b5ef"),
    ("nfragile", {"q": 2, "rows": 1, "cols": 2, "minor_size": 1}, 1014, 53,
     "fa704899f4a0769c847561d3272d482443cf3a0ee28bfaa40c36b3fbabe61d8b"),
    ("nfragile", {"q": 2, "rows": 1, "cols": 2, "minor_size": 2}, 1015, 1,
     "99535f5401ff633f0d8cb039ed0b46445d9e899920234a88e8387a1b881b2c87"),
    ("nfragile", {"q": 2, "rows": 1, "cols": 2, "minor_size": 3}, 1016, 0,
     "17bebdf7541ea39922f241b2b0f3b0adec3acfd71573f9061730cd1890bca6ca"),
    ("nfragile", {"q": 2, "rows": 1, "cols": 3, "minor_size": 1}, 1017, 112,
     "5c6e8c3770649e13925dffb0d7cdc2f210443353b6fdf2dd710aae5c154e64bb"),
    ("nfragile", {"q": 2, "rows": 1, "cols": 3, "minor_size": 2}, 1018, 4,
     "f13a690cf37e7984899645daaa6cc99e6d235852707230c5a9067f90978bf451"),
    ("nfragile", {"q": 2, "rows": 1, "cols": 3, "minor_size": 3}, 1019, 2,
     "c30d40c6e8d76ff4e8a05dc10cde923b3533f4f60b976a6c641ca664e37013fa"),
    ("nfragile", {"q": 2, "rows": 1, "cols": 4, "minor_size": 1}, 1020, 207,
     "e9b015c3fe42b7e416e401d27d0df2224ac834941fd8469f44f167c950c0b1ae"),
    ("nfragile", {"q": 2, "rows": 1, "cols": 4, "minor_size": 2}, 1021, 127,
     "3cc987248da80defcb1f40ef216558453f359d0c8ca5f93b149634e844d4ea0c"),
    ("nfragile", {"q": 2, "rows": 1, "cols": 4, "minor_size": 3}, 1022, 22,
     "f733ec1c29202ad236c2169085ed13dfb1cf10c7151f985aeda1cf3ccd24b4ea"),
    ("nfragile", {"q": 2, "rows": 2, "cols": 1, "minor_size": 1}, 1023, 12,
     "f3ce1e2e1bdb439209d049bb1e0bde93be317249a7cec32cc767fae19df2ea37"),
    ("nfragile", {"q": 2, "rows": 2, "cols": 1, "minor_size": 2}, 1024, 0,
     "c3c20c2a734d1880650626c2c3edb3ac21bc2297cbe638c0076ef1e9112f3c4e"),
    ("nfragile", {"q": 2, "rows": 2, "cols": 1, "minor_size": 3}, 1025, 0,
     "eddaa90642c9b35eea5bbe3cc01bd6d040a7ec9238ad839001c2a9549657298a"),
    ("nfragile", {"q": 2, "rows": 2, "cols": 2, "minor_size": 2}, 1026, 0,
     "d0c87202e3adc9cba05b8c8d3d0a8016299e65386a49d896365d738115c8eeb6"),
    ("nfragile", {"q": 2, "rows": 2, "cols": 2, "minor_size": 3}, 1027, 1,
     "629396adc4a0949e9d93f155db1b4689801b165cabef27c7bc10f760e9c92a53"),
    ("nfragile", {"q": 2, "rows": 2, "cols": 3, "minor_size": 2}, 1028, 36,
     "92ce943395a1a601df6fcba0fe899a2f4862ae986c4e22ff2bea5ab594d174b0"),
    ("nfragile", {"q": 2, "rows": 2, "cols": 3, "minor_size": 3}, 1029, 0,
     "dc5b514b2f71e6177653d0740d530c4cdac53738b961d7dab553f105d8632f0f"),
    ("nfragile", {"q": 2, "rows": 2, "cols": 4, "minor_size": 2}, 1030, 7,
     "6a828885494b3d099b316859fce4eb163ed1d3e9e1ff98766b4fd54f8a1ee696"),
    ("nfragile", {"q": 2, "rows": 2, "cols": 4, "minor_size": 3}, 1031, 4,
     "21dab0de0af2388b447e775e5132b28602d6cc4d9abf8a335f7f39d5e68c5625"),
    ("nfragile", {"q": 2, "rows": 3, "cols": 1, "minor_size": 1}, 1032, 123,
     "c99497359003d4e335ceb54543d485d3ebba746bc28a35166e3a79e82c795300"),
    ("nfragile", {"q": 2, "rows": 3, "cols": 1, "minor_size": 2}, 1033, 4,
     "1dfe01ea46b81a4836cd2afd8b7cccbf2920d121b7a91f59246986ea3fb4bd24"),
    ("nfragile", {"q": 2, "rows": 3, "cols": 1, "minor_size": 3}, 1034, 2,
     "43d954f1df7f9aeb7fb37fe8c256e4fe628ddff073492ab029faefd59826c14b"),
    ("nfragile", {"q": 2, "rows": 3, "cols": 2, "minor_size": 2}, 1035, 44,
     "ef9dfc4b80c8e49a89473cf5ffc32c9a518f5788b2bbc06aee126af2663e799f"),
    ("nfragile", {"q": 2, "rows": 3, "cols": 2, "minor_size": 3}, 1036, 0,
     "87aaeaeb58dcc38578c1f33ea3ef508bd27abc9f220d60d03534360100d9b5ee"),
    ("nfragile", {"q": 2, "rows": 3, "cols": 3, "minor_size": 2}, 1037, 15,
     "adbcc72c5db7f7c80e9d952ecf071200cad2e298579fd4d07db7479b30869458"),
    ("nfragile", {"q": 2, "rows": 3, "cols": 3, "minor_size": 3}, 1038, 1,
     "89b368497815a48ad0df4f27da1c8ed8be1ea76d1f8ba94a7743e9cb561193de"),
    ("nfragile", {"q": 2, "rows": 3, "cols": 4, "minor_size": 3}, 1039, 20,
     "acc1f67493609ed613b3e6e45bc4649cd8af5e638983020ca543b1e468eae041"),
    ("nfragile", {"q": 2, "rows": 4, "cols": 1, "minor_size": 1}, 1040, 132,
     "650c7c6b22494b652a026d0392f115bbd41a1eb713bb92b093ef54643f66dfcd"),
    ("nfragile", {"q": 2, "rows": 4, "cols": 1, "minor_size": 2}, 1041, 61,
     "9dd5192a6d5f9e8345e5a84b4d32b2f55f8080d6661ba432e952ab275638a5ab"),
    ("nfragile", {"q": 2, "rows": 4, "cols": 1, "minor_size": 3}, 1042, 9,
     "73c8b8902b3391c1b84cee0b349aa4dab7464f60b596721ef375b9f871a55eaa"),
    ("nfragile", {"q": 2, "rows": 4, "cols": 2, "minor_size": 2}, 1043, 80,
     "05cd691ccaf4e18fa2ab9dc036a6c4bcb899ed62d9227dda7766fec9d73e9ddd"),
    ("nfragile", {"q": 2, "rows": 4, "cols": 2, "minor_size": 3}, 1044, 5,
     "43a5fc0ac248543d68dc8b9b59a3a7c60ef5eac32655f1f105b45f83282998e8"),
    ("nfragile", {"q": 2, "rows": 4, "cols": 3, "minor_size": 3}, 1045, 3,
     "a0c5aedc0763aba5d5958479ae636519c50e205261b5d5c1bafb95071cc1240f"),
    ("nfragile", {"q": 3, "rows": 1, "cols": 1, "minor_size": 1}, 1046, 0,
     "a239ff86f039d77f2f1ee7fcadc3b9bea0ae5fec01f48a3ed8047b35c5ed297a"),
    ("nfragile", {"q": 3, "rows": 1, "cols": 1, "minor_size": 2}, 1047, 0,
     "66b0add188ad45885330c238f643fc5d5965abe881e6431e4bd230c6474858e6"),
    ("nfragile", {"q": 3, "rows": 1, "cols": 2, "minor_size": 1}, 1048, 15,
     "989a9b264c3681f5c5119c0c4f9ff3f7b40981d147408795bf4ab2dbb102e070"),
    ("nfragile", {"q": 3, "rows": 1, "cols": 2, "minor_size": 2}, 1049, 0,
     "45dc87ed58d5b333a108fb39ef5774974c4004cc9e25467ee01a1c24c706e387"),
    ("nfragile", {"q": 3, "rows": 1, "cols": 2, "minor_size": 3}, 1050, 0,
     "3e09e445b6da7b4f2e6225adcd91a9251236294e5904cf009eb46fd592642f94"),
    ("nfragile", {"q": 3, "rows": 1, "cols": 3, "minor_size": 1}, 1051, 85,
     "239ded208ea680fcd7c020caa463357dbf4922ce1344b58c8db49c7b91633109"),
    ("nfragile", {"q": 3, "rows": 1, "cols": 3, "minor_size": 2}, 1052, 15,
     "549d11091d1fb3bb2eae089367561c609de55f7f1a8bb417a5ec4dcded81542d"),
    ("nfragile", {"q": 3, "rows": 1, "cols": 3, "minor_size": 3}, 1053, 0,
     "2292879f1a090524226f54bf4fd119dab1179af1cc9be7433205a9259f2f717f"),
    ("nfragile", {"q": 3, "rows": 1, "cols": 4, "minor_size": 1}, 1054, 141,
     "443100080f3117accba4dda7129ec2d2b4cd2162688c3c06f65bc2c3bd25aef3"),
    ("nfragile", {"q": 3, "rows": 1, "cols": 4, "minor_size": 2}, 1055, 4,
     "19763f96c1ea4f67952ee1a8129c8916bce10984ef0000990104f6d5231599da"),
    ("nfragile", {"q": 3, "rows": 1, "cols": 4, "minor_size": 3}, 1056, 1,
     "169dd3ca0517bd408d961fde636200f1ca478030b7f4aa4dcd7811dee0fad5c0"),
    ("nfragile", {"q": 3, "rows": 2, "cols": 1, "minor_size": 1}, 1057, 3,
     "3c972147452fd3a97509f8115b8108ff5e280c40b6136df9314a808d900fb4e0"),
    ("nfragile", {"q": 3, "rows": 2, "cols": 1, "minor_size": 2}, 1058, 0,
     "3ae2ec4c7f0012e7dc4c64a4e189d8a2239756f14408c9add1b6971a0afc754f"),
    ("nfragile", {"q": 3, "rows": 2, "cols": 1, "minor_size": 3}, 1059, 0,
     "ccdea025d96bc49803b1c3ce8306b2f115303b83e753aed31c9774658fbe5273"),
    ("nfragile", {"q": 3, "rows": 2, "cols": 2, "minor_size": 2}, 1060, 1,
     "64e4df215b4b3aa5a2b1ed033ce1de6496a0045991f3acbb96301bf3e31d7e70"),
    ("nfragile", {"q": 3, "rows": 2, "cols": 2, "minor_size": 3}, 1061, 0,
     "4a1864fd1adb69331a0ea9c22a7353f56b14546c9aaa3db8d2e3656ceb1b280a"),
    ("nfragile", {"q": 3, "rows": 2, "cols": 3, "minor_size": 2}, 1062, 0,
     "24133b8174c0a1c0713834319c0df80406b631fffcf2aec9c323c652b5aea3a8"),
    ("nfragile", {"q": 3, "rows": 2, "cols": 3, "minor_size": 3}, 1063, 0,
     "0494a7f1c6e6f489e602d7f6370a1f4e80a37c6595cc93c20556177fe5263515"),
    ("nfragile", {"q": 3, "rows": 2, "cols": 4, "minor_size": 2}, 1064, 18,
     "5333d6399abd5e2ad61435bab037d78f0f65971e92a3bb91bad3ca192e903f41"),
    ("nfragile", {"q": 3, "rows": 2, "cols": 4, "minor_size": 3}, 1065, 3,
     "f960acda2eb16322965cc0c3c423b5a6c154e9fb73868c986dede99b0f33874d"),
    ("nfragile", {"q": 3, "rows": 3, "cols": 1, "minor_size": 1}, 1066, 9,
     "0b11c6f2b1bf246be16f70f13c55461cf685388beb1edd919295d6b44cc2682c"),
    ("nfragile", {"q": 3, "rows": 3, "cols": 1, "minor_size": 2}, 1067, 13,
     "a8c2fa3c6bdb4c9d83a5a3920ea2c56ce36a1b7281e93d9ccdf7925be2a3ebed"),
    ("nfragile", {"q": 3, "rows": 3, "cols": 1, "minor_size": 3}, 1068, 0,
     "6360f93416ae5a7f8f6201c3af8f04a898a2a83e9f112c40bc68dba7fb218e01"),
    ("nfragile", {"q": 3, "rows": 3, "cols": 2, "minor_size": 2}, 1069, 1,
     "05232906fe798512b6a764d228edd8d2fe57b2899420cc8cd574fe45a10e91e2"),
    ("nfragile", {"q": 3, "rows": 3, "cols": 2, "minor_size": 3}, 1070, 0,
     "29a9d2e47ee222cf80a2827ecd5301bd43bb9558c8b4ea11931d8297e65a6b69"),
    ("nfragile", {"q": 3, "rows": 3, "cols": 3, "minor_size": 2}, 1071, 29,
     "660b678ef1becb58ef71b72c403fe4d4b4e72af288f7444277e1daaee1e587cd"),
    ("nfragile", {"q": 3, "rows": 3, "cols": 3, "minor_size": 3}, 1072, 0,
     "ea0b33ed10c4e6b4759ccfc1505a3aa71504d472a017feb1e1515b9395e7f6bd"),
    ("nfragile", {"q": 3, "rows": 3, "cols": 4, "minor_size": 3}, 1073, 3,
     "3adafb39542af199879973c2a3d36c31301e0c20a8dd9b0957c2113effe99d0c"),
    ("nfragile", {"q": 3, "rows": 4, "cols": 1, "minor_size": 1}, 1074, 56,
     "b8e4dfc51428512e9d7ce0aa67d94fd65b8a07e00fff50e8a919ecf6588b3f32"),
    ("nfragile", {"q": 3, "rows": 4, "cols": 1, "minor_size": 2}, 1075, 31,
     "efd8d6770dbe9fa50fc32909936e41290d63c0aee120f58ae9b0502144a7113b"),
    ("nfragile", {"q": 3, "rows": 4, "cols": 1, "minor_size": 3}, 1076, 1,
     "b3532fe79beb821325a22ff3b60874a3da6791afe46ed4a7663185f3bed212fa"),
    ("nfragile", {"q": 3, "rows": 4, "cols": 2, "minor_size": 2}, 1077, 0,
     "ac4ad5dbc54632093f6fba46107cd2251594940271fb6c00b7d73c7d5145b5b9"),
    ("nfragile", {"q": 3, "rows": 4, "cols": 2, "minor_size": 3}, 1078, 4,
     "9d2c4df24355209ea9b1dbf40e63430bffc7a033e57f86d0d7bd81ac3fd92b46"),
    ("nfragile", {"q": 3, "rows": 4, "cols": 3, "minor_size": 3}, 1079, 0,
     "49d5a86d50f98f175778297e5c366a461dc78ab38453e0840fb36bb912453cfc"),
    ("pipeline", {"q": 2, "rows": 1, "cols": 2, "minor_size": 2}, 1080, 0,
     "f2d9ff214a564edffe615af1217642352acf578263006f83a3d398d06b9300fd"),
    ("pipeline", {"q": 2, "rows": 1, "cols": 3, "minor_size": 2}, 1081, 4,
     "3e1d6aba8d6c35945d76b5b800afbdcf1150ae58b5a22ba0e089cd62f352569a"),
    ("pipeline", {"q": 2, "rows": 1, "cols": 4, "minor_size": 2}, 1082, 107,
     "fadcd131bcd1d537e1e46f2417eaa59d8d6a7f5a691bb36d9e51427f4106d1c3"),
    ("pipeline", {"q": 2, "rows": 2, "cols": 1, "minor_size": 2}, 1083, 0,
     "77445d7b2d33e3100f43b55b266c00698041bbb2ab2c3962496dcdf639c3dc3e"),
    ("pipeline", {"q": 2, "rows": 2, "cols": 2, "minor_size": 2}, 1084, 1,
     "1b58eb8108781016484b8f19246a47bcb731c275413e98527246548b88b64d02"),
    ("pipeline", {"q": 2, "rows": 2, "cols": 3, "minor_size": 2}, 1085, 14,
     "829328809be385ec49f9a32d2fc11ff20aa065ee521881eed9f5c294cd80b522"),
    ("pipeline", {"q": 2, "rows": 2, "cols": 4, "minor_size": 2}, 1086, 11,
     "82ecebfbf9332c5fe70534aef4a521dc2870c4bd79ffbf2afbad600100f3d731"),
    ("pipeline", {"q": 2, "rows": 3, "cols": 1, "minor_size": 2}, 1087, 8,
     "b888d45ae7f37010e6004b540110c103ce99c0c4825a727d7a4526c60275418f"),
    ("pipeline", {"q": 2, "rows": 3, "cols": 2, "minor_size": 2}, 1088, 3,
     "7d2e5e3b4aa6e8a9e6bf6829f27bb3149541544afcdd5f6c31fc26a911c3fb5f"),
    ("pipeline", {"q": 2, "rows": 3, "cols": 3, "minor_size": 2}, 1089, 37,
     "d6454f80ead4c72bc89182e80eee00f9fef770ccabab74de6d47422bd28e9f76"),
    ("pipeline", {"q": 2, "rows": 4, "cols": 1, "minor_size": 2}, 1090, 8,
     "82a83ae1069d0cbcac4a4096fdafd8858da16fbaff733844b86ba6064f9b0947"),
    ("pipeline", {"q": 2, "rows": 4, "cols": 2, "minor_size": 2}, 1091, 10,
     "d161461522643883e5d02af9b52a02a5957374af220e4071b9ef9f44ee3c8635"),
    ("pipeline", {"q": 2, "rows": 1, "cols": 3, "minor_size": 3}, 1092, 0,
     "caa7c934af5e244caa2a0bbff3a4cf0bc33cf1f278bab55b6889e11a2a39d585"),
    ("pipeline", {"q": 2, "rows": 1, "cols": 4, "minor_size": 3}, 1093, 0,
     "e02398480369176dc7c4bbb88c5fbf3fd8cb731f47c9faeab8b17079a9a7a0f0"),
    ("pipeline", {"q": 2, "rows": 2, "cols": 2, "minor_size": 3}, 1094, 0,
     "0135f022afb4870bba21cfb9519b49b6b86fe15b77e8dc0c2581580b6bf00ab2"),
    ("pipeline", {"q": 2, "rows": 2, "cols": 3, "minor_size": 3}, 1095, 1,
     "d6f393b6e26d5f3dfc7f169799d619f9c2d0fadfa96d17124a40c8329ca73e5d"),
    ("pipeline", {"q": 2, "rows": 2, "cols": 4, "minor_size": 3}, 1096, 8,
     "17a412de9816dcd9e3a69bd8f06df2c1dd36f13bf17470d35172e25a578e1cb5"),
    ("pipeline", {"q": 2, "rows": 3, "cols": 1, "minor_size": 3}, 1097, 0,
     "02d1e46ac552147ad9ce2aa6c5b7b2de3eb513ab813f01d94e72244b8e249af6"),
    ("pipeline", {"q": 2, "rows": 3, "cols": 2, "minor_size": 3}, 1098, 3,
     "df000f6013fa7a9a043595cb9be8d8d1f50936c04b7f41541e87beb08883d61e"),
    ("pipeline", {"q": 2, "rows": 3, "cols": 3, "minor_size": 3}, 1099, 1,
     "5c026a21796ca4f67f4d47e0dfd69aa90fcbb2405292ad9679d4d240d1cfb781"),
    ("pipeline", {"q": 2, "rows": 3, "cols": 4, "minor_size": 3}, 1100, 10,
     "5b3798d936514886a3c4cad0b1b9b9c92914d1d6791862f3aa2b689c6457c26c"),
    ("pipeline", {"q": 2, "rows": 4, "cols": 1, "minor_size": 3}, 1101, 6,
     "bbd89cfb5c564c7268d892ebe7720e8c41c7c31cd45fc3ceecfea64ea5ebb214"),
    ("pipeline", {"q": 2, "rows": 4, "cols": 2, "minor_size": 3}, 1102, 4,
     "2aad9e884605968feee377126cce99c44b9b15e1aed13d6c0ea82f2dafdfc4a7"),
    ("pipeline", {"q": 2, "rows": 4, "cols": 3, "minor_size": 3}, 1103, 0,
     "ba511334280f654977b11b8ba5da81294bfe51bba482cc16136fc5de8decfa37"),
]


@pytest.mark.parametrize("kind,shape,seed,rejections,digest", PINNED_DRAWS + CATALOGUE_DRAWS)
def test_pinned_draws_are_unchanged(kind, shape, seed, rejections, digest):
    if rejections is None:
        with pytest.raises(Exhausted):
            gen_random(kind, seed=seed, **shape)
        return
    gi = gen_random(kind, seed=seed, **shape)
    text = json.dumps(serialize_instance(gi.instance), sort_keys=True)
    assert (gi.rejections, hashlib.sha256(text.encode()).hexdigest()) == (
        rejections, digest)


@pytest.mark.parametrize("kind,shape,seed,rejections", [
    ("pipeline", {"q": 2, "rows": 4, "cols": 4, "minor_size": 3}, 8, 55),
    ("relax", {"q": 2, "rows": 4, "cols": 4}, 2, 92),
    ("xfragile", {"q": 2, "rows": 3, "cols": 3, "x_rows": 1, "x_cols": 1}, 12, 26),
])
def test_witness_rejected_draws_build_no_minor_and_no_table(
        monkeypatch, kind, shape, seed, rejections):
    # one event list: each draw starts with the witness's verdict, a
    # ("witness", moved label or None) pair, and only a draw it cannot
    # reject goes on to build a matroid, tables (and a minor)
    events = []
    watch(monkeypatch, matrices.rank_table, events)
    watch(monkeypatch, (ReprMatroid, "minor"), events)
    watch(monkeypatch, (ReprMatroid, "__init__"), events, key=lambda self, rep: "matroid")
    gi, draws = witness_draws(monkeypatch, events, kind, seed=seed, **shape)
    assert gi.rejections == rejections
    # a cut minor N (the matroid M, then `minor` building N) goes to the
    # pruned partition search, which builds no table over GF(2): each
    # leaf re-displayed on N's basis is decided by its display; a zeroed
    # block is accepted by x_fragile_failure, which reads the tables of
    # M/Xc and M/Xr straight off the display and builds no matroid
    full = (["matroid", "minor", "matroid"] if kind == "pipeline"
            else ["rank_table", "rank_table"])
    for (_, moved), *rest in draws:
        assert rest == ([] if moved else full)
    caught = sum(1 for draw in draws if draw[0][1])
    assert caught >= rejections * 3 // 4, caught


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("kind,shape", [
    ("xfragile", {"rows": 4, "cols": 4, "x_rows": 1, "x_cols": 2}),
    ("relax", {"rows": 3, "cols": 4}),
    ("nfragile", {"rows": 4, "cols": 4, "minor_size": 3}),
    ("pipeline", {"rows": 3, "cols": 4, "minor_size": 3}),
])
def test_witness_rejects_only_what_the_full_search_rejects(monkeypatch, kind, shape, q):
    # with the witness switched off every draw goes to the full search;
    # the same instance and rejection count show that each draw the
    # witness rejects is one the full search rejects too
    rejected = 0
    for seed in range(4):
        with_witness = gen_random(kind, seed=seed, q=q, **shape)
        calls = []

        def no_witness(*display_and_sides):
            calls.append(display_and_sides)
            return None

        monkeypatch.setattr(instances, "_one_move", no_witness)
        without = gen_random(kind, seed=seed, q=q, **shape)
        monkeypatch.undo()
        assert len(calls) == without.rejections + 1
        assert without.rejections == with_witness.rejections
        assert serialize_instance(without.instance) == serialize_instance(with_witness.instance)
        rejected += with_witness.rejections
    assert rejected > 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 27])
def test_random_matrix_draws_one_randrange_per_entry(q):
    # the same entries in row-major order and the same generator state
    # after them as one randrange(q) per entry, the X block, where there
    # is one, drawn by `_draw_rows` and then zeroed; empty shapes draw
    # nothing
    field = field_of_order(q)
    shapes = [(0, 0, 0, 0), (0, 3, 0, 0), (3, 0, 0, 0), (3, 0, 2, 0), (1, 1, 0, 0),
              (1, 1, 1, 1), (3, 4, 0, 0), (3, 4, 2, 3), (4, 2, 4, 2), (2, 5, 1, 0),
              (5, 5, 1, 1)]
    for seed, (m, n, x_rows, x_cols) in enumerate(shapes):
        rows, cols = [f"r{i}" for i in range(m)], [f"c{j}" for j in range(n)]
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):  # one generator across several draws
            if x_rows or x_cols:
                A = LabeledMatrix(field, rows, cols,
                                  instances._draw_rows(rng, q, m, n, x_rows, x_cols))
            else:
                A = instances._random_matrix(rng, field, rows, cols)
            assert A == drawn_matrix(ref, field, rows, cols, x_rows, x_cols)
            assert rng.getstate() == ref.getstate()


# q = 8 is the power of two above 4: getrandbits(4) redraws half its draws
@pytest.mark.parametrize("q", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("kind,shape", [
    ("xfragile", {"rows": 3, "cols": 3, "x_rows": 1, "x_cols": 1}),
    ("xfragile", {"rows": 2, "cols": 4, "x_rows": 2, "x_cols": 0}),
    ("relax", {"rows": 3, "cols": 3}),
    ("nfragile", {"rows": 3, "cols": 3, "minor_size": 2}),
    ("pipeline", {"rows": 3, "cols": 4, "minor_size": 3}),
    ("nfragile", {"rows": 2, "cols": 3, "minor_size": 5}),
    ("pipeline", {"rows": 3, "cols": 3, "minor_size": 6}),
    ("nfragile", {"rows": 1, "cols": 3, "minor_size": 1}),
    ("pipeline", {"rows": 2, "cols": 1, "minor_size": 1}),
])
def test_gen_random_matches_the_reference_rejection_loop(kind, shape, q):
    # the same serialized instance and rejection count at every seed,
    # and the same seeds running out of draws; a minor of every element
    # leaves none outside it, so the partition draw flips no coin and
    # the first draw, N = M, is accepted
    for seed in range(30):
        want = reference_gen_random(kind, seed=seed, q=q, max_attempts=300, **shape)
        try:
            gi = gen_random(kind, seed=seed, q=q, max_attempts=300, **shape)
        except Exhausted:
            assert want is None
            continue
        assert want is not None
        assert (serialize_instance(gi.instance), gi.rejections) == (
            serialize_instance(want[0]), want[1])


def pool_branch_bound(k):
    """The largest population `Random.sample` draws k from by its pool
    branch: 21, plus the table size of a k-set when k > 5."""
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


# every (n, k) gen_random samples: a minor of k elements, at most the
# partition cap outside it
SAMPLED_SIZES = [(n, k) for k in range(21) for n in range(k, k + PARTITION_CAP_DEFAULT + 1)]


def test_sample_takes_the_pool_branch_under_the_partition_cap():
    # _draw_sample copies the pool branch alone; a cap past this bound
    # would reach the set branch, whose draws differ
    for n, k in SAMPLED_SIZES:
        assert n <= pool_branch_bound(k), (n, k)


def test_draw_sample_is_randoms_sample():
    # the same picks in the same order and the same generator state
    # after them, at every size gen_random samples
    for n, k in SAMPLED_SIZES:
        ground = tuple(f"e{i:02d}" for i in range(n))
        steps = [(m, m.bit_length()) for m in range(n, n - k, -1)]
        for seed in range(10):
            rng, ref = random.Random(seed), random.Random(seed)
            assert instances._draw_sample(rng.getrandbits, ground, steps) == ref.sample(ground, k)
            assert rng.getstate() == ref.getstate()


MEMO_SHAPES = [
    ("relax", dict(q=2, rows=2, cols=2)),
    ("relax", dict(q=3, rows=3, cols=3)),
    ("xfragile", dict(q=2, rows=3, cols=3, x_rows=1, x_cols=1)),
    ("xfragile", dict(q=4, rows=2, cols=4, x_rows=2, x_cols=0)),
    ("nfragile", dict(q=2, rows=3, cols=3, minor_size=2)),
    ("nfragile", dict(q=3, rows=3, cols=3, minor_size=3)),
    ("pipeline", dict(q=2, rows=3, cols=3, minor_size=3)),
    ("pipeline", dict(q=5, rows=2, cols=3, minor_size=2)),
]


def test_shape_memo_does_not_change_a_draw():
    # the same shapes, some sharing (q, rows, cols) across kinds, drawn
    # in two orders from an empty memo each time: each gives the same
    # instance and rejection count whichever shape warmed the memo
    def draws(order):
        instances._shape.cache_clear()
        out = {}
        for i in order:
            kind, shape = MEMO_SHAPES[i]
            for seed in range(3):
                gi = gen_random(kind, seed=seed, **shape)
                out[i, seed] = serialize_instance(gi.instance), gi.rejections
        return out

    forward = draws(range(len(MEMO_SHAPES)))
    assert forward == draws(reversed(range(len(MEMO_SHAPES))))
    assert (instances._shape.cache_info().currsize
            == len({(s["q"], s["rows"], s["cols"]) for _, s in MEMO_SHAPES}))


def test_shape_memo_is_bounded():
    # more distinct shapes than the bound, each X-fragile at its first
    # draw as X is every label: the shape just drawn is kept, and the
    # memo never holds more than the bound
    instances._shape.cache_clear()
    shapes = [(rows, cols) for rows in range(18) for cols in range(18)]
    assert instances._shape.cache_info().maxsize == 256 < len(shapes)
    for rows, cols in shapes:
        gi = gen_random("xfragile", seed=0, rows=rows, cols=cols, x_rows=rows, x_cols=cols)
        assert gi.rejections == 0
        hits = instances._shape.cache_info().hits
        instances._shape(2, rows, cols)
        info = instances._shape.cache_info()
        assert info.hits == hits + 1
        assert info.currsize <= info.maxsize


@pytest.mark.parametrize("kind", ["relax", "nfragile"])
@pytest.mark.parametrize("arg,value,error,message", [
    ("q", 2.0, InvalidField, "field order 2.0 is not a prime power"),
    ("q", True, InvalidField, "field order True is not a prime power"),
    ("rows", 2.0, InvalidArgs, "rows must be an int, got 2.0"),
], ids=["q=2.0", "q=True", "rows=2.0"])
def test_warm_shape_memo_refuses_what_a_first_draw_refuses(kind, arg, value, error, message):
    # 2.0 == 2, so a memo keyed by value finds (2, 2, 2) for q = 2.0;
    # the refusal is the one a draw on an empty memo gives
    instances._shape.cache_clear()
    gen_random(kind, seed=0, q=2, rows=2, cols=2)
    assert instances._shape.cache_info().currsize == 1
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        gen_random(kind, seed=0, **{"q": 2, "rows": 2, "cols": 2, arg: value})


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("q", [[2], {2: 1}, None, "2"], ids=["list", "dict", "None", "str"])
def test_a_q_that_is_not_an_int_is_refused_before_the_shape_memo(q, warm):
    # the memo hashes its arguments, which [2] and {2: 1} refuse with a
    # TypeError: a q that is not an int is refused as a field order
    # first, on an empty memo and on one that holds the int shape
    instances._shape.cache_clear()
    if warm:
        gen_random("relax", seed=0, q=2, rows=2, cols=2)
    message = f"field order {q!r} is not a prime power"
    with pytest.raises(InvalidField, match=f"^{re.escape(message)}$"):
        gen_random("relax", seed=0, q=q, rows=2, cols=2)
    assert instances._shape.cache_info().currsize == int(warm)
