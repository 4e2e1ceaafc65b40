"""Instance file codec and random generation tests."""

import copy
import hashlib
import json
import pickle
import sys

import pytest
from hypothesis import given, settings, strategies as st

from matroidfrag import instances, matrices
from matroidfrag import (
    CapExceeded,
    DegreeCap,
    Exhausted,
    FieldMismatch,
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
    field_of_order,
    gen_random,
    is_N_fragile,
    is_X_fragile_matrix,
    parse_instance,
    serialize_instance,
)

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


def test_malformed_json():
    with pytest.raises(MalformedJson) as e:
        parse_instance("{bad")
    assert "line 1" in str(e.value)


@pytest.mark.parametrize("text", [
    "[" * 200000 + "]" * 200000,  # deeper than json.loads recurses
    '{"seed": ' + "9" * 5000 + "}",  # past Python's 4300-digit limit
], ids=["too-deep", "too-many-digits"])
def test_json_loads_refusals_are_malformed_json(text):
    with pytest.raises(MalformedJson):
        parse_instance(text)


# documents built from the schema's own keys, values and nesting: a
# well-formed document, then up to three edits, each at a random place,
# that replace a value by any schema value, drop a key or add one
KINDS = ("xfragile", "nfragile", "pipeline", "relax")
KEYS = ("field", "matrix", "task", "seed", "p", "tower", "deg", "modulus",
        "rows", "cols", "entries", "kind", "x", "minor", "contract", "delete")
ANY = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.just(1.5)
    | st.sampled_from(("a", "b", "") + KINDS),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(KEYS), kids, max_size=3),
    max_leaves=8,
)
FIELDS_JSON = ({"p": 2, "tower": []}, {"p": 3, "tower": []},
               {"p": 2, "tower": [{"deg": 2, "modulus": [1, 1, 1]}]})


@st.composite
def matrix_json(draw, labels):
    m = draw(st.integers(0, min(2, len(labels))))
    n = draw(st.integers(0, min(2, len(labels) - m)))
    entries = st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=m, max_size=m)
    return {"rows": labels[:m], "cols": labels[m:m + n], "entries": draw(entries)}


@st.composite
def documents(draw):
    doc = {"field": copy.deepcopy(draw(st.sampled_from(FIELDS_JSON))),
           "matrix": draw(matrix_json(draw(st.permutations("abcd"))))}
    ground = doc["matrix"]["rows"] + doc["matrix"]["cols"]
    labels = st.lists(st.sampled_from(ground), unique=True) if ground else st.just([])
    kind = draw(st.sampled_from((None,) + KINDS))
    if kind == "xfragile":
        doc["task"] = {"kind": kind, "x": draw(labels)}
    elif kind == "relax":
        contract = draw(labels)
        doc["task"] = {"kind": kind, "contract": contract,
                       "delete": [e for e in draw(labels) if e not in contract]}
    elif kind:
        doc["task"] = {"kind": kind, "minor": draw(matrix_json(draw(st.permutations(ground))))}
    if draw(st.booleans()):
        doc["seed"] = draw(st.integers(-1, 1))
    for _ in range(draw(st.integers(0, 3))):
        node = doc
        while True:
            inner = [v for v in (node.values() if isinstance(node, dict) else node)
                     if isinstance(v, (dict, list))]
            if not inner or draw(st.booleans()):
                break
            node = draw(st.sampled_from(inner))
        places = list(node) if isinstance(node, dict) else list(range(len(node)))
        edit = draw(st.sampled_from(("replace", "drop", "add")))
        if edit == "add" or not places:
            if isinstance(node, dict):
                node[draw(st.sampled_from(KEYS))] = draw(ANY)
            else:
                node.append(draw(ANY))
        elif edit == "drop":
            del node[draw(st.sampled_from(places))]
        else:
            node[draw(st.sampled_from(places))] = draw(ANY)
    return doc


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(documents())
def test_parse_refuses_only_with_toolkit_errors(doc):
    try:
        parse_instance(json.dumps(doc))
    except ToolkitError:
        pass


def test_instance_over_another_field_is_refused():
    GF2, GF3 = field_of_order(2), field_of_order(3)
    A2 = LabeledMatrix(GF2, ["c"], ["d"], [[1]])
    A3 = LabeledMatrix(GF3, ["c"], ["d"], [[2]])
    with pytest.raises(FieldMismatch, match="matrix over GF.3. in a GF.2. instance"):
        InstanceFile(GF2, A3)
    with pytest.raises(FieldMismatch, match="task minor over GF.3. in a GF.2. instance"):
        InstanceFile(GF2, A2, PipelineTask(ReprMatroid(A3)))
    # copies and pickles rebuild the record by its checked `__init__`
    inst = InstanceFile(GF3, A3, NFragileTask(ReprMatroid(A3)), 1)
    for twin in (copy.copy(inst), pickle.loads(pickle.dumps(inst))):
        assert serialize_instance(twin) == serialize_instance(inst)


def test_schema_paths_in_messages():
    with pytest.raises(SchemaViolation, match=r"\$: expected object"):
        parse_instance("[1]")
    with pytest.raises(SchemaViolation, match=r"\$: missing key 'matrix'"):
        parse_instance('{"field": {"p": 2, "tower": []}}')
    with pytest.raises(SchemaViolation, match=r"\$\.matrix\.entries\[0\]\[0\]"):
        parse_instance(
            '{"field": {"p": 2, "tower": []},'
            ' "matrix": {"rows": ["a"], "cols": ["b"], "entries": [[true]]}}'
        )
    with pytest.raises(SchemaViolation, match=r"\$\.task\.kind"):
        parse_instance(with_task('{"kind": "bogus"}'))
    with pytest.raises(SchemaViolation, match=r"\$\.task\.x\[0\]"):
        parse_instance(with_task('{"kind": "xfragile", "x": ["q"]}'))
    with pytest.raises(SchemaViolation, match=r"\$\.seed"):
        parse_instance(MINIMAL[:-1] + ', "seed": "x"}')
    with pytest.raises(SchemaViolation, match=r"unexpected key 'extra'"):
        parse_instance(MINIMAL[:-1] + ', "extra": 1}')


def test_duplicate_labels_rejected():
    with pytest.raises(SchemaViolation, match=r"\$\.matrix"):
        parse_instance(
            '{"field": {"p": 2, "tower": []},'
            ' "matrix": {"rows": ["a"], "cols": ["a"], "entries": [[1]]}}'
        )


def test_encoding_out_of_range():
    with pytest.raises(SchemaViolation, match="out of range"):
        parse_instance(
            '{"field": {"p": 2, "tower": []},'
            ' "matrix": {"rows": ["a"], "cols": ["b"], "entries": [[2]]}}'
        )


def test_reducible_modulus_named_in_error():
    with pytest.raises(InvalidField, match=r"\[0, 0, 1\] is reducible"):
        parse_instance(
            '{"field": {"p": 2, "tower": [{"deg": 2, "modulus": [0, 0, 1]}]},'
            ' "matrix": {"rows": [], "cols": [], "entries": []}}'
        )


def test_degree_cap_in_a_tower_is_reported_with_its_path():
    # GF(2^4) then a degree-5 step over it: total degree 20 > 16
    tower = [{"deg": 4, "modulus": [1, 1, 0, 0, 1]}, {"deg": 5, "modulus": [1, 0, 0, 0, 0, 1]}]
    text = json.dumps({"field": {"p": 2, "tower": tower},
                       "matrix": {"rows": [], "cols": [], "entries": []}})
    with pytest.raises(DegreeCap, match=r"^\$\.field: tower step 1: total degree exceeds cap 16$"):
        parse_instance(text)


def test_relax_sets_must_be_disjoint():
    with pytest.raises(SchemaViolation, match="also appears"):
        parse_instance(with_task('{"kind": "relax", "contract": ["a"], "delete": ["a"]}'))


def test_minor_labels_must_be_inside_ground():
    with pytest.raises(SchemaViolation, match=r"\$\.task\.minor"):
        parse_instance(with_task(
            '{"kind": "nfragile", "minor": {"rows": ["q"], "cols": [], "entries": [[]]}}'
        ))


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
        assert is_X_fragile_matrix(inst.matrix, inst.task.x)
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


def test_gen_exhausted_on_unsatisfiable_shape():
    # an all-column X with a column outside it can never gain rank from
    # a pure-column Y, so this shape has no fragile instances
    with pytest.raises(Exhausted):
        gen_random("xfragile", seed=0, q=2, rows=1, cols=2,
                   x_rows=0, x_cols=1, max_attempts=200)


def test_gen_validates_before_sampling():
    with pytest.raises(CapExceeded):
        gen_random("nfragile", seed=0, rows=8, cols=8, minor_size=2)
    with pytest.raises(InvalidArgs):
        gen_random("nope", seed=0)


def test_empty_minor_of_nonempty_ground_is_refused(monkeypatch):
    # every partition realises the empty minor, so no draw could succeed;
    # the shape is refused before the first draw
    monkeypatch.setattr(instances, "_random_matrix", None)
    for kind in ("nfragile", "pipeline"):
        with pytest.raises(InvalidArgs, match="empty minor"):
            gen_random(kind, seed=25, q=2, rows=3, cols=4, minor_size=0)
    monkeypatch.undo()
    # on the empty ground set the one partition is unique
    gi = gen_random("pipeline", seed=0, rows=0, cols=0, minor_size=0)
    assert gi.rejections == 0
    assert gi.instance.task.minor.ground == frozenset()


def test_xfragile_and_relax_draws_build_one_matrix_each(monkeypatch):
    # each draw's X block is zeroed in the drawn lists, so the loop
    # builds one LabeledMatrix per draw and the checks build none
    built = []
    of_display = LabeledMatrix._of_display.__func__
    monkeypatch.setattr(LabeledMatrix, "_of_display",
                        classmethod(lambda cls, *a: built.append(a) or of_display(cls, *a)))
    for kind, shape in (("xfragile", dict(rows=4, cols=5, x_rows=2, x_cols=2)),
                        ("relax", dict(rows=3, cols=3))):
        built.clear()
        gi = gen_random(kind, seed=5, q=2, **shape)
        assert gi.rejections > 0
        assert len(built) == gi.rejections + 1


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


@pytest.mark.parametrize("kind,shape,seed,rejections,digest", PINNED_DRAWS)
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
    # one event list: each draw starts with the witness's verdict, and
    # only a draw it cannot reject goes on to build tables (and a minor)
    events = []

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)

        return wrapper

    table = logged("rank_table", matrices.rank_table)
    for name, module in list(sys.modules.items()):
        if name.startswith("matroidfrag") and hasattr(module, "rank_table"):
            monkeypatch.setattr(module, "rank_table", table)
    monkeypatch.setattr(ReprMatroid, "minor", logged("minor", ReprMatroid.minor))
    witness = instances.one_move_partition
    monkeypatch.setattr(
        instances, "one_move_partition",
        lambda M, part: events.append(w := witness(M, part)) or w)
    gi = gen_random(kind, seed=seed, **shape)
    assert gi.rejections == rejections
    starts = [i for i, e in enumerate(events) if not isinstance(e, str)]
    assert len(starts) == rejections + 1
    draws = [events[i:j] for i, j in zip(starts, starts[1:] + [len(events)])]
    # a cut minor N goes to the pruned partition search, which builds no
    # table over GF(2): each leaf re-displayed on N's basis is decided by
    # its display; a zeroed block is accepted by x_fragile_failure, which
    # reads the tables of M/Xc and M/Xr straight off the display and
    # builds no minor
    full = ["minor"] if kind == "pipeline" else ["rank_table", "rank_table"]
    for draw in draws:
        assert draw[1:] == ([] if draw[0] else full)
    caught = sum(1 for draw in draws if draw[0])
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
        monkeypatch.setattr(instances, "one_move_partition", lambda M, part: None)
        without = gen_random(kind, seed=seed, q=q, **shape)
        monkeypatch.undo()
        assert without.rejections == with_witness.rejections
        assert serialize_instance(without.instance) == serialize_instance(with_witness.instance)
        rejected += with_witness.rejections
    assert rejected > 0
