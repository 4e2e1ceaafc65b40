"""The package's value classes: partition certificates, instance files
and their tasks, pipeline stages and traces.

Each lists its fields in `__slots__`.  A frozen one compares and hashes
field by field within its class, refuses assignment and shows its
fields by name; the expected reprs are the ones the same objects had
as dataclasses.
"""

import copy
import pickle

import pytest

from matroidfrag import (
    InstanceFile,
    InvalidMinorSpec,
    LabeledMatrix,
    MinorSpec,
    NFragileTask,
    PipelineTask,
    RelaxTask,
    ReprMatroid,
    StageRecord,
    XFragileTask,
    make_prime_field,
    pipeline,
)

GF2 = make_prime_field(2)
A = LabeledMatrix(GF2, ["c"], ["d"], [[1]])
N = ReprMatroid(A)
SHOWN_N = "ReprMatroid(rows=['c'], cols=['d'], field=GF(2))"


def frozen_cases():
    """(build, a repr the built object has, its fields in order): build()
    makes a new, equal object each call."""
    return [
        (lambda: MinorSpec({"a"}, {"b"}),
         "MinorSpec(contract=frozenset({'a'}), delete=frozenset({'b'}))",
         (frozenset({"a"}), frozenset({"b"}))),
        (lambda: XFragileTask(frozenset({"c"})),
         "XFragileTask(x=frozenset({'c'}))", (frozenset({"c"}),)),
        (lambda: NFragileTask(N), f"NFragileTask(minor={SHOWN_N})", (N,)),
        (lambda: RelaxTask(frozenset(), frozenset({"d"})),
         "RelaxTask(contract=frozenset(), delete=frozenset({'d'}))",
         (frozenset(), frozenset({"d"}))),
        (lambda: PipelineTask(N), f"PipelineTask(minor={SHOWN_N})", (N,)),
        (lambda: InstanceFile(GF2, A, PipelineTask(N), 7),
         "InstanceFile(field=GF(2), matrix=LabeledMatrix(GF(2), rows=['c'], cols=['d']), "
         f"task=PipelineTask(minor={SHOWN_N}), seed=7)",
         (GF2, A, PipelineTask(N), 7)),
        (lambda: InstanceFile(GF2, A),
         "InstanceFile(field=GF(2), matrix=LabeledMatrix(GF(2), rows=['c'], cols=['d']), "
         "task=None, seed=None)",
         (GF2, A, None, None)),
    ]


@pytest.mark.parametrize("build,shown,values", frozen_cases())
def test_frozen_record_equality_hash_and_repr(build, shown, values):
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(values)
    assert repr(a) == shown
    assert len({a, b}) == 1
    assert a != values and a != object()


@pytest.mark.parametrize("build,shown,values", frozen_cases())
def test_frozen_record_refuses_assignment(build, shown, values):
    a = build()
    name = type(a).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.other = 1
    assert a == build()


@pytest.mark.parametrize("build,shown,values", frozen_cases())
def test_frozen_record_copies_by_its_fields(build, shown, values):
    a = build()
    assert copy.copy(a) == a and copy.copy(a) is not a


@pytest.mark.parametrize("a", [MinorSpec({"a"}, {"b"}), XFragileTask(frozenset({"c"})),
                               RelaxTask(frozenset({"c"}), frozenset())])
def test_set_valued_records_pickle(a):
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.deepcopy(a) == a


def test_equality_is_field_wise_and_type_sensitive():
    assert MinorSpec({"a"}, {"b"}) != MinorSpec({"b"}, {"a"})
    assert MinorSpec(contract=["a"], delete=()) == MinorSpec({"a"}, set())
    assert NFragileTask(N) != PipelineTask(N)
    assert hash(NFragileTask(N)) == hash(PipelineTask(N))
    assert len({NFragileTask(N), PipelineTask(N)}) == 2
    assert InstanceFile(GF2, A, seed=1) != InstanceFile(GF2, A, seed=2)
    # the minor is compared as a ReprMatroid, by its display
    assert NFragileTask(N) == NFragileTask(ReprMatroid(A))
    assert [t.kind for t in (XFragileTask(frozenset()), NFragileTask(N),
                             RelaxTask(frozenset(), frozenset()), PipelineTask(N))] == [
        "xfragile", "nfragile", "relax", "pipeline"]


def test_records_holding_a_matroid_round_trip_equal():
    # a task minor or a stage matroid compares by its display, so a
    # pickle or a deep copy of the record equals the original
    GF3 = make_prime_field(3)
    A3 = LabeledMatrix(GF3, ["c"], ["d"], [[1]])
    tr = pipeline(ReprMatroid(LabeledMatrix(GF2, ["c"], ["d", "e"], [[0, 1]])),
                  ReprMatroid(LabeledMatrix(GF2, ["c"], ["d"], [[0]])))
    for rec in (InstanceFile(GF3, A3, NFragileTask(ReprMatroid(A3)), 1), *tr.stages, tr):
        assert pickle.loads(pickle.dumps(rec)) == rec
        assert copy.deepcopy(rec) == rec


def test_matroids_are_equal_by_display_and_hash_alike():
    def display(rows, entries):
        return ReprMatroid(LabeledMatrix(GF2, rows, ["x"], entries))

    M, twin = display(["a", "b"], [[1], [0]]), display(["a", "b"], [[1], [0]])
    assert M == twin and hash(M) == hash(twin) and M is not twin
    # the same matroid shown with its rows in another order is another
    # display: equal as a matroid (`equals`), not as a ReprMatroid
    swapped = display(["b", "a"], [[0], [1]])
    assert M != swapped and M.equals(swapped)
    assert display(["a", "b"], [[0], [1]]) != M
    assert len({M, twin, swapped}) == 2
    assert M != M.rep and M != M.dual()


def test_minor_spec_takes_sets_and_refuses_an_overlap():
    spec = MinorSpec(["a", "a"], iter(["b"]))
    assert (spec.contract, spec.delete) == (frozenset({"a"}), frozenset({"b"}))
    with pytest.raises(InvalidMinorSpec, match=r"contract and delete overlap: \['a'\]"):
        MinorSpec({"a", "c"}, {"a", "b"})


def test_stage_and_trace_records_are_mutable_and_unhashable():
    stage = StageRecord("s", 1, N, {"ok": True})
    assert stage.details == {} and StageRecord("t", 1, N, {}).details is not stage.details
    assert repr(stage) == (f"StageRecord(name='s', degree_over_input=1, matroid={SHOWN_N}, "
                           "verdicts={'ok': True}, details={})")
    assert stage == StageRecord(name="s", degree_over_input=1, matroid=N, verdicts={"ok": True})
    with pytest.raises(TypeError):
        hash(stage)
    tr = pipeline(ReprMatroid(LabeledMatrix(GF2, ["c"], ["d", "e"], [[0, 1]])),
                  ReprMatroid(LabeledMatrix(GF2, ["c"], ["d"], [[0]])))
    twin = copy.copy(tr)
    assert twin == tr and twin is not tr
    twin.c_label = "x"
    assert twin != tr
    with pytest.raises(TypeError):
        hash(tr)
