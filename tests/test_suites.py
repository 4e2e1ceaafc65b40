"""Suite runner plumbing.  The suites themselves run at full size in
test_acceptance.py; here only the report shape and the dispatch."""

import hashlib
import json
import random

import pytest

from matroidfrag import (
    Exhausted,
    InvalidArgs,
    LabeledMatrix,
    NotFragile,
    ReductionTrace,
    ReprMatroid,
    display_basis,
    fragility,
    suites,
)
from matroidfrag.suites import SUITES, canonical_report, field_core, run_suite
from reference import GF2


def test_report_shape():
    report = field_core(seed=3)
    assert report["suite"] == "field-core"
    assert report["seed"] == 3
    assert report["ok"] is True
    assert report["failures"] == []
    assert report["checked"] > 0
    assert isinstance(report["timing_ms"], float)


def test_canonical_report_strips_timing():
    report = field_core(seed=0)
    canon = canonical_report(report)
    assert "timing_ms" not in canon
    assert json.loads(canon)["suite"] == "field-core"
    # compact separators, sorted keys
    assert ": " not in canon and canon.startswith('{"checked"')


def test_run_suite_dispatch():
    assert set(SUITES) == {
        "field-core",
        "isolated-minor",
        "zeroed-block",
        "free-placement",
        "entry-relaxation",
        "pipeline",
        "structural",
        "determinism",
    }
    report = run_suite("field-core", seed=1)
    assert report["suite"] == "field-core" and report["ok"]
    with pytest.raises(InvalidArgs):
        run_suite("nope")


def test_field_core_checks_the_package_subfield_test(monkeypatch):
    # a subfield test that answers wrong: field_core compares the
    # package's `is_in_subfield` itself with the embedding images, so
    # every field pair fails at its first element
    monkeypatch.setattr(suites, "is_in_subfield", lambda a, sub: False)
    report = field_core(seed=0)
    assert not report["ok"]
    assert [(f["pair"], f["element"]) for f in report["failures"]] == [
        ("GF(4)/GF(2)", 0), ("GF(9)/GF(3)", 0), ("GF(16)/GF(4)", 0)]


def _redisplay(M, N):
    # zero_out without the zeroing
    Md = M.rebase(display_basis(M, N))
    return Md, Md.rep


def test_zeroed_block_checks_do_not_trust_the_certifier(monkeypatch):
    # a certifier that passes everything and a zero_out that re-displays
    # without zeroing: the suite's own partition search and rank queries
    # must still flag the draws whose block was not zero
    monkeypatch.setattr(fragility, "x_fragile_failure", lambda *args, **kwargs: None)
    monkeypatch.setattr(suites, "zero_out", _redisplay)
    report = suites.zeroed_block(0, 20)
    reasons = {f["reason"] for f in report["failures"]}
    assert reasons == {"zeroed matroid is not fragile for the isolated minor"}
    assert len(report["failures"]) == 4


def test_minors_agree_requires_one_ground_set():
    # a minor with an element the other lacks does not agree, although
    # every rank over the shared elements does
    M = ReprMatroid(LabeledMatrix(GF2, ["a", "b"], ["c"], [[1], [1]]))
    M2 = ReprMatroid(LabeledMatrix(GF2, ["a", "b"], ["c", "e"], [[1, 0], [1, 0]]))
    none = frozenset()
    assert suites._minors_agree(M, frozenset("a"), none, M2, frozenset("a"), frozenset("e"))
    assert not suites._minors_agree(M, frozenset("a"), none, M2, frozenset("a"), none)
    assert not suites._minors_agree(M2, frozenset("a"), none, M, frozenset("a"), none)


def _swapped(pipeline):
    # a pipeline whose trace names c and d the wrong way round
    def run(M, N, **kwargs):
        tr = pipeline(M, N, **kwargs)
        fields = {name: getattr(tr, name) for name in ReductionTrace.__slots__}
        fields["c_label"], fields["d_label"] = tr.d_label, tr.c_label
        return ReductionTrace(*fields.values())
    return run


def test_full_pipeline_checks_the_common_minor_by_rank_queries(monkeypatch):
    # with matroid equality answering yes to everything, a trace naming
    # c and d the wrong way round must still lose the common minor
    monkeypatch.setattr(ReprMatroid, "equals", lambda self, other: True)
    monkeypatch.setattr(suites, "pipeline", _swapped(suites.pipeline))
    report = suites.full_pipeline(0, 4)
    assert {f["reason"] for f in report["failures"]} == {"common minor lost"}


def _every(n, run, make_error):
    # run, except that every n-th call raises
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) % n == 0:
            raise make_error()
        return run(*args, **kwargs)

    return wrapped


def _unit_column(A, X, e):
    # A with a column e appended, one in the first row and zero below
    return LabeledMatrix(A.field, A.rows, A.cols + (e,),
                         [row + (int(i == 0),) for i, row in enumerate(A._data)])


def _same_twice(relax):
    def run(M, contract, delete):
        M1, _, H = relax(M, contract, delete)
        return M1, M1, H
    return run


def _empty_on_the_dual(search):
    # the structural suite searches M, then M*: every second call is M*'s
    calls = []

    def run(M, N, **kwargs):
        calls.append(None)
        return frozenset() if len(calls) % 2 == 0 else search(M, N, **kwargs)

    return run


class _SelfDual(ReprMatroid):
    # its dual is itself: the corank formula and the minor/dual
    # commutation fail on most draws, before the partitions are sampled
    def dual(self):
        return self


# one sabotaged operation per count-based suite, each yielding at least
# two failure records: the sha256 of the canonical report pins the
# failure records' keys, values and order, which the golden hashes
# (failure-free reports) do not cover.  The structural suite has a second
# case that fails before `_sample_partitions` draws from the master seed,
# and the pipeline suite one whose generation fails
FAILURE_PATHS = {
    "isolated-minor": (
        "is_N_fragile", lambda orig: lambda M, N: False,
        suites.isolated_minor_equivalence, 6,
        "6643c8e42f83bf4692cee4eeeefe4391e8831ae5a3edf69257d6aeed9fe77cf4",
    ),
    "zeroed-block": (
        "zero_out", lambda orig: _every(3, _redisplay, lambda: NotFragile("sabotaged")),
        suites.zeroed_block, 20,
        "634e505c495edfd5e21c924de343cdd7bce446de6fa8964d23e2c2e6761dd9e4",
    ),
    "free-placement": (
        "free_extension", lambda orig: _every(4, _unit_column, lambda: ValueError("sabotaged")),
        suites.free_placement, 12,
        "6b08e2ae7c5888678032f63e636ba9c957a48c26f2dfb4a57abeae3255ed7b8a",
    ),
    "entry-relaxation": (
        "relax_entry", lambda orig: _every(3, _same_twice(orig), lambda: ValueError("sabotaged")),
        suites.entry_relaxation, 6,
        "319948379ae32f4bb7da9043933e0f1743018bf88cf99fb574c5c769cab6645c",
    ),
    "pipeline": (
        "pipeline", lambda orig: _every(2, _swapped(orig), lambda: ValueError("sabotaged")),
        suites.full_pipeline, 4,
        "8d0b6193056dec4318b3c7455aee9eb8a3362e1b64e03435becfc8d6ebdf949c",
    ),
    "pipeline-generation": (
        "_gen_with_retry", lambda orig: _every(2, orig, lambda: Exhausted("sabotaged")),
        suites.full_pipeline, 4,
        "ef18b305986d416ec190987d9a9b132ec36337a92685ef1162d293e07b454e4c",
    ),
    "structural": (
        "fragile_partitions", _empty_on_the_dual,
        suites.structural_invariants, 8,
        "32c68cde2ab8e7db397ace0431e9753d7df66f438a39e3267ed615afb2b400cf",
    ),
    "structural-self-dual": (
        "ReprMatroid", lambda orig: _SelfDual,
        suites.structural_invariants, 8,
        "d4fa5f3de855f83e05c574ef7a5bda69968b335a41426f4f7e89e23a4069c238",
    ),
}


@pytest.mark.parametrize("case", sorted(FAILURE_PATHS))
def test_failure_records_are_pinned(monkeypatch, case):
    name, sabotage, run, count, digest = FAILURE_PATHS[case]
    monkeypatch.setattr(suites, name, sabotage(getattr(suites, name)))
    report = run(0, count)
    assert len(report["failures"]) >= 2 and not report["ok"]
    assert hashlib.sha256(canonical_report(report).encode()).hexdigest() == digest


def test_gen_with_retry_raises_the_last_refusal_after_forty_shapes(monkeypatch):
    # a generator that refuses every shape at once: forty shapes are
    # drawn, and the last refusal is the one raised
    refusals, shapes = [], []

    def refuse(kind, **kwargs):
        refusals.append(Exhausted(f"{kind} refusal {len(refusals)}"))
        raise refusals[-1]

    def shape(master):
        shapes.append(master.randrange(4))
        return {"q": 2}

    monkeypatch.setattr(suites, "gen_random", refuse)
    with pytest.raises(Exhausted, match="pipeline refusal 39") as info:
        suites._gen_with_retry("pipeline", random.Random(0), shape)
    assert info.value is refusals[-1] and len(refusals) == len(shapes) == 40
