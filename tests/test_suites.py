"""Suite runner plumbing.  The suites themselves run at full size in
test_acceptance.py; here only the report shape and the dispatch."""

import copy
import json

import pytest

from matroidfrag import (
    InvalidArgs,
    LabeledMatrix,
    ReprMatroid,
    display_basis,
    fragility,
    make_prime_field,
    suites,
)
from matroidfrag.suites import SUITES, canonical_report, field_core, run_suite


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


def test_zeroed_block_checks_do_not_trust_the_certifier(monkeypatch):
    # a certifier that passes everything and a zero_out that re-displays
    # without zeroing: the suite's own partition search and rank queries
    # must still flag the draws whose block was not zero
    monkeypatch.setattr(fragility, "x_fragile_failure", lambda *args, **kwargs: None)

    def redisplay(M, N):
        Md = M.rebase(display_basis(M, N))
        return Md, Md.rep

    monkeypatch.setattr(suites, "zero_out", redisplay)
    report = suites.zeroed_block(0, 20)
    reasons = {f["reason"] for f in report["failures"]}
    assert reasons == {"zeroed matroid is not fragile for the isolated minor"}
    assert len(report["failures"]) == 4


def test_minors_agree_requires_one_ground_set():
    # a minor with an element the other lacks does not agree, although
    # every rank over the shared elements does
    A = LabeledMatrix(make_prime_field(2), ["a", "b"], ["c"], [[1], [1]])
    M, M2 = ReprMatroid(A), ReprMatroid(A.with_column("e", [0, 0]))
    none = frozenset()
    assert suites._minors_agree(M, frozenset("a"), none, M2, frozenset("a"), frozenset("e"))
    assert not suites._minors_agree(M, frozenset("a"), none, M2, frozenset("a"), none)
    assert not suites._minors_agree(M2, frozenset("a"), none, M, frozenset("a"), none)


def test_full_pipeline_checks_the_common_minor_by_rank_queries(monkeypatch):
    # with matroid equality answering yes to everything, a trace naming
    # c and d the wrong way round must still lose the common minor
    pipeline = suites.pipeline

    def swapped(M, N, **kwargs):
        tr = copy.copy(pipeline(M, N, **kwargs))
        tr.c_label, tr.d_label = tr.d_label, tr.c_label
        return tr

    monkeypatch.setattr(ReprMatroid, "equals", lambda self, other: True)
    monkeypatch.setattr(suites, "pipeline", swapped)
    report = suites.full_pipeline(0, 4)
    assert {f["reason"] for f in report["failures"]} == {"common minor lost"}
