"""Acceptance runs: the eight certification targets at full size.

Each test prints one line, "ACCEPTANCE n: PASS" or "ACCEPTANCE n:
FAIL", with the checked count and wall time (visible under pytest -s;
the per-test PASSED/FAILED column carries the same verdict).  Counts,
seeds and time budgets are pinned below and asserted.
"""

import time

from matroidfrag import suites

SEED = 0


def _run(n, budget_s, fn, want_checked=None):
    t0 = time.perf_counter()
    report = fn()
    dt = time.perf_counter() - t0
    ok = (
        report["ok"]
        and dt < budget_s
        and (want_checked is None or report["checked"] == want_checked)
    )
    print(
        f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} "
        f"({report['checked']} checked, {len(report['failures'])} failures, {dt:.1f}s)"
    )
    assert report["ok"], report["failures"][:2]
    if want_checked is not None:
        assert report["checked"] == want_checked
    assert dt < budget_s, f"took {dt:.1f}s, budget {budget_s}s"
    return report


def test_acceptance_1_field_axioms_and_embeddings():
    # seven field orders exhaustively, three embedding pairs
    _run(1, 5, lambda: suites.field_core(seed=SEED), want_checked=10)


def test_acceptance_2_matrix_fragility_matches_isolated_minor():
    _run(
        2, 60,
        lambda: suites.isolated_minor_equivalence(seed=SEED, count=200),
        want_checked=200,
    )


def test_acceptance_3_zeroed_block_certificates():
    _run(3, 120, lambda: suites.zeroed_block(seed=SEED, count=100), want_checked=100)


def test_acceptance_4_free_placement_flat_condition():
    _run(4, 60, lambda: suites.free_placement(seed=SEED, count=100), want_checked=100)


def test_acceptance_5_relaxation_certificates():
    _run(5, 120, lambda: suites.entry_relaxation(seed=SEED, count=100), want_checked=100)


def test_acceptance_6_pipeline_with_conformant_degrees():
    _run(
        6, 300,
        lambda: suites.full_pipeline(seed=SEED, count=50),
        want_checked=50,
    )


def test_acceptance_7_structural_invariants():
    _run(
        7, 120,
        lambda: suites.structural_invariants(seed=SEED, count=50),
        want_checked=50,
    )


def test_acceptance_8_reports_are_deterministic():
    _run(8, 300, lambda: suites.determinism(seed=SEED))
