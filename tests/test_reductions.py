"""Reduction chain tests.

Small frozen instances first, then seeded random ones.  Every reduction
already re-verifies its own defining properties and raises
PostconditionViolation on failure, so a clean return is itself a
certificate; the assertions below pin the concrete outputs, and the
table STAGE_FAULTS shows each of those checks refusing a faulty builder.
"""

import os
import subprocess
import sys
import traceback
from collections import Counter
from functools import cache, partial
from itertools import count
from pathlib import Path
from random import Random

import pytest

from matroidfrag import (
    InvalidArgs,
    LabelCollision,
    LabeledMatrix,
    NotFragile,
    PostconditionViolation,
    ReprMatroid,
    UnknownLabel,
    collapse_side,
    display_basis,
    extend_field,
    field_of_order,
    free_extension,
    gen_random,
    is_N_fragile,
    is_relaxation,
    isolated,
    pipeline,
    relax_entry,
    zero_out,
)
from matroidfrag import fragility, galois, matrices, matroids, reductions
from matroidfrag.galois import DEGREE_CAP_DEFAULT, FieldSpec, subfield_basis
from reference import (
    GF2, GF3, GF4, GF5, GF9, SCOPES, entries, free_placement_failure, ladder_draw,
    lex_greatest_modulus, relax_sweep_failure, scope_matrices, scope_x, with_entry,
    x_fragile_failure_loop,
)
from test_refusals import API_REFUSALS, api_refusal
from watch import forbid, raise_sites, watch


def pair_matroid():
    # c coloop-side row, d loop, e parallel to c; fragile for (c, d)
    return ReprMatroid(LabeledMatrix(GF2, ["c"], ["d", "e"], [[0, 1]]))


# -- free_extension ---------------------------------------------------------


def test_free_extension_two_flat_frozen():
    A = LabeledMatrix(GF2, ["r1", "r2"], ["a", "b"], [[1, 0], [0, 1]])
    out = free_extension(A, {"a", "b"}, "e")
    # coefficients are the power basis 1, w of GF(4)
    assert out.field is GF4
    assert [out.enc(r, "e") for r in out.rows] == [1, 2]
    assert out.cols == ("a", "b", "e")
    M = ReprMatroid(out)
    assert M.rank({"a", "b", "e"}) == 2
    assert M.rank({"a", "e"}) == 2  # e is on no proper subflat


def test_free_extension_empty_flat_is_loop():
    A = LabeledMatrix(GF2, ["r1"], ["a"], [[1]])
    out = free_extension(A, (), "e")
    assert out.field is GF2
    assert [out.enc(r, "e") for r in out.rows] == [0]


def test_free_extension_singleton_is_parallel_copy():
    A = LabeledMatrix(GF2, ["r1", "r2"], ["a", "b"], [[1, 0], [1, 1]])
    out = free_extension(A, {"a"}, "e")
    assert out.field is GF2
    assert [out.enc(r, "e") for r in out.rows] == [out.enc(r, "a") for r in out.rows]


def test_free_extension_degree_override():
    A = LabeledMatrix(GF2, ["r1"], ["a"], [[1]])
    out = free_extension(A, {"a"}, "e", degree=2)
    assert out.field is GF4
    assert [out.enc(r, "e") for r in out.rows] == [out.enc(r, "a") for r in out.rows]


def _placed(A, X, alphas, e="e"):
    """[I | A] lifted to the field of `alphas`, with a column e equal to
    the sum of alpha_v times the column of v over the sorted X."""
    F2 = alphas[0].spec if alphas else A.field
    data = []
    for r, row in zip(A.rows, A._data):
        acc = 0
        for a, v in zip(alphas, sorted(X)):
            acc = F2.add_enc(acc, F2.mul_enc(a.enc, A.enc(r, v)))
        data.append(row + (acc,))
    return LabeledMatrix(F2, A.rows, A.cols + (e,), data)


class Displays:
    """A stand-in for `reductions.LabeledMatrix` whose `_of_display` is
    the function given; every other attribute is the real class's."""

    def __init__(self, of_display):
        self._of_display = of_display

    def __getattr__(self, name):
        return getattr(LabeledMatrix, name)


def test_free_extension_failures_match_the_reference(monkeypatch):
    # the read-back is the one check, and it admits no false accept.  The
    # column is the arithmetic one over the power basis on every draw,
    # and the reference finds no failing subset.  With the column written
    # by dependent coefficients (all one, which put e on a proper subflat
    # of X's span) every draw is either refused by the read-back or
    # returns exactly the real column; most are refused
    rng = Random(11)
    draws = []
    for t in range(600):
        F = (GF2, GF3)[t % 2]
        nrows, ncols = rng.randint(1, 4), rng.randint(2, 5)
        rows = [f"r{i}" for i in range(nrows)]
        cols = [f"c{j}" for j in range(ncols)]
        A = LabeledMatrix(F, rows, cols,
                          [[rng.randrange(F.order) for _ in cols] for _ in rows])
        draws.append((A, sorted(c for c in cols if rng.random() < 0.8)))

    real = []
    for A, X in draws:
        F2 = extend_field(A.field, max(1, len(X)))
        out = free_extension(A, X, "e")
        assert out == _placed(A, X, subfield_basis(F2, A.field)[:len(X)])
        assert free_placement_failure(out, X, "e") is None
        real.append(out)

    refused = 0
    for (A, X), want in zip(draws, real):
        lifted = LabeledMatrix(want.field, A.rows, A.cols, A._data)
        placed = _placed(lifted, X, [want.field.one] * len(X))
        dependent = [placed.enc(r, "e") for r in placed.rows]
        with monkeypatch.context() as m:
            m.setattr(reductions, "LabeledMatrix", Displays(
                lambda field, rows, cols, data: LabeledMatrix._of_display(
                    field, rows, cols, [row[:-1] + (x,) for row, x in zip(data, dependent)])))
            try:
                got = free_extension(A, X, "e")
            except PostconditionViolation as err:
                assert "of the new column is not the combination of X's columns" in str(err)
                refused += 1
            else:
                assert got == want
    assert refused >= 300


@pytest.mark.parametrize("F", [GF2, GF3, GF4, GF5, GF9], ids=str)
def test_free_extension_matches_the_arithmetic_reference(F):
    # the column written from its coordinates against sum(t^j * x_j)
    # computed in the extension field, with |X| = 0 and 1 and degrees
    # raised above |X|, as in conformance mode
    rng = Random(F.order)
    seen = Counter()
    for _ in range(120):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [f"r{i}" for i in range(nrows)]
        cols = [f"c{j}" for j in range(ncols)]
        A = LabeledMatrix(F, rows, cols,
                          [[rng.randrange(F.order) for _ in cols] for _ in rows])
        X = sorted(rng.sample(cols, rng.randint(0, min(ncols, 3))))
        need = max(1, len(X))
        d = need + rng.choice((0, 0, 1, 2)) if F.degree * (need + 2) <= DEGREE_CAP_DEFAULT else need
        F2 = extend_field(F, d)
        out = free_extension(A, X, "e", degree=d)
        assert out.field is F2
        assert out == _placed(LabeledMatrix(F2, A.rows, A.cols, A._data), X,
                              subfield_basis(F2, F)[:len(X)])
        seen[min(len(X), 2), d > need] += 1
    for key in ((0, False), (0, True), (1, False), (1, True), (2, False), (2, True)):
        assert seen[key] >= 3, seen


def test_free_extension_does_no_arithmetic_in_the_extension(monkeypatch):
    # the column is written from its coordinates: once the tower is
    # interned (its modulus searched), free_extension multiplies and adds
    # nothing in it
    A = LabeledMatrix(GF3, ["r1", "r2"], ["a", "b", "x"], [[1, 2, 0], [2, 1, 1]])
    calls = []
    for name in ("mul_enc", "add_enc"):
        watch(monkeypatch, (FieldSpec, name), calls, key=lambda self, a, b, name=name: (self, name))
    for X, d in ((("a", "b", "x"), None), (("a",), 3), ((), 2)):
        F2 = extend_field(GF3, d or len(X))
        calls.clear()
        assert free_extension(A, X, "e", degree=d).field is F2
        assert calls.count((F2, "mul_enc")) == calls.count((F2, "add_enc")) == 0, calls


def test_relax_and_free_extension_run_above_sixteen_elements():
    # 17 elements, one row and 16 parallel columns: no sweep cap is left
    A = LabeledMatrix(GF2, ["r"], [f"c{j:02d}" for j in range(16)], [[1] * 16])
    out = free_extension(A, {"c00", "c01"}, "e")
    assert out.field is GF4
    assert [out.enc(r, "e") for r in out.rows] == [3]  # 1 + w
    # the pair (c, d) with fifteen copies of c is fragile; the relax stage
    # is bounded only by its partition cap on the labels outside the pair
    es = [f"e{j:02d}" for j in range(1, 16)]
    M = ReprMatroid(LabeledMatrix(GF2, ["c"], ["d"] + es, [[0] + [1] * 15]))
    M1, M2, H = relax_entry(M, (), es, cap=15)
    assert H == {"d"}
    assert M1.rep == M.rep
    assert M2.rep == with_entry(M.rep, "c", "d", GF4.gen, GF4)


def test_pair_fragility_decides_the_relax_sweep():
    # x_fragile_failure(A1, {c, d}) passes exactly when the reference
    # sweep does; the relaxation then holds, no rank of A2 is below A1's,
    # and relax_entry refuses every draw the reference rejects
    rng = Random(5)
    outcomes = Counter()
    for t in range(600):
        F = (GF2, GF3, GF4)[t % 3]
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [f"r{i}" for i in range(nrows)]
        cols = [f"c{j}" for j in range(ncols)]
        density = rng.random()
        data = [[rng.randrange(1, F.order) if rng.random() < density else 0
                 for _ in cols] for _ in rows]
        c, d = rng.choice(rows), rng.choice(cols)
        data[rows.index(c)][cols.index(d)] = 0
        A1 = LabeledMatrix(F, rows, cols, data)
        F2 = extend_field(F, 2)
        A2 = with_entry(A1, c, d, F2.gen, F2)
        want = relax_sweep_failure(A1, A2, c, d)
        outcomes[F.order, want is None] += 1
        assert (fragility.x_fragile_failure(A1, {c, d}) is None) == (want is None)
        labels = sorted(A1.labels())
        T1, T2 = matrices.rank_table(A1, labels), matrices.rank_table(A2, labels)
        assert all(a <= b for a, b in zip(T1, T2))
        C = frozenset(rows) - {c}
        args = (ReprMatroid(A1), C, frozenset(cols) - {d})
        if want is not None:
            with pytest.raises(NotFragile, match="not fragile for the pair"):
                relax_entry(*args)
            continue
        H = C | {d}
        assert is_relaxation(ReprMatroid(A1), ReprMatroid(A2), H)
        M1, M2, got = relax_entry(*args)
        assert (M1.rep, M2.rep, got) == (A1, A2, H)
    assert len(outcomes) == 6 and min(outcomes.values()) >= 40


def relax_by_partition_search(M, C, D):
    """relax_entry decided by the full partition search: NotFragile
    unless (C, D) is the only partition realising the isolated pair of a
    coloop c and a loop d, else the display on C + {c} and its
    relaxation."""
    C, D = frozenset(C), frozenset(D)
    Mn = M.minor(C, D)
    ranks = {x: Mn.rank({x}) for x in M.ground - C - D}
    if sorted(ranks.values()) != [0, 1]:
        return NotFragile
    c, d = sorted(ranks, key=ranks.get, reverse=True)
    N = isolated({c}, {c, d})
    if fragility.fragile_partitions(M, N) != {matroids.MinorSpec(C, D)}:
        return NotFragile
    A1 = M.rebase(C | {c}).rep
    F2 = extend_field(A1.field, 2)
    return A1, with_entry(A1, c, d, F2.gen, F2), C | {d}


def test_relax_entry_matches_the_partition_search():
    # relax_entry checks a basis and the X-fragility of one display in
    # place of the partition search; over every field, on displays and on
    # random (C, D), dependent C included, both decide and build alike
    rng = Random(9)
    outcomes = Counter()
    for t in range(1200):
        F = (GF2, GF3, GF4)[t % 3]
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [f"r{i}" for i in range(nrows)]
        cols = [f"c{j}" for j in range(ncols)]
        density = rng.random()
        data = [[rng.randrange(1, F.order) if rng.random() < density else 0
                 for _ in cols] for _ in rows]
        if t % 2:
            M = ReprMatroid(LabeledMatrix(F, rows, cols, data))
            others = sorted(M.ground - set(rng.sample(sorted(M.ground), 2)))
            C = frozenset(e for e in others if rng.random() < 0.5)
            D = frozenset(others) - C
        else:
            c, d = rng.choice(rows), rng.choice(cols)
            data[rows.index(c)][cols.index(d)] = 0
            M = ReprMatroid(LabeledMatrix(F, rows, cols, data))
            C, D = frozenset(rows) - {c}, frozenset(cols) - {d}
        want = relax_by_partition_search(M, C, D)
        try:
            M1, M2, H = relax_entry(M, C, D)
            got = M1.rep, M2.rep, H
        except NotFragile:
            got = NotFragile
        assert got == want
        if sorted(M.minor(C, D).rank({x}) for x in M.ground - C - D) == [0, 1]:
            outcomes[F.order, got is NotFragile, M.rank(C) < len(C)] += 1
    for q in (2, 3, 4):
        assert outcomes[q, False, False] >= 40
        assert outcomes[q, True, False] + outcomes[q, True, True] >= 40
        assert outcomes[q, True, True] >= 10
    assert not any(outcomes[q, False, True] for q in (2, 3, 4))


def test_sweeps_make_no_rank_queries(monkeypatch):
    # free_extension and relax_entry certify by proofs: no rank query of
    # their own, and no rank table once the pair fragility is certified
    A = LabeledMatrix(GF3, ["r1", "r2", "r3"], ["a", "b", "x"],
                      [[1, 0, 2], [0, 1, 1], [1, 1, 0]])
    M = ReprMatroid(LabeledMatrix(GF2, ["a", "b"], ["c", "d"], [[0, 1], [1, 0]]))
    calls, tables = [], []
    watch(monkeypatch, (ReprMatroid, "rank"), calls)
    watch(monkeypatch, matrices.submatrix_rank, calls)
    watch(monkeypatch, matrices.rank_table, tables)
    free_extension(A, {"a", "b"}, "e")
    assert (calls, tables) == ([], [])
    # displayed with basis {a, b} = C + {c}: H = rows - {a} + {c}
    M1, M2, H = reductions._relax_entry(M, "a", "c", DEGREE_CAP_DEFAULT)
    assert H == {"b", "c"} and M1 is M
    assert (calls, tables) == ([], [])


# -- zero_out -----------------------------------------------------------------


def test_zero_out_block_already_zero():
    M = pair_matroid()
    N = isolated({"c"}, {"c", "d"})
    M2, A2 = zero_out(M, N)
    assert A2.rows == ("c",)
    assert A2.enc("c", "d") == 0
    assert M2.equals(M)


def test_zero_out_modifies_nonzero_block():
    gi = gen_random("nfragile", seed=1, q=2, rows=3, cols=3, minor_size=2)
    M = ReprMatroid(gi.instance.matrix)
    N = gi.instance.task.minor
    B = display_basis(M, N)
    before = M.rebase(B).rep
    rows = sorted(B & N.ground)
    cols = sorted(N.ground - B)
    assert any(before.enc(r, c) for r in rows for c in cols)  # seed picked for this
    M2, A2 = zero_out(M, N)
    assert all(A2.enc(r, c) == 0 for r in rows for c in cols)
    BN = B & N.ground
    assert M2.minor(contract=BN).equals(M.minor(contract=BN))
    assert is_N_fragile(M2, isolated(BN, N.ground))
    assert not M2.equals(M)


# -- collapse_side -----------------------------------------------------------


def test_collapse_side_singleton():
    M = pair_matroid()
    out = ReprMatroid(collapse_side(M.rep, {"c"}, {"d"}, "d2"))
    assert out.ground == {"c", "d2", "e"}
    assert out.field is GF2
    assert out.rank({"d2"}) == 0
    assert is_N_fragile(out, isolated({"c"}, {"c", "d2"}))


def test_collapse_side_errors(monkeypatch):
    # sides that overlap or leave the display's rows and columns, and a
    # new label already in use, are input errors: each row of
    # API_REFUSALS that collapse_side refuses is refused before a field
    # is extended or a display built, and with its own class, never as
    # a PostconditionViolation, which stands for a failed check alone
    for target in (extend_field, (LabeledMatrix, "_of_display")):
        watch(monkeypatch, target, [], key=forbid)
    cases = [case for case in API_REFUSALS if case.startswith("collapse-")]
    assert len(cases) == 8
    for case in cases:
        api_refusal(case)


def test_a_new_label_that_is_not_a_string_is_converted_once(monkeypatch):
    # a new label is made a str at each public entry point, as
    # LabeledMatrix does with its labels, before the collision checks and
    # the read-back; an int label works end to end
    A = LabeledMatrix(GF2, ["r1", "r2"], ["a", "b"], [[1, 0], [1, 1]])
    out = free_extension(A, ["a"], 5)
    assert out.cols == ("a", "b", "5")
    assert [out.enc(r, "5") for r in out.rows] == [A.enc(r, "a") for r in A.rows]
    # collapse_side converts it once, on entry: its extension gets the str
    A = pair_matroid().rep
    labels = []
    watch(monkeypatch, free_extension, labels, key=lambda A, X, e, **kwargs: e)
    out = collapse_side(A, {"c"}, {"d"}, 7)
    assert out == collapse_side(A, {"c"}, {"d"}, "7")
    assert out.cols == ("e", "7") and labels == ["7", "7"]


def test_public_collapses_run_above_the_equals_cap():
    # an 18-element display with a zero block on (X1, X2), 12 elements
    # outside the minor and |X2| = 5: no collapse compares matroids by
    # equals, which refuses more than 16 elements.  The loop collapse
    # builds the pipeline's loop stage, as the pipeline's search displays
    # A itself, and after the coloop collapse on the transposed display
    # the one partition the search admits still realises the pair alone
    gi = gen_random("xfragile", seed=0, q=2, rows=7, cols=11, x_rows=1, x_cols=5)
    A = gi.instance.matrix
    X1, X2 = frozenset({"r0"}), frozenset(f"c{j}" for j in range(5))
    assert len(A.rows) + len(A.cols) == 18
    loop = collapse_side(A, X1, X2, "d")
    both = collapse_side(loop.transpose(), {"d"}, X1, "c").transpose()
    tr = pipeline(ReprMatroid(A), isolated(X1, X1 | X2))
    assert [s.matroid.rep for s in tr.stages[:2]] == [A, loop]
    before = fragility.fragile_partitions(ReprMatroid(A), isolated(X1, X1 | X2))
    assert len(before) == 1
    assert fragility.fragile_partitions(ReprMatroid(both), isolated({"c"}, {"c", "d"})) == before


# -- relax_entry --------------------------------------------------------------


def test_relax_entry_frozen_pair():
    M = pair_matroid()
    M1, M2, H = relax_entry(M, (), {"e"})
    assert H == {"d"}
    assert M1.bases() == {frozenset({"c"}), frozenset({"e"})}
    assert M2.bases() == M1.bases() | {frozenset({"d"})}
    assert M2.field is GF4
    assert M2.rep.enc("c", "d") == 2  # the adjoined generator
    assert is_relaxation(M1, M2, H)


def test_relax_entry_frozen_two_by_two():
    # a = (1,0), b = (0,1), c = (0,1), d = (1,0); contract b, delete d
    A = LabeledMatrix(GF2, ["a", "b"], ["c", "d"], [[0, 1], [1, 0]])
    M = ReprMatroid(A)
    M1, M2, H = relax_entry(M, {"b"}, {"d"})
    assert H == {"b", "c"}
    assert M1.bases() | {frozenset({"b", "c"})} == M2.bases()
    assert M2.rep.enc("a", "c") == 2
    assert M1.is_circuit_hyperplane(H)
    assert not M2.is_circuit_hyperplane(H)


def test_relax_entry_makes_no_subset_query_on_the_matroid(monkeypatch):
    # the two singleton queries are on the minor M/C\D; whether C + {c}
    # is a basis of M is left to the pivots of `rebase`
    gi = gen_random("relax", seed=3, q=3, rows=3, cols=3)
    M, t = ReprMatroid(gi.instance.matrix), gi.instance.task
    queries = []
    watch(monkeypatch, (ReprMatroid, "rank"), queries,
          key=lambda self, X=None: (self, sorted(X) if X is not None else None))
    relax_entry(M, t.contract, t.delete)
    assert [X for _, X in queries] == [["c0"], ["r0"]]
    assert all(K is not M for K, _ in queries)


# -- pipeline -----------------------------------------------------------------


def test_pipeline_default_keeps_singleton_sides():
    M = pair_matroid()
    tr = pipeline(M, isolated({"c"}, {"c", "d"}))
    assert tr.displayed_basis == {"c"}
    assert tr.coloop_side == {"c"}
    assert tr.loop_side == {"d"}
    assert (tr.c_label, tr.d_label) == ("c", "d")
    assert tr.hyperplane == {"d"}
    assert tr.final_degree_over_input == 2
    assert tr.degree_bound == 8  # 2 k^2 with k = 2
    assert not tr.conformance
    assert [s.name for s in tr.stages] == [
        "zero_displayed_block",
        "collapse_loop_side",
        "collapse_coloop_side",
        "relax_entry",
    ]
    assert [s.degree_over_input for s in tr.stages] == [1, 1, 1, 2]
    assert is_relaxation(tr.relaxed, tr.relaxation, tr.hyperplane)


def test_pipeline_conformance_uniform_tower():
    M = pair_matroid()
    tr = pipeline(M, isolated({"c"}, {"c", "d"}), conformance=True)
    assert tr.conformance
    assert tr.final_degree_over_input == tr.degree_bound == 8
    assert [s.degree_over_input for s in tr.stages] == [1, 2, 4, 8]
    # collapsed sides get fresh labels, the original pair is gone
    assert tr.c_label not in M.ground
    assert tr.d_label not in M.ground
    assert tr.relaxation.ground == {tr.c_label, tr.d_label, "e"}


def test_pipeline_counts_past_taken_fresh_labels():
    # d and d1 are both in the ground set, so the collapsed loop side is d2
    M = ReprMatroid(LabeledMatrix(GF2, ["c"], ["d", "d1"], [[0, 1]]))
    tr = pipeline(M, isolated({"c"}, {"c", "d"}), conformance=True)
    assert (tr.c_label, tr.d_label, tr.hyperplane) == ("c1", "d2", frozenset({"d2"}))
    assert reductions._fresh_label("d", {"d", "d1", "d3"}) == "d2"


def test_common_minor_check_refuses_other_labels():
    # A on (C, D) = ({b}, {y}) against displays with other label sets
    A = LabeledMatrix(GF2, ["a", "b"], ["x", "y"], [[1, 0], [1, 1]])
    X1, X2 = frozenset({"a"}), frozenset({"x"})
    A1 = LabeledMatrix(GF2, ["b", "c"], ["y", "d"], [[1, 0], [0, 1]])
    assert reductions._keeps_minor(A, X1, X2, A1, {"c"}, {"d"})
    assert not reductions._keeps_minor(A, X1, X2, A1, {"e"}, {"d"})
    assert not reductions._keeps_minor(A, X1, X2, A1, {"c"}, {"d", "f"})


def test_pipeline_seeded_split_sides():
    gi = gen_random("pipeline", seed=2, q=2, rows=3, cols=3, minor_size=3)
    M = ReprMatroid(gi.instance.matrix)
    N = gi.instance.task.minor
    tr = pipeline(M, N)
    assert {len(tr.coloop_side), len(tr.loop_side)} == {1, 2}
    # 2 * max(1,|coloops|) * max(1,|loops|)
    assert tr.final_degree_over_input == 4
    assert [s.degree_over_input for s in tr.stages] == [1, 2, 2, 4]
    assert M.minor(tr.coloop_side, tr.loop_side).equals(
        tr.relaxed.minor({tr.c_label}, {tr.d_label})
    )


@pytest.mark.parametrize(
    "instance, conformance, collapsed",
    [
        ("singleton", False, 0),
        ("split", False, 1),
        ("singleton", True, 2),
        ("four", False, 2),
    ],
)
def test_pipeline_forwards_the_partition(monkeypatch, instance, conformance, collapsed):
    # one partition search, one basis read off it and one re-display, all
    # for the input inside zero_out; the stages after it are certified by
    # the zeroing and collapse lemmas, so no X-fragility check runs and no
    # partition is built after
    names = ("fragile_partitions", "display_basis", "partition_basis", "x_fragile_failure")
    calls = []
    inside = 0

    def zero_out_core(*args, **kwargs):
        nonlocal inside
        inside += 1
        try:
            return zero_out_(*args, **kwargs)
        finally:
            inside -= 1

    if instance == "singleton":
        M, N = pair_matroid(), isolated({"c"}, {"c", "d"})
    else:
        seed, rows, cols, k = (2, 3, 3, 3) if instance == "split" else (1, 4, 4, 4)
        gi = gen_random("pipeline", seed=seed, q=2, rows=rows, cols=cols, minor_size=k)
        M, N = ReprMatroid(gi.instance.matrix), gi.instance.task.minor
    targets = [(name, getattr(fragility, name)) for name in names]
    for name, target in targets + [("rebase", (ReprMatroid, "rebase"))]:
        watch(monkeypatch, target, calls, key=lambda *args, name=name, **kwargs: (name, inside > 0))
    zero_out_ = reductions.zero_out
    monkeypatch.setattr(reductions, "zero_out", zero_out_core)
    tr = pipeline(M, N, conformance=conformance)
    assert sum(not s.details.get("skipped") for s in tr.stages[1:3]) == collapsed
    assert Counter(calls) == {
        ("fragile_partitions", True): 1,
        ("partition_basis", True): 1,
        ("rebase", True): 1,
    }


def test_pipeline_seeded_conformance_exact_bound():
    gi = gen_random("pipeline", seed=2, q=2, rows=3, cols=3, minor_size=3)
    M = ReprMatroid(gi.instance.matrix)
    N = gi.instance.task.minor
    tr = pipeline(M, N, conformance=True)
    assert tr.degree_bound == 18  # k = 3
    assert tr.final_degree_over_input == 18
    assert [s.degree_over_input for s in tr.stages] == [1, 3, 9, 18]


def test_pipeline_degree_cap_is_2k2_in_both_modes():
    # k = 6 with sides 3 + 3: default mode reaches degree 2 * 3 * 3 = 18,
    # above the plain extension cap of 16, under the cap 2k^2 = 72 that
    # conformance mode reaches
    gi = gen_random("pipeline", seed=0, q=2, rows=5, cols=5, minor_size=6)
    M, N = ReprMatroid(gi.instance.matrix), gi.instance.task.minor
    for conformance, degrees in ((False, [1, 3, 9, 18]), (True, [1, 6, 36, 72])):
        tr = pipeline(M, N, conformance=conformance)
        assert (len(tr.coloop_side), len(tr.loop_side)) == (3, 3)
        assert [s.degree_over_input for s in tr.stages] == degrees
        assert tr.final_degree_over_input == degrees[-1] <= tr.degree_bound == 72
        assert is_relaxation(tr.relaxed, tr.relaxation, tr.hyperplane)


def test_pipeline_empty_minor():
    M = ReprMatroid(LabeledMatrix(GF2, [], [], []))
    N = isolated((), ())
    tr = pipeline(M, N)
    assert tr.relaxation.ground == {tr.c_label, tr.d_label}
    assert tr.final_degree_over_input == 2
    assert tr.degree_bound == 0  # vacuous for an empty minor


# -- each stage check refuses an injected fault ------------------------------


@cache
def four_element_pair():
    # displayed with rows r0, r1, c1, c2 and BN = {r0, c1}; both sides
    # collapse, and C = {r1, c2}, D = {c0, c3}
    gi = gen_random("pipeline", seed=1, q=2, rows=4, cols=4, minor_size=4)
    return ReprMatroid(gi.instance.matrix), gi.instance.task.minor


def on_pair(run, **kwargs):
    """A call of `run` on the four-element pair."""
    return lambda: run(*four_element_pair(), **kwargs)


def first(labels, inside=False):
    """The first label inside, or outside, E(N) + {c, d} of the
    four-element pair."""
    ground = four_element_pair()[1].ground | {"c", "d"}
    return next(x for x in labels if (x in ground) == inside)


def off_the_minor(A):
    """The first row and the first column of A outside E(N) + {c, d}."""
    return first(A.rows), first(A.cols)


def bumped(at, when=lambda A: True):
    """A fault for a function that returns a display: each display that
    `when` accepts gets one added to its entry at the labels `at(A)`."""
    def fault(original, fired):
        def changed(*args, **kwargs):
            out = original(*args, **kwargs)
            if when(out):
                r, c = at(out)
                fired.append((r, c))
                out = with_entry(out, r, c, out.field.add_enc(out.enc(r, c), 1))
            return out

        return changed

    return fault


def of_display_fault(fault):
    """A fault for `_of_display` as one for `reductions.LabeledMatrix`."""
    return lambda real, fired: Displays(fault(real._of_display, fired))


def relaxation_over(at, wrong):
    """A fault for `reductions.extend_field`: its `at`-th call, the
    relaxation's quadratic step over the entry field F, returns
    `wrong(step, F)`, with `step` that quadratic step: a field whose base
    is not F, so that theta's encoding cannot show it outside F."""
    def fault(extend, fired):
        calls = count(1)

        def extended(F, k, **kwargs):
            if next(calls) != at:
                return extend(F, k, **kwargs)
            F2 = wrong(lambda G: extend(G, 2, **kwargs), F)
            assert k == 2 and F2.base is not F
            fired.append(F2)
            return F2

        return extended

    return fault


def one_step_fields(collapse, fired):
    """A fault for `reductions.collapse_side`: each display put over the
    one-step field of its order.  The loop side's field is that field
    already, but the coloop side's, built over it, becomes a one-step
    field over GF(2), which is no tower over the stage before.  Every
    encoding stays in range, so the common minor, the final degree and
    the relaxation all pass; only the tower check refuses it."""
    def one_step(A, *args, **kwargs):
        out = collapse(A, *args, **kwargs)
        F = field_of_order(out.field.order)
        if out.cols[-1] == "c":
            assert out.field.base is A.field and F.base is GF2
            fired.append(F)
        else:
            assert F is out.field
        return LabeledMatrix._of_display(F, out.rows, out.cols, out._data)

    return one_step


def taller(relax, fired):
    """A fault for `reductions._relax_entry`: the relaxation's display put
    over a quadratic extension of its field, a tower over every stage
    before it, so that the final degree is twice the one promised."""
    def relaxed(*args):
        M1, M2, H = relax(*args)
        A2, F = M2.rep, extend_field(M2.field, 2)
        fired.append(F)
        return M1, ReprMatroid(LabeledMatrix._of_display(F, A2.rows, A2.cols, A2._data)), H

    return relaxed


EXTENDED = partial(free_extension, LabeledMatrix(GF3, ["r1", "r2"], ["a", "b"], [[1, 2], [0, 1]]),
                   ["a", "b"], "e")
RELAXED = partial(relax_entry, ReprMatroid(LabeledMatrix(GF4, ["c"], ["d", "e"], [[0, 1]])), (),
                  {"e"})

# case -> (owner, attribute, fault, calls, message).  `fault(original,
# fired)` is the stand-in for owner.attribute, and appends to `fired`
# each time its fault takes effect.  Each call runs clean, and then,
# with the stand-in in place, is refused by a stage check with
# `message`.
STAGE_FAULTS = {
    # the new column is read back in coordinates over the entry field:
    # one entry off by one, in the extension field or in the entry field
    **{f"new-column-{name}": (
        reductions, "LabeledMatrix", of_display_fault(bumped(lambda A: (A.rows[1], A.cols[-1]))),
        [partial(free_extension, LabeledMatrix(F, ["r1", "r2", "r3"], ["a", "b", "x"],
                                               [[1, 0, 1], [0, 1, 1], [1, 1, 0]]), X, "e")],
        r"entry \('r2', 'e'\) of the new column",
    ) for name, F, X in (("gf2-empty", GF2, ()), ("gf3-a", GF3, ("a",)),
                         ("gf2-ab", GF2, ("a", "b")), ("gf5-ax", GF5, ("a", "x")),
                         ("gf4-abx", GF4, ("a", "b", "x")))},
    # the read-back reads the new column by position, so the extended
    # display must keep A's labels in order and A's entries
    "extension-old-entry": (
        reductions, "LabeledMatrix", of_display_fault(bumped(lambda A: (A.rows[0], A.cols[0]))),
        [EXTENDED], "is not the display extended",
    ),
    "extension-rows-reordered": (
        reductions, "LabeledMatrix",
        of_display_fault(lambda build, fired: lambda field, rows, cols, data: fired.append(rows)
                         or build(field, rows[::-1], cols, data[::-1])),
        [EXTENDED], "is not the display extended",
    ),
    # the zeroing may write only into the block (BN, E(N) - BN): one
    # entry changed in a row outside BN, or in a row of BN at a column
    # outside E(N), which leaves M2/BN unchanged but breaks the zeroing
    # lemma's hypothesis, or one block entry left nonzero; r and c say
    # whether the entry's row and column lie in E(N)
    **{f"zeroing-{name}": (
        reductions, "LabeledMatrix",
        of_display_fault(bumped(lambda A, r=r, c=c: (first(A.rows, r), first(A.cols, c)))),
        [on_pair(zero_out), on_pair(pipeline)], "not the display with its block zeroed",
    ) for name, r, c in (("outside-bn", False, False), ("bn-row-outside-the-minor", True, False),
                         ("block-entry-nonzero", True, True))},
    # the loop side's extended display, or the coloop side's on the
    # transpose, with one entry changed on (C, D), or (D, C), off the new
    # column: that collapse's own literal check refuses it
    **{f"collapse-{side}-side-extension": (
        reductions, "free_extension", bumped(off_the_minor, lambda A, e=e: A.cols[-1] == e),
        [on_pair(pipeline)], "the collapse changed the common minor",
    ) for side, e in (("loop", "d"), ("coloop", "c"))},
    # the same change made to every extension: the loop side's check
    # refuses it before any other stage runs
    "collapse-every-extension": (
        reductions, "free_extension", bumped(off_the_minor),
        [on_pair(pipeline)], "changed the common minor",
    ),
    # a collapse's certified output reaching the chain with one entry
    # changed on (C, D): the loop side's display as `collapse_side`
    # returns it, or the coloop side's transposed back from A^T, with the
    # new coloop c on its rows.  M1 then differs from the zeroed display
    # on (C, D), and the literal common-minor check fails
    "common-minor-loop-side": (
        reductions, "collapse_side", bumped(off_the_minor, lambda A: "d" in A.cols),
        [on_pair(pipeline)], "lost the common minor",
    ),
    "common-minor-coloop-side": (
        LabeledMatrix, "transpose", bumped(off_the_minor, lambda A: "c" in A.rows),
        [on_pair(pipeline)], "lost the common minor",
    ),
    # A^T, the coloop collapse's input, with the new loop d on its rows:
    # the collapse keeps the changed entry, as its check compares its
    # output with its own input, and the common-minor check refuses it
    "coloop-side-input": (
        LabeledMatrix, "transpose", bumped(off_the_minor, lambda A: "d" in A.rows),
        [on_pair(pipeline)], "lost the common minor",
    ),
    # the coloop side's extension of A^T built with one old entry changed
    # on (D, C): free_extension's own check refuses it, so no display
    # that differs from A^T off the new column reaches the column drop
    "coloop-side-extended-display": (
        reductions, "LabeledMatrix",
        of_display_fault(bumped(off_the_minor, lambda A: A.cols[-1] == "c")),
        [on_pair(pipeline)], "is not the display extended",
    ),
    # the relaxation's quadratic extension replaced by F itself, which has
    # tower steps here, so that theta is F's own generator, or by a
    # quadratic step over F's quadratic extension: not one step over F,
    # in relax_entry and at the end of a pipeline, whose third extension
    # is the relaxation's, after one per collapse
    **{f"relaxation-field-{name}-{run}": (
        reductions, "extend_field", relaxation_over(at, wrong),
        [call], "not one step over the entry field",
    ) for name, wrong in (("the-entry-field", lambda step, F: F),
                          ("two-steps-over-it", lambda step, F: step(step(F))))
        for run, call, at in (("pipeline", on_pair(pipeline), 3), ("relax_entry", RELAXED, 1))},
    # one step over F whose generator is encoded 1, inside F
    "relaxation-generator": (
        FieldSpec, "gen",
        lambda gen, fired: property(lambda F: fired.append(F) or galois.FieldElem(F, 1)),
        [on_pair(pipeline), RELAXED], "generator lies in the entry field",
    ),
    "stage-tower": (
        reductions, "collapse_side", one_step_fields,
        [on_pair(pipeline), on_pair(pipeline, conformance=True)],
        r"not a tower over the one before: \['collapse_coloop_side'\]",
    ),
    # the final degree twice 2 * 1 * 1 in default mode, and twice 2k^2
    # with k = 2 in conformance mode
    **{f"final-degree-{mode}": (
        reductions, "_relax_entry", taller,
        [partial(pipeline, pair_matroid(), isolated({"c"}, {"c", "d"}), conformance=conformance)],
        f"final degree {2 * degree}, promised {degree}",
    ) for mode, conformance, degree in (("default", False, 2), ("conformance", True, 8))},
}


def refusal_lines(monkeypatch, case):
    """Run each call of `case` clean, then with its fault in place, where
    the fault must fire and a stage check refuse the call with the case's
    message; returns the line of reductions.py that raised, per call."""
    owner, attribute, fault, calls, message = STAGE_FAULTS[case]
    for call in calls:
        call()
    fired, lines = [], []
    with monkeypatch.context() as m:
        m.setattr(owner, attribute, fault(getattr(owner, attribute), fired))
        for call in calls:
            fired.clear()
            with pytest.raises(PostconditionViolation, match=message) as info:
                call()
            assert fired, f"{case}: the fault never took effect"
            frame = traceback.extract_tb(info.tb)[-1]
            lines.append((frame.filename, frame.lineno))
    return lines


@pytest.mark.parametrize("case", list(STAGE_FAULTS))
def test_a_stage_check_refuses_each_injected_fault(monkeypatch, case):
    refusal_lines(monkeypatch, case)


@pytest.mark.parametrize("conformance", [False, True])
def test_a_stage_field_that_is_no_tower_over_the_one_before_is_refused(monkeypatch, conformance):
    # the stage-tower row's fault in one mode at a time: the tower check
    # is the one that refuses the pipeline, in default and conformance mode
    fired = []
    monkeypatch.setattr(reductions, "collapse_side",
                        one_step_fields(reductions.collapse_side, fired))
    with pytest.raises(PostconditionViolation,
                       match=r"not a tower over the one before: \['collapse_coloop_side'\]"):
        pipeline(*four_element_pair(), conformance=conformance)
    assert [F.base for F in fired] == [GF2]


def test_every_stage_check_refuses_a_fault_of_the_table(monkeypatch):
    # every `raise PostconditionViolation(...)` of reductions.py, read off
    # its syntax tree, is the one that refuses the call of some row
    sites = {(reductions.__file__, line) for line, raised
             in raise_sites(reductions.__file__).items() if raised == "PostconditionViolation"}
    refused = {line for case in STAGE_FAULTS for line in refusal_lines(monkeypatch, case)}
    assert refused == sites, f"raised by no row: {sorted(sites - refused)}"


def test_pipeline_runs_above_the_equals_cap():
    # 12 elements outside the minor and |E| - |BN| = 17: the zeroing and
    # the common minor are checked literally, not by equals, which
    # refuses more than 16 elements
    gi = gen_random("xfragile", seed=0, q=2, rows=7, cols=11, x_rows=1, x_cols=5)
    M = ReprMatroid(gi.instance.matrix)
    N = isolated({"r0"}, {"r0"} | {f"c{j}" for j in range(5)})
    assert len(M.ground) == 18
    tr = pipeline(M, N)
    assert (tr.coloop_side, len(tr.loop_side)) == ({"r0"}, 5)
    assert tr.final_degree_over_input == 10
    assert M.minor(tr.coloop_side, tr.loop_side).equals(
        tr.relaxed.minor({tr.c_label}, {tr.d_label}))
    assert is_relaxation(tr.relaxed, tr.relaxation, tr.hyperplane)


def test_pipeline_and_collapse_side_make_no_equals_call(monkeypatch):
    M, N = four_element_pair()
    calls = []
    watch(monkeypatch, (ReprMatroid, "equals"), calls)
    for conformance in (False, True):
        pipeline(M, N, conformance=conformance)
    pipeline(pair_matroid(), isolated({"c"}, {"c", "d"}))
    Mz, Az = zero_out(M, N)
    B = frozenset(Az.rows)
    X1 = B & N.ground
    Aa = collapse_side(Az, X1, N.ground - B, "d")
    collapse_side(Aa.transpose(), {"d"}, X1, "c")
    collapse_side(pair_matroid().rep, {"c"}, {"d"}, "d2")
    assert calls == []


def test_pipeline_builds_no_dual(monkeypatch):
    # the coloop side collapses on the transposed display: no pipeline
    # calls `ReprMatroid.dual` or negates an entry of a field above the
    # input field, and over the prime field GF(3), whose pivots take
    # residues, no entry is negated at all.  Over GF(9) the input field's
    # pivots still negate
    duals, negs = [], []
    watch(monkeypatch, (ReprMatroid, "dual"), duals, key=lambda self: self.field)
    watch(monkeypatch, (FieldSpec, "neg_enc"), negs, key=lambda self, a: self)
    collapsed = Counter()
    for F, modes in ((GF3, (False, True)), (GF9, (False,))):
        for seed in range(20):
            rows, cols, k = 3 + seed % 2, 3 + seed // 2 % 2, 3 + seed // 4 % 2
            gi = gen_random("pipeline", seed=seed, q=F.order, rows=rows, cols=cols, minor_size=k)
            M, N = ReprMatroid(gi.instance.matrix), gi.instance.task.minor
            for conformance in modes:
                tr = pipeline(M, N, conformance=conformance)
                collapsed[F] += "collapsed" in tr.stages[2].details
    assert collapsed[GF3] >= 20 and collapsed[GF9] >= 10, collapsed
    assert not duals, duals
    assert set(negs) == {GF9} and negs.count(GF9) > 0, Counter(negs)


# -- no rank table after the partition search -------------------------------


def test_reference_pipeline_builds_no_rank_table(monkeypatch):
    # the reference pair (seed 1, GF(2), 8 x 8, k = 5): the search builds
    # no table, as over GF(2) each leaf re-displayed on N's basis is
    # decided by its display, and the zeroing and both collapses are
    # certified by their lemmas, so no stage builds one or runs an
    # X-fragility check
    gi = gen_random("pipeline", seed=1, q=2, rows=8, cols=8, minor_size=5)
    M, N = ReprMatroid(gi.instance.matrix), gi.instance.task.minor
    tables, checks = [], []
    watch(monkeypatch, matrices.rank_table, tables,
          key=lambda A, labels, *, contract=(): (len(labels), tuple(contract)))
    watch(monkeypatch, fragility.x_fragile_failure, checks)
    tr = pipeline(M, N)
    assert (sorted(tr.coloop_side), sorted(tr.loop_side)) == (["c0", "c3"], ["c4", "c6", "r7"])
    assert (tables, checks) == ([], [])


@pytest.mark.parametrize("conformance", [False, True])
def test_reference_pipeline_makes_one_rank_query(monkeypatch, conformance):
    # the reference pair again: the one subset rank query of a pipeline
    # is partition_basis's test that C is independent (the greedy scan of
    # E(N) it replaced made 6 here)
    gi = gen_random("pipeline", seed=1, q=2, rows=8, cols=8, minor_size=5)
    M, N = ReprMatroid(gi.instance.matrix), gi.instance.task.minor
    queries = []
    watch(monkeypatch, (ReprMatroid, "rank"), queries, key=lambda self, X=None: sorted(X))
    tr = pipeline(M, N, conformance=conformance)
    assert queries == [sorted(tr.displayed_basis - N.ground)]


# -- the lemmas that replace the stage checks ---------------------------------


@pytest.mark.parametrize("conformance", [False, True])
def test_every_stage_output_passes_the_full_check(conformance):
    # x_fragile_failure as the reference for what the zeroing and
    # collapse lemmas certify: over GF(2) to GF(5), the zeroed display is
    # fragile on E(N), each collapse output on its isolated minor (the
    # coloop side read on the dual) and M1 on {c, d}
    for q in (2, 3, 4, 5):
        for seed in range(6):
            k = 3 + seed % 2
            gi = gen_random("pipeline", seed=seed, q=q, rows=4, cols=4, minor_size=k)
            M, N = ReprMatroid(gi.instance.matrix), gi.instance.task.minor
            tr = pipeline(M, N, conformance=conformance)
            c, d = tr.c_label, tr.d_label
            zeroed, loop, coloop, _ = (s.matroid for s in tr.stages)
            assert fragility.x_fragile_failure(zeroed.rep, N.ground) is None
            assert fragility.x_fragile_failure(loop.rep, tr.coloop_side | {d}) is None
            assert fragility.x_fragile_failure(coloop.dual().rep, {c, d}) is None
            assert fragility.x_fragile_failure(tr.relaxed.rep, {c, d}) is None


def test_the_collapses_keep_the_partition_set():
    # collapse lemma: on every display of the scopes, with a zero block
    # on (X1, X2), fragile or not, the loop collapse and then the coloop
    # collapse, run on the transposed display and transposed back, keep
    # the set of partitions realising the isolated minor
    seen = Counter()
    for scope in SCOPES["collapse"]:
        X1, X2 = scope_x(scope)
        for A in scope_matrices(scope):
            M = ReprMatroid(A)
            before = fragility.fragile_partitions(M, isolated(X1, X1 | X2))
            assert matroids.MinorSpec(set(A.rows) - X1, set(A.cols) - X2) in before
            loop = ReprMatroid(collapse_side(A, X1, X2, "d"))
            both = ReprMatroid(collapse_side(loop.rep.transpose(), {"d"}, X1, "c").transpose())
            assert (fragility.fragile_partitions(loop, isolated(X1, X1 | {"d"}))
                    == fragility.fragile_partitions(both, isolated({"c"}, {"c", "d"}))
                    == before), entries(A)
            seen[scope.field.order, min(len(before), 2)] += 1
    assert seen == {
        (2, 1): 41, (2, 2): 312, (3, 1): 205, (3, 2): 327, (4, 1): 216, (4, 2): 104, (5, 1): 80,
        (5, 2): 45,
    }


def test_zeroing_keeps_only_partitions_realising_the_minor(monkeypatch):
    # zeroing lemma: with A displaying M on C0 + BN and N = M/C0\D0, every
    # partition realising isolated(BN, E(N)) after the zeroing realises N
    # in M, fragile or not; the zeroing may drop some, never add one, so a
    # fragile M zeroes to a fragile display.  Every display of the scopes
    # stands for the one the search finds: its partition, and its own
    # rows as the basis read off it
    monkeypatch.setattr(reductions, "fragile_partitions",
                        lambda M, N, cap: {matroids.MinorSpec(C0, D0)})
    monkeypatch.setattr(reductions, "partition_basis", lambda M, N, part: M.rep.rows)
    seen = Counter()
    for scope in SCOPES["zeroing"]:
        BN, cols = scope_x(scope)
        EN = BN | cols
        for A in scope_matrices(scope):
            M = ReprMatroid(A)
            C0, D0 = set(A.rows) - EN, set(A.cols) - EN
            N = M.minor(C0, D0)
            want = fragility.fragile_partitions(M, N)
            M2, A2 = zero_out(M, N)
            assert A2.rows == A.rows
            got = fragility.fragile_partitions(M2, isolated(BN, EN))
            assert matroids.MinorSpec(C0, D0) in got <= want, entries(A)
            seen[scope.field.order, min(len(want), 2), got < want] += 1
    assert seen == {
        (2, 1, False): 86, (2, 2, False): 122, (3, 1, False): 517, (3, 2, False): 805,
        (3, 2, True): 136, (4, 1, False): 90, (4, 2, False): 112, (4, 2, True): 54,
        (5, 1, False): 208, (5, 2, False): 225, (5, 2, True): 192,
    }


def shown(tr):
    """What a trace shows of each stage: its display's labels, in
    order, and entries, and its degree over the input field."""
    return [(s.matroid.rep.rows, s.matroid.rep.cols, entries(s.matroid.rep), s.degree_over_input)
            for s in tr.stages]


def check_output(tr, A):
    """The trace's output checked as the certify benchmark checks it:
    a relaxation, and the common minor kept."""
    assert is_relaxation(tr.relaxed, tr.relaxation, tr.hyperplane), entries(A)
    common = tr.input_matroid.minor(tr.coloop_side, tr.loop_side)
    assert common.equals(tr.relaxed.minor({tr.c_label}, {tr.d_label})), entries(A)


def test_pipeline_certifies_every_x_fragile_matrix_of_its_scopes(monkeypatch):
    # every matrix of the scopes, X its zero block: x_fragile_failure
    # against the subset loop, witness included, and on each X-fragile
    # one, pipeline(M, isolated(X & rows, X)) in both modes, its output
    # checked as the certify benchmark checks it.  Then every pipeline
    # again with each tower step on the lex-greatest irreducible
    # modulus: the certificate holds for every choice of moduli, so each
    # stage shows the same display and degree, and the output passes the
    # same checks on the new fields
    seen = Counter()
    runs = []
    for scope in SCOPES["pipeline"]:
        X1, X2 = scope_x(scope)
        X = X1 | X2
        for A in scope_matrices(scope):
            got = fragility.x_fragile_failure(A, X)
            assert got == x_fragile_failure_loop(A, X), entries(A)
            seen[scope.field.order, scope.cols, got and got[0]] += 1
            if got is not None:
                continue
            for conformance in (False, True):
                tr = pipeline(ReprMatroid(A), isolated(X1, X), conformance=conformance)
                check_output(tr, A)
                runs.append((A, X1, X, conformance, shown(tr), tr.relaxation.field))
    assert seen == {
        (2, 3, "rank_not_increased"): 242, (2, 3, None): 14, (2, 4, "rank_not_increased"): 148,
        (2, 4, None): 108, (3, 3, "rank_not_increased"): 5457, (3, 3, None): 1104,
    }
    monkeypatch.setattr(galois, "_canonical_modulus", cache(lex_greatest_modulus))
    moduli = Counter()
    for A, X1, X, conformance, canonical, field in runs:
        tr = pipeline(ReprMatroid(A), isolated(X1, X), conformance=conformance)
        assert shown(tr) == canonical, entries(A)
        check_output(tr, A)
        moduli[tr.relaxation.field is field, field.p, conformance] += 1
    # GF(2) in default mode extends only by GF(2)'s one quadratic, x^2+x+1
    assert moduli == {(True, 2, False): 14, (False, 2, False): 108, (False, 2, True): 122,
                      (False, 3, False): 1104, (False, 3, True): 1104}


def test_a_warm_pipeline_computes_in_its_input_field_only(monkeypatch):
    # each pair run once, which builds every tower (a walk for a
    # canonical modulus computes in the field below it), then again with
    # FieldSpec's element operations watched: no stage reads a modulus,
    # so a warm pipeline makes no operation outside its input field.
    # The pairs: every X-fragile case of the pipeline scopes in both
    # modes, and the ladder draws of size 4 to 10 over GF(2) and GF(3)
    cases = []
    for scope in SCOPES["pipeline"]:
        X1, X2 = scope_x(scope)
        for A in scope_matrices(scope):
            if fragility.x_fragile_failure(A, X1 | X2) is None:
                cases += [("scopes", ReprMatroid(A), isolated(X1, X1 | X2), conformance)
                          for conformance in (False, True)]
    cases += [("ladders", *ladder_draw(n, q), False) for n in range(4, 11) for q in (2, 3)]
    for _, M, N, conformance in cases:
        pipeline(M, N, conformance=conformance)
    log = []
    for name in ("add_enc", "sub_enc", "neg_enc", "mul_enc", "inv_enc", "pow_enc"):
        watch(monkeypatch, (FieldSpec, name), log, key=lambda F, *args, name=name: (name, F))
    outside = Counter()
    for kind, M, N, conformance in cases:
        pipeline(M, N, conformance=conformance)
        outside.update((kind, name) for name, F in log if F is not M.field)
        log.clear()
    assert Counter(kind for kind, *_ in cases) == {"scopes": 2452, "ladders": 14}
    assert not outside, outside


def test_pipeline_field_work_does_not_depend_on_string_hashing():
    # the rank oracle eliminates a set's columns in display order, not in
    # the set's iteration order, so 30 GF(3) pipelines make the same
    # number of field multiplications in fresh processes under every
    # hash seed
    code = """if True:
        from matroidfrag import ReprMatroid, gen_random, pipeline
        from matroidfrag.galois import FieldSpec
        pairs = []
        for seed in range(30):
            inst = gen_random("pipeline", seed=seed, q=3, rows=4, cols=5, minor_size=3).instance
            pairs.append((ReprMatroid(inst.matrix), inst.task.minor))
        calls = [0]
        mul = FieldSpec.mul_enc

        def counted(self, a, b):
            calls[0] += 1
            return mul(self, a, b)

        FieldSpec.mul_enc = counted
        for M, N in pairs:
            pipeline(M, N)
        print(calls[0])
    """
    src = Path(__file__).resolve().parent.parent / "src"
    counts = set()
    for hash_seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        counts.add(int(proc.stdout))
    assert len(counts) == 1 and counts.pop() > 0, counts


# -- the chain against a reference built from public operations -------------


def _negated_transpose(K):
    """K* displayed by -A^T, entry by entry from `transpose`."""
    T, F = K.rep.transpose(), K.field
    return ReprMatroid(LabeledMatrix(F, T.rows, T.cols,
                                     [[F.neg_enc(T.enc(r, c)) for c in T.cols] for r in T.rows]))


def _reference_collapse(K, X, e, d, dcap):
    """The free extension by `_placed`, with the column computed in the
    extension, then X deleted by `ReprMatroid.minor`."""
    F2 = extend_field(K.field, d, degree_cap=dcap)
    alphas = subfield_basis(F2, K.field)[:len(X)]
    lifted = LabeledMatrix(F2, K.rep.rows, K.rep.cols, K.rep._data)
    return ReprMatroid(_placed(lifted, X, alphas, e)).minor(delete=X)


def reference_chain(M, N, conformance):
    """`pipeline`'s displays, labels and details, rebuilt from public
    operations: the display basis, `rebase` and `with_entry` for the
    zeroing, `_reference_collapse` for the loop side, and for the coloop
    side on the negated transpose, and `with_entry` over F2 for the
    relaxation.  Returns the stages as (matroid, details, degree), then
    M1, M2, H, c and d."""
    k, base = len(N.ground), M.field
    dcap = max(DEGREE_CAP_DEFAULT, base.degree * 2 * k * k)
    Mz = M.rebase(display_basis(M, N))
    BN = N.ground & Mz.basis
    A = Mz.rep
    for r in sorted(BN):
        for c in sorted(N.ground - BN):
            A = with_entry(A, r, c, 0)
    cur = ReprMatroid(A)
    stages = [(cur, {"displayed_basis": sorted(Mz.basis)}, 1)]
    used, labels = set(M.ground), {}
    for key, side in (("d", N.ground - BN), ("c", BN)):
        if not conformance and len(side) == 1:
            labels[key], details = next(iter(side)), {"skipped": True}
        else:
            label, i = key, 0
            while label in used:
                i += 1
                label = f"{key}{i}"
            labels[key] = label
            used.add(label)
            d = k if conformance else max(1, len(side))
            if key == "d":
                cur = _reference_collapse(cur, side, label, d, dcap)
            else:
                cur = _negated_transpose(
                    _reference_collapse(_negated_transpose(cur), side, label, d, dcap))
            details = {"collapsed": sorted(side)}
        details[key] = labels[key]
        stages.append((cur, details, cur.field.degree // base.degree))
    c, d = labels["c"], labels["d"]
    F2 = extend_field(cur.field, 2, degree_cap=dcap)
    M2 = ReprMatroid(with_entry(cur.rep, c, d, F2.gen, F2))
    H = cur.basis - {c} | {d}
    stages.append((M2, {"hyperplane": sorted(H)}, stages[-1][2] * 2))
    return stages, cur, M2, H, c, d


def test_pipeline_matches_the_reference_chain_byte_for_byte():
    # 364 seeded pairs: over GF(2) to GF(5) in both degree modes, and in
    # default mode over GF(7), GF(8) and GF(9), whose negation on the
    # reference's coloop side acts digit by digit in GF(9) and its towers
    # (conformance towers over q > 5 spend minutes finding a canonical
    # modulus): every stage's display (field, labels in order, entries),
    # details and degree, and M1, M2, H, c and d, equal the reference
    # chain's, which collapses the coloop side on -A^T
    seen = Counter()
    runs = [(q, conf) for q in (2, 3, 4, 5) for conf in (False, True)] + [
        (q, False) for q in (7, 8, 9)]
    for q, conformance in runs:
        for seed in range(52):
            rows, cols, k = 3 + seed % 2, 3 + seed // 2 % 2, 3 + seed // 4 % 2
            gi = gen_random("pipeline", seed=seed, q=q, rows=rows, cols=cols, minor_size=k)
            M, N = ReprMatroid(gi.instance.matrix), gi.instance.task.minor
            tr = pipeline(M, N, conformance=conformance)
            stages, M1, M2, H, c, d = reference_chain(M, N, conformance)
            assert len(tr.stages) == len(stages) == 4
            for got, (matroid, details, degree) in zip(tr.stages, stages):
                assert got.matroid == matroid
                assert (got.details, got.degree_over_input) == (details, degree)
            assert (tr.relaxed, tr.relaxation, tr.hyperplane) == (M1, M2, H)
            assert (tr.c_label, tr.d_label) == (c, d)
            seen[q, conformance] += 1
            seen[q, "coloop collapsed"] += "collapsed" in tr.stages[2].details
            seen["skipped"] += sum("skipped" in s.details for s in tr.stages)
            seen["collapsed"] += sum("collapsed" in s.details for s in tr.stages)
    assert all(seen[run] == 52 for run in runs)
    assert all(seen[q, "coloop collapsed"] >= 26 for q in (2, 3, 4, 5, 7, 8, 9)), seen
    assert seen["skipped"] >= 50 and seen["collapsed"] >= 300, seen
