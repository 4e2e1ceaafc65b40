"""Reduction chain tests.

Small frozen instances first, then seeded random ones.  Every reduction
already re-verifies its own defining properties and raises
PostconditionViolation on failure, so a clean return is itself a
certificate; the assertions below pin the concrete outputs.
"""

from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from matroidfrag import (
    CapExceeded,
    InvalidArgs,
    LabelCollision,
    LabeledMatrix,
    NotFragile,
    PostconditionViolation,
    ReprMatroid,
    ToolkitError,
    UnknownLabel,
    collapse_side,
    display_basis,
    extend_field,
    free_extension,
    gen_random,
    is_N_fragile,
    is_relaxation,
    isolated,
    make_prime_field,
    pipeline,
    reduce_to_two,
    relax_entry,
    submatrix_rank,
    subsets_by_size,
    zero_out,
)
from matroidfrag import fragility, matrices, matroids, reductions
from matroidfrag.fragility import PARTITION_CAP_DEFAULT
from matroidfrag.galois import DEGREE_CAP_DEFAULT, subfield_basis

GF2 = make_prime_field(2)
GF3 = make_prime_field(3)
GF4 = extend_field(GF2, 2)
GF5 = make_prime_field(5)


# -- references: the subset sweeps that the stages' proofs replace -----------


def free_placement_failure(out, X, e):
    """The first way the column e of `out` fails to lie freely on the
    span of X, or None: the free-placement property as a loop of rank
    queries over every subset of the old elements."""
    Mn = ReprMatroid(out)
    Xf = frozenset(X)
    if Mn.rank(Xf | {e}) != Mn.rank(Xf):
        return "new element does not lie on the span of X"
    for S in subsets_by_size(out.labels() - {e}):
        rs = Mn.rank(S)
        if Mn.rank(S | {e}) == rs and Mn.rank(S | Xf) != rs:
            return f"subset {sorted(S)} spans the new element but not all of X"
    return None


def relax_sweep_failure(A1, A2, c, d):
    """The first subset breaking the rank-difference pattern that
    relax_entry's proof derives, or None: the submatrix ranks of A1 and
    A2 must differ at {c, d} alone."""
    pair = frozenset({c, d})
    for Z in subsets_by_size(A1.labels()):
        differs = submatrix_rank(A1, Z) != submatrix_rank(A2, Z)
        if differs != (Z == pair):
            return f"rank difference pattern wrong at {sorted(Z)}"
    return None


def pair_matroid():
    # c coloop-side row, d loop, e parallel to c; fragile for (c, d)
    return ReprMatroid(LabeledMatrix(GF2, ["c"], ["d", "e"], [[0, 1]]))


# -- free_extension ---------------------------------------------------------


def test_free_extension_two_flat_frozen():
    A = LabeledMatrix(GF2, ["r1", "r2"], ["a", "b"], [[1, 0], [0, 1]])
    out = free_extension(A, {"a", "b"}, "e")
    # coefficients are the power basis 1, w of GF(4)
    assert out.field is GF4
    assert out.column_encs("e") == (1, 2)
    assert out.cols == ("a", "b", "e")
    M = ReprMatroid(out)
    assert M.rank({"a", "b", "e"}) == 2
    assert M.rank({"a", "e"}) == 2  # e is on no proper subflat


def test_free_extension_empty_flat_is_loop():
    A = LabeledMatrix(GF2, ["r1"], ["a"], [[1]])
    out = free_extension(A, (), "e")
    assert out.field is GF2
    assert out.column_encs("e") == (0,)


def test_free_extension_singleton_is_parallel_copy():
    A = LabeledMatrix(GF2, ["r1", "r2"], ["a", "b"], [[1, 0], [1, 1]])
    out = free_extension(A, {"a"}, "e")
    assert out.field is GF2
    assert out.column_encs("e") == out.column_encs("a")


def test_free_extension_degree_override():
    A = LabeledMatrix(GF2, ["r1"], ["a"], [[1]])
    out = free_extension(A, {"a"}, "e", degree=2)
    assert out.field is GF4
    assert out.column_encs("e") == out.column_encs("a")
    with pytest.raises(InvalidArgs):
        free_extension(A, {"a"}, "e", degree=0)


def test_free_extension_degree_below_flat_size():
    A = LabeledMatrix(GF2, ["r1", "r2"], ["a", "b"], [[1, 0], [0, 1]])
    with pytest.raises(InvalidArgs):
        free_extension(A, {"a", "b"}, "e", degree=1)


def test_free_extension_label_checks():
    A = LabeledMatrix(GF2, ["r1"], ["a"], [[1]])
    with pytest.raises(UnknownLabel):
        free_extension(A, {"r1"}, "e")  # rows are not a flat of columns
    with pytest.raises(LabelCollision):
        free_extension(A, {"a"}, "a")


def _placed(A, X, alphas):
    """[I | A] lifted to the field of `alphas`, with a column e equal to
    the sum of alpha_v times the column of v over the sorted X."""
    F2 = alphas[0].spec if alphas else A.field
    lifted = A.lift(F2)
    column = []
    for r in A.rows:
        acc = 0
        for a, v in zip(alphas, sorted(X)):
            acc = F2.add_enc(acc, F2.mul_enc(a.enc, lifted.enc(r, v)))
        column.append(acc)
    return lifted.with_column("e", column)


def test_free_extension_failures_match_the_reference(monkeypatch):
    # the read-back is the one check, and it admits no false accept.  With
    # the real power basis every draw is accepted and the reference finds
    # no failing subset.  With dependent coefficients (all one, which put
    # e on a proper subflat of X's span) every draw is either refused by
    # the read-back or returns exactly the real column; most are refused
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
    with monkeypatch.context() as m:
        m.setattr(reductions, "subfield_basis", lambda ext, over: [ext.one] * 8)
        for (A, X), want in zip(draws, real):
            try:
                got = free_extension(A, X, "e")
            except PostconditionViolation as err:
                assert "of the new column is not the combination of X's columns" in str(err)
                refused += 1
            else:
                assert got == want
    assert refused >= 300


@pytest.mark.parametrize("field, X", [
    (GF2, ()), (GF3, ("a",)), (GF2, ("a", "b")), (GF5, ("a", "x")), (GF4, ("a", "b", "x")),
], ids=["gf2-empty", "gf3-a", "gf2-ab", "gf5-ax", "gf4-abx"])
def test_a_changed_entry_of_the_new_column_is_refused(monkeypatch, field, X):
    # the column is read back in coordinates over the entry field: one
    # entry off by one, in the extension field or in the entry field
    # itself, is refused inside free_extension
    A = LabeledMatrix(field, ["r1", "r2", "r3"], ["a", "b", "x"],
                      [[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    free_extension(A, X, "e")
    with_column = LabeledMatrix.with_column

    def off_by_one(self, label, encs):
        encs = list(encs)
        encs[1] = self.field.add_enc(encs[1], 1)
        return with_column(self, label, encs)

    monkeypatch.setattr(reductions.LabeledMatrix, "with_column", off_by_one)
    with pytest.raises(PostconditionViolation, match=r"entry \('r2', 'e'\) of the new column"):
        free_extension(A, X, "e")


def test_relax_and_free_extension_run_above_sixteen_elements():
    # 17 elements, one row and 16 parallel columns: no sweep cap is left
    A = LabeledMatrix(GF2, ["r"], [f"c{j:02d}" for j in range(16)], [[1] * 16])
    out = free_extension(A, {"c00", "c01"}, "e")
    assert out.field is GF4
    assert out.column_encs("e") == (3,)  # 1 + w
    # the pair (c, d) with fifteen copies of c is fragile; the relax stage
    # is bounded only by its partition cap on the labels outside the pair
    es = [f"e{j:02d}" for j in range(1, 16)]
    M = ReprMatroid(LabeledMatrix(GF2, ["c"], ["d"] + es, [[0] + [1] * 15]))
    with pytest.raises(CapExceeded, match="partition cap 12"):
        relax_entry(M, (), es, cap=12)
    M1, M2, H = relax_entry(M, (), es, cap=15)
    assert H == {"d"}
    assert M1.rep == M.rep
    assert M2.rep == M.rep.lift(GF4).set_entry("c", "d", GF4.gen)


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
        A2 = A1.lift(F2).set_entry(c, d, F2.gen)
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
    return A1, A1.lift(F2).set_entry(c, d, F2.gen), C | {d}


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
    calls = 0
    tables = 0

    def counted(fn):
        def wrapper(*args, **kwargs):
            nonlocal calls
            calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_table(*args, **kwargs):
        nonlocal tables
        tables += 1
        return rank_table(*args, **kwargs)

    rank_table = matrices.rank_table
    monkeypatch.setattr(ReprMatroid, "rank", counted(ReprMatroid.rank))
    for module in (matrices, fragility, reductions, matroids):
        monkeypatch.setattr(module, "submatrix_rank", counted(matrices.submatrix_rank),
                            raising=False)
        monkeypatch.setattr(module, "rank_table", counted_table, raising=False)

    A = LabeledMatrix(GF3, ["r1", "r2", "r3"], ["a", "b", "x"],
                      [[1, 0, 2], [0, 1, 1], [1, 1, 0]])
    free_extension(A, {"a", "b"}, "e")
    assert (calls, tables) == (0, 0)
    M = ReprMatroid(LabeledMatrix(GF2, ["a", "b"], ["c", "d"], [[0, 1], [1, 0]]))
    # displayed with basis {a, b} = C + {c}: H = rows - {a} + {c}
    M1, M2, H = reductions._relax_entry(M, "a", "c", DEGREE_CAP_DEFAULT)
    assert H == {"b", "c"} and M1 is M
    assert (calls, tables) == (0, 0)


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


def test_zero_out_rejects_non_fragile():
    M = isolated({"c"}, {"c", "d", "e"})  # two partitions
    with pytest.raises(NotFragile):
        zero_out(M, isolated({"c"}, {"c", "d"}))


# -- collapse_side / reduce_to_two -------------------------------------------


def test_collapse_side_singleton():
    M = pair_matroid()
    out = collapse_side(M, {"c"}, {"d"}, "d2")
    assert out.ground == {"c", "d2", "e"}
    assert out.field is GF2
    assert out.rank({"d2"}) == 0
    assert is_N_fragile(out, isolated({"c"}, {"c", "d2"}))


def test_collapse_side_errors():
    M = pair_matroid()
    with pytest.raises(LabelCollision):
        collapse_side(M, {"c"}, {"d"}, "e")
    with pytest.raises(InvalidArgs):
        collapse_side(M, {"c"}, {"c"}, "d2")
    with pytest.raises(NotFragile):
        collapse_side(isolated({"c"}, {"c", "d", "e"}), {"c"}, {"d"}, "d2")


def test_reduce_to_two_relabels_pair():
    M = pair_matroid()
    out = reduce_to_two(M, {"c"}, {"d"}, "c2", "d2")
    assert out.ground == {"c2", "d2", "e"}
    assert out.field is GF2  # both sides singletons: degree 1 * 1
    assert out.minor({"c2"}, {"d2"}).equals(M.minor({"c"}, {"d"}))
    with pytest.raises(LabelCollision):
        reduce_to_two(M, {"c"}, {"d"}, "x", "x")
    with pytest.raises(LabelCollision):
        reduce_to_two(M, {"c"}, {"d"}, "e", "d2")
    with pytest.raises(NotFragile):
        reduce_to_two(isolated({"c"}, {"c", "d", "e"}), {"c"}, {"d"}, "c2", "d2")


def test_reduce_to_two_checks_arguments_in_order():
    # c == d, then c or d in the ground set, then overlapping sides: an
    # input breaking several rules raises for the first of them
    M = pair_matroid()
    with pytest.raises(LabelCollision, match="distinct"):
        reduce_to_two(M, {"c"}, {"c"}, "e", "e")
    with pytest.raises(LabelCollision, match="already in the ground set"):
        reduce_to_two(M, {"c"}, {"c"}, "e", "d2")
    with pytest.raises(LabelCollision, match="already in the ground set"):
        reduce_to_two(isolated({"c"}, {"c", "d", "e"}), {"c"}, {"d"}, "c2", "e")
    with pytest.raises(InvalidArgs, match="sides overlap"):
        reduce_to_two(isolated({"c"}, {"c", "d", "e"}), {"c", "d"}, {"d"}, "c2", "d2")


def display_by_partition_search(M, X1, X2):
    """M re-displayed by the one partition (C, D) realising the isolated
    minor on X1 + X2, rows C + X1: a partition search, the basis read
    off it and a rebase, without zeroing anything."""
    N = isolated(X1, X1 | X2)
    parts = fragility.fragile_partitions(M, N)
    if len(parts) != 1:
        raise NotFragile(f"{len(parts)} partitions realise the isolated minor")
    return M.rebase(fragility.partition_basis(M, N, next(iter(parts))))


def collapse_by_partition_search(M, X1, X2, d):
    """collapse_side on the display above, and reduce_to_two below on
    it, with their argument checks in order and no zero_out."""
    X1, X2 = frozenset(X1), frozenset(X2)
    if X1 & X2:
        raise InvalidArgs("sides overlap")
    if d in M.ground:
        raise LabelCollision(d)
    return reductions._collapse_side(display_by_partition_search(M, X1, X2), X1, X2, d,
                                     None, DEGREE_CAP_DEFAULT)


def reduce_by_partition_search(M, X1, X2, c, d):
    X1, X2 = frozenset(X1), frozenset(X2)
    if c == d or c in M.ground or d in M.ground:
        raise LabelCollision(c)
    if X1 & X2:
        raise InvalidArgs("sides overlap")
    Ma = collapse_by_partition_search(M, X1, X2, d)
    return reductions._collapse_side(Ma.dual(), frozenset({d}), X1, c,
                                     None, DEGREE_CAP_DEFAULT).dual()


def _outcome(fn, *args):
    try:
        return fn(*args).rep
    except ToolkitError as exc:
        return type(exc)


def test_public_collapses_match_the_partition_search_display():
    # collapse_side and reduce_to_two display their input by the search
    # zero_out shares: on displayed and on re-based inputs, with sides
    # that are and are not a fragile isolated minor, both build and
    # refuse as the reference does
    rng = Random(10)
    outcomes = Counter()
    for t in range(480):
        F = (GF2, GF3)[t % 2]
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [f"r{i}" for i in range(nrows)]
        cols = [f"c{j}" for j in range(ncols)]
        X1 = frozenset(x for x in rows if rng.random() < 0.5)
        X2 = frozenset(x for x in cols if rng.random() < 0.5)
        density = rng.random()
        data = [[0 if r in X1 and c in X2 else
                 rng.randrange(1, F.order) if rng.random() < density else 0
                 for c in cols] for r in rows]
        M = ReprMatroid(LabeledMatrix(F, rows, cols, data))
        if t % 4 >= 2:
            order = sorted(M.ground)
            rng.shuffle(order)
            B = set()
            for e in order:
                if M.rank(B | {e}) > len(B):
                    B.add(e)
            M = M.rebase(B)
        if t % 13 == 0:
            X2 = X2 | set(rng.sample(sorted(M.ground), 1))  # may overlap X1
        c, d = ("c", "d") if t % 11 else (rng.choice(sorted(M.ground)), "d")
        for got, want in (
            (_outcome(collapse_side, M, X1, X2, d),
             _outcome(collapse_by_partition_search, M, X1, X2, d)),
            (_outcome(reduce_to_two, M, X1, X2, c, d),
             _outcome(reduce_by_partition_search, M, X1, X2, c, d)),
        ):
            assert got == want
            outcomes[F.order, want if isinstance(want, type) else "built"] += 1
    for q in (2, 3):
        assert outcomes[q, "built"] >= 40
        assert outcomes[q, NotFragile] >= 40
    assert outcomes[2, InvalidArgs] + outcomes[3, InvalidArgs] >= 1
    assert outcomes[2, LabelCollision] + outcomes[3, LabelCollision] >= 1


def test_public_collapses_run_above_the_equals_cap():
    # 12 elements outside the minor and |X2| = 5: the partition search
    # admits it, and no stage compares matroids by equals, which refuses
    # more than 16 elements, so both build what the reference builds
    gi = gen_random("xfragile", seed=0, q=2, rows=7, cols=11, x_rows=1, x_cols=5)
    M = ReprMatroid(gi.instance.matrix)
    X1, X2 = {"r0"}, {f"c{j}" for j in range(5)}
    assert len(M.ground) == 18
    assert collapse_side(M, X1, X2, "d").rep == \
        collapse_by_partition_search(M, X1, X2, "d").rep
    assert reduce_to_two(M, X1, X2, "c", "d").rep == \
        reduce_by_partition_search(M, X1, X2, "c", "d").rep


def test_reduce_to_two_forwards_the_dual_certificate(monkeypatch):
    # one partition search for the input; each collapse keeps the set of
    # realising partitions (the collapse lemma), the dual one in the dual,
    # so no search follows either
    from matroidfrag import fragility, reductions

    gi = gen_random("pipeline", seed=1, q=2, rows=4, cols=4, minor_size=4)
    M, N = ReprMatroid(gi.instance.matrix), gi.instance.task.minor
    Mz, Az = zero_out(M, N)
    B = frozenset(Az.rows)
    X1, X2 = B & N.ground, N.ground - B
    # the public stages, each searching afresh, give the same matroid
    Ma = collapse_side(Mz, X1, X2, "d")
    want = collapse_side(Ma.dual(), {"d"}, X1, "c").dual()

    calls = 0
    search = fragility.fragile_partitions

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(fragility, "fragile_partitions", counted)
    monkeypatch.setattr(reductions, "fragile_partitions", counted)
    out = reduce_to_two(Mz, X1, X2, "c", "d")
    assert calls == 1
    assert out.rep == want.rep
    assert is_N_fragile(out, isolated({"c"}, {"c", "d"}))


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


def test_relax_entry_rejections():
    M = pair_matroid()
    with pytest.raises(NotFragile):
        relax_entry(M, (), ())  # three elements left
    with pytest.raises(NotFragile):
        relax_entry(M, {"e"}, ())  # both leftovers are loops
    with pytest.raises(NotFragile):
        relax_entry(isolated({"c"}, {"c", "d", "e"}), (), {"e"})  # two partitions
    with pytest.raises(InvalidArgs):
        relax_entry(M, {"e"}, {"e"})
    # C + {c} is not a basis: too large, or of the right size with C a
    # loop; `rebase` refuses both and relax_entry says so as NotFragile
    for M, D in ((isolated({"c"}, {"c", "d", "e"}), set()),
                 (isolated({"c", "x"}, {"c", "d", "e", "x"}), {"x"})):
        with pytest.raises(NotFragile, match="not fragile for the pair"):
            relax_entry(M, {"e"}, D)


def test_relax_entry_makes_no_subset_query_on_the_matroid(monkeypatch):
    # the two singleton queries are on the minor M/C\D; whether C + {c}
    # is a basis of M is left to the pivots of `rebase`
    queries = []
    rank = ReprMatroid.rank

    def recorded(self, X=None):
        queries.append((self, sorted(X) if X is not None else None))
        return rank(self, X)

    monkeypatch.setattr(ReprMatroid, "rank", recorded)
    gi = gen_random("relax", seed=3, q=3, rows=3, cols=3)
    M, t = ReprMatroid(gi.instance.matrix), gi.instance.task
    queries.clear()
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
    # for the input inside _zero_out; the stages after it are certified by
    # the zeroing and collapse lemmas, so no X-fragility check runs and no
    # partition is built after
    from matroidfrag import fragility, reductions

    names = ("fragile_partitions", "display_basis", "partition_basis", "x_fragile_failure")
    calls = Counter()
    inside = 0

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name, inside > 0] += 1
            return fn(*args, **kwargs)

        return wrapper

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
    # both bindings, so calls through is_N_fragile count as well
    for name in names:
        wrapped = counted(name, getattr(fragility, name))
        monkeypatch.setattr(fragility, name, wrapped)
        monkeypatch.setattr(reductions, name, wrapped, raising=False)
    monkeypatch.setattr(ReprMatroid, "rebase", counted("rebase", ReprMatroid.rebase))
    zero_out_ = reductions._zero_out
    monkeypatch.setattr(reductions, "_zero_out", zero_out_core)
    tr = pipeline(M, N, conformance=conformance)
    assert sum(not s.details.get("skipped") for s in tr.stages[1:3]) == collapsed
    assert dict(calls) == {
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
    with pytest.raises(InvalidArgs):
        pipeline(M, N, conformance=True)


def test_pipeline_rejects_non_fragile():
    M = ReprMatroid(LabeledMatrix(GF2, ["a"], ["b", "c"], [[1, 1]]))
    with pytest.raises(NotFragile):
        pipeline(M, isolated({"a"}, {"a", "b"}))


def test_pipeline_respects_partition_cap():
    from matroidfrag import CapExceeded

    M = pair_matroid()
    with pytest.raises(CapExceeded):
        pipeline(M, isolated({"c"}, {"c", "d"}), cap=0)


# -- literal contraction checks ----------------------------------------------


def four_element_pair():
    # displayed with rows r0, r1, c1, c2 and BN = {r0, c1}; both sides
    # collapse, and C = {r1, c2}, D = {c0, c3}
    gi = gen_random("pipeline", seed=1, q=2, rows=4, cols=4, minor_size=4)
    return ReprMatroid(gi.instance.matrix), gi.instance.task.minor


def test_zeroing_outside_the_minor_basis_is_refused(monkeypatch):
    # the zeroing may write only into the block on (BN, E(N) - BN): one
    # entry changed in a row outside BN fails the literal check, and so
    # does one in a row of BN at a column outside E(N), which leaves
    # M2/BN unchanged but breaks the zeroing lemma's hypothesis
    M, N = four_element_pair()
    zero_out(M, N)
    build = reductions.LabeledMatrix
    for in_bn in (False, True):
        def leaky(field, rows, cols, data):
            data = [list(row) for row in data]
            i = next(i for i, r in enumerate(rows) if (r in N.ground) == in_bn)
            j = next(j for j, c in enumerate(cols) if c not in N.ground)
            data[i][j] = field.add_enc(data[i][j], 1)
            return build(field, rows, cols, data)

        monkeypatch.setattr(reductions, "LabeledMatrix", leaky)
        for run in (zero_out, pipeline):
            with pytest.raises(PostconditionViolation,
                               match="not the display with its block zeroed"):
                run(M, N)


@pytest.mark.parametrize("stage", ["pipeline", "reduce_to_two"])
@pytest.mark.parametrize("which", [1, 2])
def test_a_changed_entry_on_the_common_minor_is_refused(monkeypatch, stage, which):
    # one collapse returns its certified output with one entry changed
    # off the collapsed side and the new element: on (C, D) for the loop
    # side, with rows C + X1 and columns D + {d}, and on (D, C) for the
    # coloop side in the dual, with rows D + {d} and columns C + {c}.
    # Either way M1 differs from the input display in one entry on (C, D),
    # and the literal common-minor check fails
    M, N = four_element_pair()
    if stage == "pipeline":
        def run():
            return pipeline(M, N)
        message = "lost the common minor"
    else:
        Mz, Az = zero_out(M, N)
        B = frozenset(Az.rows)

        def run():
            return reduce_to_two(Mz, B & N.ground, N.ground - B, "c", "d")
        message = "does not match the original minor"
    run()
    collapse = reductions._collapse_side
    calls = []

    def changed(M, X1, X2, d, *args):
        out = collapse(M, X1, X2, d, *args)
        calls.append(d)
        if len(calls) == which:
            A = out.rep
            r = next(x for x in A.rows if x not in X1)
            c = next(x for x in A.cols if x != d)
            out = ReprMatroid(A.set_entry(r, c, A.field.add_enc(A.enc(r, c), 1)))
        return out

    monkeypatch.setattr(reductions, "_collapse_side", changed)
    with pytest.raises(PostconditionViolation, match=message):
        run()
    assert len(calls) == 2
    if which == 2:
        return
    # the same change made inside the loop-side collapse, to the column
    # free_extension returns: that stage's own literal check refuses it,
    # and no X-fragility check runs, in zero_out or after it
    monkeypatch.setattr(reductions, "_collapse_side", collapse)
    extend = reductions.free_extension
    checks = []

    def changed_extension(A, X, e, **kwargs):
        out = extend(A, X, e, **kwargs)
        r = next(x for x in out.rows if x not in N.ground)
        c = next(x for x in out.cols if x not in N.ground and x != e)
        return out.set_entry(r, c, out.field.add_enc(out.enc(r, c), 1))

    monkeypatch.setattr(reductions, "free_extension", changed_extension)
    monkeypatch.setattr(reductions, "x_fragile_failure",
                        lambda *a, **k: checks.append(a) or fragility.x_fragile_failure(*a, **k))
    with pytest.raises(PostconditionViolation, match="changed the common minor"):
        run()
    assert checks == []


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


def test_pipeline_and_reduce_to_two_make_no_equals_call(monkeypatch):
    calls = 0
    equals = ReprMatroid.equals

    def counted(self, other):
        nonlocal calls
        calls += 1
        return equals(self, other)

    monkeypatch.setattr(ReprMatroid, "equals", counted)
    M, N = four_element_pair()
    for conformance in (False, True):
        pipeline(M, N, conformance=conformance)
    pipeline(pair_matroid(), isolated({"c"}, {"c", "d"}))
    Mz, Az = zero_out(M, N)
    B = frozenset(Az.rows)
    reduce_to_two(Mz, B & N.ground, N.ground - B, "c", "d")
    reduce_to_two(pair_matroid(), {"c"}, {"d"}, "c2", "d2")
    assert calls == 0


# -- no rank table after the partition search -------------------------------


def test_reference_pipeline_builds_no_rank_table(monkeypatch):
    # the reference pair (seed 1, GF(2), 8 x 8, k = 5): the search builds
    # no table, as over GF(2) each leaf re-displayed on N's basis is
    # decided by its display, and the zeroing and both collapses are
    # certified by their lemmas, so no stage builds one or runs an
    # X-fragility check
    gi = gen_random("pipeline", seed=1, q=2, rows=8, cols=8, minor_size=5)
    M, N = ReprMatroid(gi.instance.matrix), gi.instance.task.minor
    rank_table = matrices.rank_table
    tables, checks = [], []

    def recorded(A, labels, *, contract=()):
        tables.append((len(labels), tuple(contract)))
        return rank_table(A, labels, contract=contract)

    for module in (fragility, matroids):
        monkeypatch.setattr(module, "rank_table", recorded)
    monkeypatch.setattr(reductions, "x_fragile_failure",
                        lambda *a, **k: checks.append(a) or fragility.x_fragile_failure(*a, **k))
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
    rank, queries = ReprMatroid.rank, []

    def recorded(self, X=None):
        if X is not None:
            queries.append(sorted(X))
        return rank(self, X)

    monkeypatch.setattr(ReprMatroid, "rank", recorded)
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


LEMMA_FIELDS = (GF2, GF3, GF4, GF5)


@st.composite
def zero_block_displays(draw):
    """A matrix of at most 4 x 5 over GF(2), GF(3), GF(4) or GF(5) and a
    flag for each label: whether it lies in X, the labels of the minor."""
    F = draw(st.sampled_from(range(len(LEMMA_FIELDS))))
    m = draw(st.integers(0, 4))
    n = draw(st.integers(0, 5))
    entries = st.integers(0, LEMMA_FIELDS[F].order - 1)
    data = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return F, data, n, draw(st.lists(st.booleans(), min_size=m + n, max_size=m + n))


def build_display(F, data, n, inside):
    """The matroid of the drawn matrix, with X1 the rows and X2 the
    columns flagged as inside X."""
    rows = [f"r{i}" for i in range(len(data))]
    cols = [f"c{j}" for j in range(n)]
    flagged = {e for e, f in zip(rows + cols, inside) if f}
    M = ReprMatroid(LabeledMatrix(LEMMA_FIELDS[F], rows, cols, data))
    return M, flagged & set(rows), flagged & set(cols)


def test_the_collapses_keep_the_partition_set():
    # collapse lemma: on a display with a zero block on (X1, X2), fragile
    # or not, the loop collapse and then the coloop collapse, run on the
    # dual, keep the set of partitions realising the isolated minor
    seen = Counter()

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(zero_block_displays())
    def check(case):
        M, X1, X2 = build_display(*case)
        X1, X2 = frozenset(sorted(X1)[:2]), frozenset(sorted(X2)[:2])
        A = M.rep
        for r in X1:
            for c in X2:
                A = A.set_entry(r, c, 0)
        M = ReprMatroid(A)
        before = fragility.fragile_partitions(M, isolated(X1, X1 | X2))
        assert matroids.MinorSpec(set(A.rows) - X1, set(A.cols) - X2) in before
        loop = reductions._collapse_side(M, X1, X2, "d", None, DEGREE_CAP_DEFAULT)
        assert fragility.fragile_partitions(loop, isolated(X1, X1 | {"d"})) == before
        both = reductions._collapse_side(
            loop.dual(), frozenset({"d"}), X1, "c", None, DEGREE_CAP_DEFAULT).dual()
        assert fragility.fragile_partitions(both, isolated({"c"}, {"c", "d"})) == before
        seen[A.field.order, min(len(before), 2)] += 1

    check()
    for q in (2, 3, 4, 5):
        assert seen[q, 1] >= 10 and seen[q, 2] >= 10, seen


def test_zeroing_keeps_only_partitions_realising_the_minor(monkeypatch):
    # zeroing lemma: with A displaying M on C0 + BN and N = M/C0\D0, every
    # partition realising isolated(BN, E(N)) after the zeroing realises N
    # in M, fragile or not; the zeroing may drop some, never add one, so a
    # fragile M zeroes to a fragile display
    seen = Counter()

    @settings(max_examples=600, derandomize=True, deadline=None, database=None)
    @given(zero_block_displays())
    def check(case):
        M, BN, cols = build_display(*case)
        EN = BN | cols
        C0, D0 = set(M.rep.rows) - EN, set(M.rep.cols) - EN
        N = M.minor(C0, D0)
        want = fragility.fragile_partitions(M, N)
        with monkeypatch.context() as m:
            # the drawn display stands for the one the search finds
            m.setattr(reductions, "_display", lambda M, N, cap: M)
            M2, _ = reductions._zero_out(M, N, PARTITION_CAP_DEFAULT)
        got = fragility.fragile_partitions(M2, isolated(BN, EN))
        assert matroids.MinorSpec(C0, D0) in got <= want
        seen["fragile"] += len(want) == 1
        seen["several", bool(EN)] += len(want) > 1
        seen["proper"] += got < want

    check()
    assert seen["fragile"] >= 100 and seen["several", True] >= 100, seen
    assert seen["proper"] >= 15, seen
