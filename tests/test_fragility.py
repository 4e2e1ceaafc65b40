"""Fragility certification tests.

Two views of the same condition are exercised side by side: the matroid
one (exactly one partition (C, D) of E(M) - E(N) with M/C\\D = N) and
the matrix one (the X block vanishes and X raises the rank of every
disjoint nonempty Y).
"""

import time
from collections import Counter
from functools import cache
from itertools import combinations
from random import Random

import pytest

from matroidfrag import fragility, matrices, matroids
from matroidfrag.matrices import rank_table
from matroidfrag.subsets import first_by_size
from matroidfrag import (
    CapExceeded,
    LabeledMatrix,
    MinorSpec,
    ReprMatroid,
    display_basis,
    fragile_partitions,
    gen_random,
    is_N_fragile,
    isolated,
    one_move_partition,
    partitions_of,
    submatrix_rank,
    subsets_by_size,
    x_fragile_failure,
)
from reference import (
    GF2, GF3, GF4, GF5, GF8, GF9, GF16_OVER_GF4, SCOPES, display_basis_sweep, element_vector,
    entries, fragile_partitions_loop, ladder_draw, minor_variants, one_move_neighbours,
    partition_basis_scan, random_matrix, scope_cases, scope_matrices, scope_x, textbook_rank,
    unzeroed_ladder_draw, with_entry, x_fragile_failure_loop,
)
from watch import forbid, watch


def one_coloop_one_loop_one_parallel():
    # c coloop-side row, d a loop, e parallel to c
    return ReprMatroid(LabeledMatrix(GF2, ["c"], ["d", "e"], [[0, 1]]))


def test_unique_partition_frozen():
    M = one_coloop_one_loop_one_parallel()
    N = isolated({"c"}, {"c", "d"})
    parts = fragile_partitions(M, N)
    assert parts == {MinorSpec(frozenset(), frozenset({"e"}))}
    assert is_N_fragile(M, N)


def test_no_partition():
    # U_{1,3} has no loops in any single-element deletion or contraction
    M = ReprMatroid(LabeledMatrix(GF2, ["a"], ["b", "c"], [[1, 1]]))
    N = isolated({"a"}, {"a", "b"})
    assert fragile_partitions(M, N) == frozenset()
    assert not is_N_fragile(M, N)


def test_two_partitions_is_not_fragile():
    # contracting a loop equals deleting it, so both partitions work
    M = isolated({"c"}, {"c", "d", "e"})
    N = isolated({"c"}, {"c", "d"})
    parts = fragile_partitions(M, N)
    assert parts == {
        MinorSpec(frozenset(), frozenset({"e"})),
        MinorSpec(frozenset({"e"}), frozenset()),
    }
    assert not is_N_fragile(M, N)


def test_fragile_partitions_validation():
    # a raised cap admits 13 elements outside the minor
    big = isolated({"c"}, {"c"} | {f"l{i}" for i in range(13)})
    N = isolated({"c"}, {"c"})
    assert len(fragile_partitions(big, N, cap=13)) != 1


def test_minor_table_is_capped_before_it_is_built(monkeypatch):
    # a 17-element GF(3) matroid against itself with a row scaled by 2:
    # the leaf (∅, ∅) has N's zero pattern and other entries, so it needs
    # N's table, which is refused before any table is built
    rows, cols = [f"r{i}" for i in range(8)], [f"c{j}" for j in range(9)]
    A = LabeledMatrix(GF3, rows, cols, [[1] * len(cols)] * len(rows))
    N = A
    for f in cols:
        N = with_entry(N, "r0", f, 2)
    watch(monkeypatch, rank_table, [], key=forbid)
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="cap 16"):
        fragile_partitions(ReprMatroid(A), ReprMatroid(N))
    assert time.perf_counter() - start < 0.5


def test_minor_equal_to_a_large_matroid_builds_no_table(monkeypatch):
    # 22 elements over GF(2), N = M: the one leaf is N's own display, so
    # it is accepted with no table, however large E(N) is
    rows, cols = [f"r{i}" for i in range(11)], [f"c{j}" for j in range(11)]
    rng = Random(22)
    data = [[rng.randint(0, 1) for _ in cols] for _ in rows]
    M = ReprMatroid(LabeledMatrix(GF2, rows, cols, data))
    watch(monkeypatch, rank_table, [], key=forbid)
    assert fragile_partitions(M, M) == {MinorSpec(set(), set())}


def test_isolated_minor_over_another_field_builds_no_table(monkeypatch):
    # 19 elements over GF(3): zero but for column c9 and row r8, all one,
    # with A[r8][c9] = 2, and N isolated on the other 17 labels over
    # GF(2); the leaf with N's all-zero display is N over every field, so
    # no table is built (N's would be refused above 16 elements)
    rows, cols = [f"r{i}" for i in range(9)], [f"c{j}" for j in range(10)]
    data = [[0] * 9 + [1] for _ in rows[:8]] + [[1] * 9 + [2]]
    A = LabeledMatrix(GF3, rows, cols, data)
    X = frozenset(rows[:8] + cols[:9])
    assert x_fragile_failure(A, X) is None
    tables = []
    watch(monkeypatch, rank_table, tables)
    want = {MinorSpec({"r8"}, {"c9"})}
    for F in (GF2, GF3):
        N = isolated(rows[:8], X, F)
        assert fragile_partitions(ReprMatroid(A), N) == want
        assert is_N_fragile(ReprMatroid(A), N)
    assert tables == []


def test_matrix_side_positive():
    A = LabeledMatrix(GF2, ["c"], ["d", "e"], [[0, 1]])
    assert x_fragile_failure(A, {"c", "d"}) is None


def test_matrix_side_block_nonzero():
    A = LabeledMatrix(GF2, ["c"], ["d"], [[1]])
    assert x_fragile_failure(A, {"c", "d"}) == ("block_nonzero", ("c", "d"))


def test_matrix_side_rank_not_increased():
    A = LabeledMatrix(GF2, ["c"], ["d", "e"], [[0, 0]])
    kind, Y = x_fragile_failure(A, {"c", "d"})
    assert kind == "rank_not_increased"
    assert Y == {"e"}


def test_matrix_side_one_sided_x():
    # X all on the row side: every pure-column Y must still gain rank
    A = LabeledMatrix(GF2, ["a", "b"], ["x", "y"], [[1, 0], [0, 1]])
    assert x_fragile_failure(A, {"a", "b"}) is None
    B = LabeledMatrix(GF2, ["a", "b"], ["x", "y"], [[1, 0], [0, 0]])
    assert x_fragile_failure(B, {"a", "b"}) == ("rank_not_increased", frozenset({"y"}))


def test_failure_is_first_in_size_then_lex_order():
    # two witnesses exist ({x} and {y}); enumeration returns {x}
    A = LabeledMatrix(GF2, ["c"], ["d", "x", "y"], [[0, 0, 0]])
    kind, Y = x_fragile_failure(A, {"c", "d"})
    assert (kind, Y) == ("rank_not_increased", frozenset({"x"}))


def test_both_views_agree_on_fixed_instances():
    # positive instance
    A = LabeledMatrix(GF2, ["c"], ["d", "e"], [[0, 1]])
    assert x_fragile_failure(A, {"c", "d"}) is None
    assert is_N_fragile(ReprMatroid(A), isolated({"c"}, {"c", "d"}))
    # negative instance
    B = LabeledMatrix(GF2, ["c"], ["d", "e"], [[0, 0]])
    assert x_fragile_failure(B, {"c", "d"}) is not None
    assert not is_N_fragile(ReprMatroid(B), isolated({"c"}, {"c", "d"}))


def test_fragility_transports_through_duality():
    M = one_coloop_one_loop_one_parallel()
    N = isolated({"c"}, {"c", "d"})
    Nd = isolated({"d"}, {"c", "d"})
    swapped = {(p.delete, p.contract) for p in fragile_partitions(M, N)}
    dual_parts = {(p.contract, p.delete) for p in fragile_partitions(M.dual(), Nd)}
    assert swapped == dual_parts == {(frozenset({"e"}), frozenset())}


def test_display_basis():
    M = one_coloop_one_loop_one_parallel()
    assert display_basis(M, isolated({"c"}, {"c", "d"})) == {"c"}
    # no basis of M contains the loop d
    assert display_basis(M, isolated({"d"}, {"c", "d"})) is None


def test_display_basis_lex_least():
    M = ReprMatroid(LabeledMatrix(GF2, ["a", "b"], ["c", "d"], [[1, 1], [1, 0]]))
    # both {a, b} and {a, c} display the single coloop a; lex order wins
    N = isolated({"a"}, {"a"})
    assert display_basis(M, N) == {"a", "b"}


def random_pair(rng):
    F = rng.choice((GF2, GF3))
    rows = [f"r{i}" for i in range(rng.randint(1, 4))]
    cols = [f"c{j}" for j in range(rng.randint(1, 4))]
    M = ReprMatroid(LabeledMatrix(
        F, rows, cols, [[rng.randrange(F.order) for _ in cols] for _ in rows]))
    C = {e for e in sorted(M.ground) if rng.random() < 0.3}
    D = {e for e in sorted(M.ground - C) if rng.random() < 0.4}
    N = M.minor(C, D)
    if rng.random() < 0.25:
        # the same labels with another rank function: often not a minor
        B = set(rng.sample(sorted(N.ground), rng.randint(0, len(N.ground))))
        N = isolated(B, N.ground, F)
    return M, N


def test_display_basis_matches_exhaustive_sweep():
    rng = Random(7)
    seen = {"none": 0, "one": 0, "several": 0}
    for _ in range(250):
        M, N = random_pair(rng)
        parts = fragile_partitions(M, N)
        got = display_basis(M, N)
        assert got == display_basis_sweep(M, N)
        if got is None:
            seen["none"] += 1
        else:
            seen["one" if len(parts) == 1 else "several"] += 1
    assert min(seen.values()) >= 20, seen


# -- references that drive the package's internals ---------------------------


def fragile_partitions_table(M, N):
    """Every realising partition, read off one rank table of M over
    sorted E(N) + sorted(E(M) - E(N)): (C, D) realises N iff the slice of
    the table at C's mask is N's table offset by r(C)."""
    rest = M.ground - N.ground
    n = len(N.ground)
    order = sorted(N.ground) + sorted(rest)
    bit = {v: 1 << i for i, v in enumerate(order)}
    T = rank_table(M.rep, order)
    TN = rank_table(N.rep, order[:n])
    found = set()
    for C, D in partitions_of(rest):
        cm = sum(bit[v] for v in C)
        if T[cm : cm + (1 << n)] == bytes(t + T[cm] for t in TN):
            found.add(MinorSpec(C, D))
    return found


def fragile_partitions_generic(M, N):
    """The partition search with the pivots of `ReprMatroid._pivot` over
    every field, GF(2) included: the search before its GF(2) steps moved
    to packed rows and gained the two span tests.  The same walk, root
    and leaf rule, with no node test; a step pivots avoiding BN or coN
    and then deletes the element's line, so no drop code is shared with
    the kernel it checks."""
    rest = sorted(M.ground - N.ground)
    labels = sorted(N.ground)
    BN, coN = N.basis, N.ground - N.basis
    field = M.field
    found = []

    def ways(rows, cols, data, e):
        if e in rows:
            line, across, kept = data[rows.index(e)], cols, coN
        else:
            j = cols.index(e)
            line, across, kept = [row[j] for row in data], rows, BN
        if any(line) and all(f in kept for f, x in zip(across, line) if x):
            return (e in rows,)
        return (False, True)

    def is_N(rows, cols, data):
        if any((x == 0) != (y == 0) for row, nrow in zip(data, NA) for x, y in zip(row, nrow)):
            return False
        if N.field == field and data == NA:
            return True
        A = LabeledMatrix._of_display(field, rows, cols, data)
        return rank_table(A, labels) == rank_table(N.rep, labels)

    def walk(i, C, node):
        if i == len(rest):
            if is_N(*node):
                found.append(MinorSpec(C, set(rest) - C))
            return
        e = rest[i]
        for contracting in ways(*node, e):
            rows, cols, data = node[0][:], node[1][:], [row[:] for row in node[2]]
            if contracting == (e in cols):
                ReprMatroid._pivot(field, rows, cols, data, e, BN if contracting else coN)
            if e in rows:
                k = rows.index(e)
                del rows[k], data[k]
            else:
                j = cols.index(e)
                del cols[j]
                for row in data:
                    del row[j]
            walk(i + 1, C | {e} if contracting else C, (rows, cols, data))

    root = M._display_lists()
    if (ReprMatroid._pivot_each(field, *root, BN.difference(root[0]), BN)
            and ReprMatroid._pivot_each(field, *root, coN.intersection(root[0]), coN)):
        NA = [[N.rep.enc(b, f) for f in root[1] if f in coN] for b in root[0] if b in BN]
        walk(0, frozenset(), root)
    return frozenset(found)


def x_fragile_failure_minors(A, X):
    """x_fragile_failure as it read its two tables before contraction by
    elimination: off the pivoted minors M/Xc\\Xr and M/Xr\\Xc, with the
    offset r(Xc) from a rank query."""
    Xf = frozenset(X)
    R = frozenset(A.rows)
    xr, xc = sorted(Xf & R), sorted(Xf & frozenset(A.cols))
    for r in xr:
        for c in xc:
            if A.enc(r, c):
                return ("block_nonzero", (r, c))
    rest = sorted(A.labels() - Xf)
    M = ReprMatroid(A)
    Tc = rank_table(M.minor(xc, xr).rep, rest)
    Tr = rank_table(M.minor(xr, xc).rep, rest)
    rc = M.rank(xc)
    rmask = sum(1 << i for i, v in enumerate(rest) if v in R)
    fails = [y for y in range(1, len(Tc)) if Tc[y ^ rmask] + rc <= Tr[y ^ rmask]]
    if fails:
        return ("rank_not_increased", frozenset(first_by_size(fails, rest)))
    return None


FIELDS = (GF2, GF3, GF4, GF8, GF9, GF16_OVER_GF4)


def test_fragile_partitions_match_the_loop():
    # minors by random partitions (sometimes of the whole ground set, so
    # N is empty), and the same labels with another rank function
    rng = Random(11)
    seen = {"empty minor": 0, "none": 0, "one": 0, "several": 0}
    for t in range(360):
        M = ReprMatroid(random_matrix(rng, FIELDS[t % len(FIELDS)]))
        E = sorted(M.ground)
        if t % 10 == 0:
            C = set(rng.sample(E, rng.randint(0, len(E))))
            N = M.minor(C, M.ground - C)
        else:
            C = {e for e in E if rng.random() < 0.3}
            N = M.minor(C, {e for e in sorted(M.ground - C) if rng.random() < 0.4})
            if t % 4 == 1:
                B = set(rng.sample(sorted(N.ground), rng.randint(0, len(N.ground))))
                N = isolated(B, N.ground, M.field)
        got = fragile_partitions(M, N)
        assert got == fragile_partitions_loop(M, N)
        if not N.ground:
            seen["empty minor"] += 1
        else:
            seen[("none", "one")[len(got)] if len(got) < 2 else "several"] += 1
    assert min(seen.values()) >= 20, seen


SEARCH_FIELDS = (GF2, GF3, GF4, GF5)


def test_every_scope_holds_its_closed_form_count():
    # q^(mn - x_rows x_cols) distinct matrices with a zero X block, or
    # q^(mn) with a free one, and 3^(m + n) distinct partitions of each
    # where a test reads partitions: an enumerator that drops or repeats
    # a case, or a scope edited smaller, fails here
    partitioned = {"search", "pattern", "packed", "one_move", "witness", "contract"}
    for key, scopes in SCOPES.items():
        for scope in scopes:
            q, m, n = scope.field.order, scope.rows, scope.cols
            X1, X2 = scope_x(scope)
            size = q ** (m * n - scope.x_rows * scope.x_cols * scope.zeroed)
            mats = list(scope_matrices(scope))
            assert len(set(mats)) == len(mats) == size, scope
            if scope.zeroed:
                assert not any(A.enc(r, c) for A in mats for r in X1 for c in X2), scope
            if key in partitioned:
                cases = [(M.rep, part) for M, part in scope_cases(scope)]
                assert len(set(cases)) == len(cases) == size * 3 ** (m + n), scope


def test_pruned_search_matches_the_table_search():
    # the pruned pivot search against the 2^|E(M)| table search it
    # replaced, partition set for partition set, on every case of its
    # scopes: none, one and several realising partitions over each field,
    # and N over GF(2) with M over another field
    reference, seen = cache(fragile_partitions_table), Counter()
    for scope in SCOPES["search"]:
        for M, part in scope_cases(scope):
            for how, N in minor_variants(M, part, scope.hows):
                got = fragile_partitions(M, N)
                assert got == reference(M, N), (entries(M.rep), part, how, entries(N.rep))
                seen[scope.field.order, min(len(got), 2)] += 1
    assert seen == {
        (2, 0): 1884, (2, 1): 652, (2, 2): 2346, (3, 0): 434, (3, 1): 251, (3, 2): 658, (4, 0): 691,
        (4, 1): 505, (4, 2): 1051, (5, 0): 1046, (5, 1): 857, (5, 2): 1606,
    }


def test_leaf_displaying_n_over_another_field_is_decided_by_tables():
    # the same encodings over GF(3) and GF(4): the block [[1, 2], [2, 1]]
    # is singular over GF(3), and over GF(4), where 2 encodes a root x of
    # x^2 + x + 1, its determinant 1 + x^2 = x is not zero; a leaf with
    # N's display over another field goes to the tables
    A = LabeledMatrix(GF3, ["a", "b"], ["c", "d"], [[1, 2], [2, 1]])
    M, N = ReprMatroid(A), ReprMatroid(LabeledMatrix(GF4, A.rows, A.cols, A._data))
    assert fragile_partitions(M, N) == fragile_partitions_table(M, N) == set()
    assert fragile_partitions(M, M) == {MinorSpec(set(), set())}


def test_gf2_leaf_on_the_minors_basis_is_decided_by_its_display(monkeypatch):
    # over GF(2) a leaf re-displayed on N's basis is N exactly when its
    # display is N's, so no table is built; over GF(3) a scaled entry
    # keeps the matroid, and that leaf goes to its table and N's
    tables = []
    watch(monkeypatch, rank_table, tables)
    A = LabeledMatrix(GF2, ["a", "b"], ["c", "d"], [[1, 1], [0, 1]])
    M, N = ReprMatroid(A), ReprMatroid(with_entry(A, "a", "d", 0))
    assert fragile_partitions(M, N) == fragile_partitions_table(M, N) == set()
    assert len(tables) == 0
    A = LabeledMatrix(GF3, ["a", "b"], ["c", "d"], [[1, 1], [0, 1]])
    M, N = ReprMatroid(A), ReprMatroid(with_entry(A, "a", "c", 2))
    assert fragile_partitions(M, N) == {MinorSpec(set(), set())}
    assert len(tables) == 2


def test_leaf_zero_pattern_rule_matches_the_table_search():
    # a leaf on N's rows with another zero pattern is rejected with no
    # table over every field; one with N's pattern and other entries
    # (a scaled line) goes to its table, so it is still found
    reference, seen = cache(fragile_partitions_table), Counter()
    for scope in SCOPES["pattern"]:
        for M, part in scope_cases(scope):
            for how, N in minor_variants(M, part, scope.hows):
                got = fragile_partitions(M, N)
                assert got == reference(M, N), (entries(M.rep), part, how, entries(N.rep))
                seen[scope.field.order, how, min(len(got), 2)] += 1
    assert seen == {
        (3, "cut", 1): 1649, (3, "cut", 2): 4912, (3, "flipped", 0): 2548, (3, "flipped", 1): 240,
        (3, "scaled", 1): 1824, (3, "scaled", 2): 1216, (4, "cut", 1): 121, (4, "cut", 2): 311,
        (4, "flipped", 0): 87, (4, "scaled", 1): 93, (4, "scaled", 2): 24, (5, "cut", 1): 201,
        (5, "cut", 2): 474, (5, "flipped", 0): 134, (5, "scaled", 1): 160, (5, "scaled", 2): 32,
    }


def test_leaf_off_the_minors_zero_pattern_builds_no_table(monkeypatch):
    # N on its own rows with its display scaled or flipped: the leaf
    # (C, D) = (∅, ∅) is on N's rows, so only a pattern equal to N's
    # reaches a table, and then N's is built too; on a GF(3) pipeline
    # pair every leaf re-displayed on N's basis is decided by its
    # display, where comparing only the leaves already on N's rows built
    # 9 tables
    tables = []
    watch(monkeypatch, rank_table, tables)
    for F in (GF3, GF4, GF5):
        A = LabeledMatrix(F, ["a", "b"], ["c", "d"], [[1, 1], [0, 1]])
        tables.clear()
        assert fragile_partitions(ReprMatroid(A), ReprMatroid(with_entry(A, "b", "c", 1))) == set()
        assert len(tables) == 0
        tables.clear()
        N = ReprMatroid(with_entry(with_entry(A, "a", "c", 2), "b", "c", 0))
        assert fragile_partitions(ReprMatroid(A), N) == {MinorSpec(set(), set())}
        assert len(tables) == 2
    gi = gen_random("pipeline", seed=2, q=3, rows=6, cols=6, minor_size=5)
    M, N = ReprMatroid(gi.instance.matrix), gi.instance.task.minor
    tables.clear()
    assert len(fragile_partitions(M, N)) == 1
    assert len(tables) == 0


def test_search_tables_span_the_minor_only(monkeypatch):
    # every rank table the search builds is over E(N): N's own and one
    # per leaf with N's zero pattern and other entries, never one over
    # E(M); a scaled N sends its realising leaf, and N, to tables
    spans = []
    watch(monkeypatch, rank_table, spans, key=lambda A, labels, **kwargs: len(labels))
    rng = Random(14)
    built = 0
    for t in range(80):
        M = ReprMatroid(random_matrix(rng, FIELDS[t % len(FIELDS)], max_rows=5, max_cols=6))
        E = sorted(M.ground)
        keep = set(rng.sample(E, min(len(E), rng.randint(1, 3))))
        C = {e for e in sorted(M.ground - keep) if rng.random() < 0.5}
        N = M.minor(C, M.ground - keep - C)
        if t % 2 and N.field.order > 2 and N.rep.rows:
            # N's first row scaled by 2: the same matroid, another display
            A, e = N.rep, N.rep.rows[0]
            for f in A.cols:
                A = with_entry(A, e, f, A.field.mul_enc(2, A.enc(e, f)))
            N = ReprMatroid(A)
        spans.clear()
        assert fragile_partitions(M, N) == fragile_partitions_table(M, N)
        assert max(spans, default=0) <= len(N.ground), (spans, len(M.ground))
        built += len(spans)
    assert built == 31
    # an 18-element GF(2) pair, N on 6 labels: no table at all
    gi = gen_random("xfragile", seed=0, q=2, rows=7, cols=11, x_rows=1, x_cols=5)
    M = ReprMatroid(gi.instance.matrix)
    N = isolated({"r0"}, {"r0"} | {f"c{j}" for j in range(5)})
    spans.clear()
    assert len(fragile_partitions(M, N)) == 1
    assert spans == []


def search_counter(mp):
    """A function running fragile_partitions(M, N) under watches installed
    on `mp`, and returning it with the number of display steps
    (`ReprMatroid._step` calls, or `_step_gf2` calls on packed GF(2) rows), of
    pivots (`_pivot_inplace` calls, the root's included, and
    `_pivot_gf2` calls) and of leaves tested (`partitions_of` calls)
    that it made."""
    calls = []
    for target in ((ReprMatroid, "_step"), fragility._step_gf2):
        watch(mp, target, calls, key=lambda *args: "steps")
    for target in (matroids._pivot_inplace, fragility._pivot_gf2):
        watch(mp, target, calls, key=lambda *args: "pivots")
    watch(mp, partitions_of, calls, key=lambda *args: "leaves")

    def search(M, N):
        calls.clear()
        got = fragile_partitions(M, N)
        return got, calls.count("steps"), calls.count("pivots"), calls.count("leaves")
    return search


def counted_search(monkeypatch, M, N):
    """fragile_partitions(M, N), with the number of display steps and of
    pivots it made (`search_counter`)."""
    with monkeypatch.context() as mp:
        return search_counter(mp)(M, N)[:3]


def test_dependent_basis_or_codependent_cobasis_ends_the_search_at_the_root(monkeypatch):
    # N's basis {a, b} is a parallel pair of M, and N's cobasis {c} is a
    # coloop of M: either holds in every minor, so no partition realises
    # N and the search takes no step
    M = ReprMatroid(LabeledMatrix(GF3, ["a", "c", "x"], ["b", "y"],
                                  [[1, 1], [0, 0], [0, 1]]))
    for N in (isolated({"a", "b"}, {"a", "b"}, GF3), isolated(set(), {"c"}, GF3),
              isolated({"a"}, {"a", "c"}, GF3)):
        assert fragile_partitions_table(M, N) == set()
        assert counted_search(monkeypatch, M, N) == (frozenset(), 0, 0)
    # a minor of M on the same labels: the search steps and finds it
    N = M.minor({"x"}, {"b", "y"})
    got, steps, _ = counted_search(monkeypatch, M, N)
    assert got == fragile_partitions_table(M, N) != set()
    assert steps > 0


def test_search_tree_does_not_depend_on_the_display_of_m(monkeypatch):
    # the search on M re-displayed on each of its bases: the same
    # partitions, steps and leaves, as every rule of the walk reads the
    # matroid through a display with N's basis on the rows and N's
    # cobasis on the columns, so the packed kernel may pivot by position
    # and the generic one by label; only the root's pivots, and so the
    # pivot count, may differ
    search, seen, displays = search_counter(monkeypatch), Counter(), {}
    for scope in (SCOPES["packed"][0], SCOPES["search"][1]):
        assert (scope.field, scope.rows, scope.cols) in ((GF2, 2, 2), (GF3, 2, 1))
        for M, part in scope_cases(scope):
            if M.rep not in displays:
                displays[M.rep] = [M.rebase(B) for B in sorted(map(sorted, M.bases()))]
            for how, N in minor_variants(M, part, scope.hows):
                counts = [search(MB, N) for MB in displays[M.rep]]
                assert all(c[:2] + c[3:] == counts[0][:2] + counts[0][3:] for c in counts), (
                    entries(M.rep), part, how, entries(N.rep))
                seen[scope.field.order, how, min(len(counts[0][0]), 2)] += 1
                seen[scope.field.order, "pivots differ"] += len({c[2] for c in counts}) > 1
    assert seen == {
        (2, "cut", 1): 246, (2, "cut", 2): 1050, (2, "flipped", 0): 532, (2, "flipped", 1): 30,
        (2, "gf4", 0): 4, (2, "gf4", 1): 382, (2, "gf4", 2): 1168, (2, "isolated", 0): 1352,
        (2, "isolated", 1): 376, (2, "isolated", 2): 1296, (2, "pivots differ"): 5635,
        (2, "rebased", 1): 392, (2, "rebased", 2): 1168, (3, "cut", 1): 61, (3, "cut", 2): 182,
        (3, "flipped", 0): 50, (3, "isolated GF(2)", 0): 180, (3, "isolated GF(2)", 1): 92,
        (3, "isolated GF(2)", 2): 214, (3, "isolated", 0): 180, (3, "isolated", 1): 92,
        (3, "isolated", 2): 214, (3, "pivots differ"): 776,
    }


@pytest.mark.parametrize("pair, steps, pivots", [
    # before N's basis was kept on the rows: 1179 steps, 491 pivots;
    # before packed rows and the span tests: 1006 steps, 181 pivots
    ("pipeline", 106, 49),
    # before: 864 steps, 770 pivots; then 324 steps, 71 pivots
    ("ladder", 15, 5),
])
def test_search_step_and_pivot_counts_are_pinned(monkeypatch, pair, steps, pivots):
    # the GF(2) reference pair and the GF(2) ladder draw of size 10
    if pair == "pipeline":
        gi = gen_random("pipeline", seed=1, q=2, rows=8, cols=8, minor_size=5)
        M, N = ReprMatroid(gi.instance.matrix), gi.instance.task.minor
    else:
        M, N = ladder_draw(10, 2)
    got = counted_search(monkeypatch, M, N)
    assert (len(got[0]), got[1:]) == (1, (steps, pivots))


def test_gf2_frontier_search_tests_one_leaf(monkeypatch):
    # the GF(2) ladder draw of size 20 (|E| = 40) has one realising
    # partition, and the span tests leave only its leaf; the generic
    # steps with no node test reach 53411 leaves of it
    M, N = ladder_draw(20, 2)
    leaves = []
    watch(monkeypatch, partitions_of, leaves)
    got = fragile_partitions(M, N, cap=40)
    assert got == {MinorSpec({f"r{i}" for i in range(10, 20)}, {f"c{j}" for j in range(10, 20)})}
    assert len(leaves) == 1


@pytest.mark.parametrize("q", [2, 3])
def test_ladder_draw_is_the_generators_draw(q):
    # the ladder's rungs are the draws of gen_random's xfragile loop, up
    # to its cap of 12 labels outside X, so gen_random may draw them
    for n in range(4, 13):
        gi = gen_random("xfragile", seed=0, q=q, rows=n, cols=n, x_rows=n // 2, x_cols=n // 2)
        assert ladder_draw(n, q)[0].rep == gi.instance.matrix, n


@pytest.mark.parametrize("q", [3, 4, 5])
def test_unzeroed_ladder_has_one_realising_partition(q):
    # a nonzero N on X, realised only by the ladder's own partition
    for n in (6, 8):
        M, N = unzeroed_ladder_draw(n, q)
        h, B = n // 2, N.rep
        assert any(B.enc(r, c) for r in B.rows for c in B.cols), n
        assert fragile_partitions(M, N) == {MinorSpec(M.rep.rows[h:], M.rep.cols[h:])}, n


def test_packed_search_matches_the_generic_steps():
    # the packed GF(2) search, with its span tests, against the generic
    # steps it replaced over GF(2), partition set for partition set; N
    # lifted to GF(4) takes the generic steps, so those cases check the
    # generic steps against themselves; every way of making N realised
    # or not, and an empty BN or coN both ways
    reference, seen = cache(fragile_partitions_generic), Counter()
    for scope in SCOPES["packed"]:
        for M, part in scope_cases(scope):
            for how, N in minor_variants(M, part, scope.hows):
                got = fragile_partitions(M, N)
                assert got == reference(M, N), (entries(M.rep), part, how, entries(N.rep))
                count = min(len(got), 2)
                seen[how, count] += 1
                seen["empty BN", count] += not N.basis
                seen["empty coN", count] += not N.ground - N.basis
    assert seen == {
        ("cut", 1): 492, ("cut", 2): 4692, ("empty BN", 0): 376, ("empty BN", 1): 273,
        ("empty BN", 2): 3562, ("empty coN", 0): 376, ("empty coN", 1): 312, ("empty coN", 2): 4106,
        ("flipped", 0): 532, ("flipped", 1): 30, ("gf4", 0): 4, ("gf4", 1): 382, ("gf4", 2): 1168,
        ("isolated", 0): 1352, ("isolated", 1): 376, ("isolated", 2): 1296, ("rebased", 1): 392,
        ("rebased", 2): 1168,
    }
    for n in range(10, 17, 2):
        M, N = ladder_draw(n, 2)
        got = fragile_partitions(M, N, cap=40)
        assert got == fragile_partitions_generic(M, N) and len(got) == 1


def test_search_matches_the_table_search_on_rebased_minors():
    # N re-displayed by `rebase` on each of its bases: its basis is then
    # not the one its cut left it on, and the root display and every
    # step keep that basis on the rows instead
    rng = Random(17)
    seen = Counter()
    for t in range(400):
        F = SEARCH_FIELDS[t % len(SEARCH_FIELDS)]
        M = ReprMatroid(random_matrix(rng, F, max_rows=4, max_cols=5))
        C = {e for e in sorted(M.ground) if rng.random() < 0.2}
        N = M.minor(C, {e for e in sorted(M.ground - C) if rng.random() < 0.3})
        want = fragile_partitions_table(M, N)
        for B in sorted(map(sorted, N.bases())):
            assert fragile_partitions(M, N.rebase(B)) == want, (t, B)
            seen[F.order, min(len(want), 2), B != sorted(N.basis)] += 1
    for q in (2, 3, 4, 5):
        for count in (1, 2):
            assert seen[q, count, True] >= 10, seen


def test_partition_basis_matches_the_greedy_scan():
    # C plus N's least basis, read off one elimination, against the scan
    # of rank queries it replaced, on every realising partition of
    # seeded pairs over GF(2) to GF(5): N cut from M, re-displayed on a
    # random basis, or an isolated matroid on its labels over GF(2) or
    # M's field, whose realising partitions often leave C dependent
    rng = Random(23)
    seen = Counter()
    for t in range(800):
        F = SEARCH_FIELDS[t % len(SEARCH_FIELDS)]
        M = ReprMatroid(random_matrix(rng, F, max_rows=4, max_cols=5))
        C = {e for e in sorted(M.ground) if rng.random() < 0.3}
        N = M.minor(C, {e for e in sorted(M.ground - C) if rng.random() < 0.4})
        how = ("cut", "rebased", "isolated")[t // len(SEARCH_FIELDS) % 3]
        if how == "rebased":
            N = N.rebase(rng.choice(sorted(map(sorted, N.bases()))))
        elif how == "isolated":
            coloops = [e for e in sorted(N.ground) if rng.random() < 0.5]
            N = isolated(coloops, N.ground, rng.choice((GF2, F)))
        for part in fragile_partitions(M, N):
            got = fragility.partition_basis(M, N, part)
            assert got == partition_basis_scan(M, N, part), (t, part)
            seen[F.order, how, got is None] += 1
    assert sum(seen.values()) >= 4000, seen
    for q in (2, 3, 4, 5):
        for how in ("cut", "rebased", "isolated"):
            assert seen[q, how, False] >= 25 and seen[q, how, True] >= 100, seen


def test_x_fragile_failure_matches_the_loop():
    # X empty, X every label, and random X with the X block zeroed or left
    rng = Random(12)
    seen = {"block_nonzero": 0, "rank_not_increased": 0, None: 0}
    for t in range(360):
        A = random_matrix(rng, FIELDS[t % len(FIELDS)])
        labels = sorted(A.labels())
        kind = t % 4
        if kind == 0:
            X = set()
        elif kind == 1:
            X = set(labels)
        else:
            X = {v for v in labels if rng.random() < 0.5}
        if kind != 3:
            for r in X & set(A.rows):
                for c in X & set(A.cols):
                    A = with_entry(A, r, c, 0)
        got = x_fragile_failure(A, X)
        assert got == x_fragile_failure_loop(A, X), (A, sorted(X))
        seen[got and got[0]] += 1
    assert min(seen.values()) >= 10, seen


def test_x_fragile_failure_matches_the_minors_reference():
    # the tables read off the display by elimination against the tables
    # of the two pivoted minors they replaced: the same verdicts,
    # witnesses included, on every X of every matrix of the scopes, so
    # with the X block zero or not
    seen = Counter()
    for scope in SCOPES["x_fragile"]:
        for A in scope_matrices(scope):
            for X in subsets_by_size(A.labels()):
                got = x_fragile_failure(A, X)
                assert got == x_fragile_failure_minors(A, X), (entries(A), sorted(X))
                seen[scope.field.order, got and got[0]] += 1
    assert seen == {
        (2, "block_nonzero"): 979, (2, "rank_not_increased"): 888, (2, None): 189,
        (3, "block_nonzero"): 584, (3, "rank_not_increased"): 503, (3, None): 209,
        (4, "block_nonzero"): 1983, (4, "rank_not_increased"): 1458, (4, None): 655,
        (5, "block_nonzero"): 784, (5, "rank_not_increased"): 967, (5, None): 249,
        (9, "block_nonzero"): 224, (9, "rank_not_increased"): 263, (9, None): 161,
    }


def test_x_fragility_is_isolated_minor_fragility():
    # the equivalence the reduction stages certify by: with the X block
    # zero, A is X-fragile iff the canonical partition is the only one
    # realising the isolated minor on X, and the dual reads the same
    rng = Random(13)
    seen = {True: 0, False: 0}
    for t in range(600):
        A = random_matrix(rng, (GF2, GF3, GF4)[t % 3], max_rows=4, max_cols=5)
        R, C = frozenset(A.rows), frozenset(A.cols)
        X = frozenset(v for v in sorted(A.labels()) if rng.random() < 0.5)
        for r in X & R:
            for c in X & C:
                A = with_entry(A, r, c, 0)
        M = ReprMatroid(A)
        fragile = x_fragile_failure(A, X) is None
        assert fragile == (
            fragile_partitions(M, isolated(X & R, X)) == {MinorSpec(R - X, C - X)})
        D = M.dual()
        assert (x_fragile_failure(D.rep, X) is None) == fragile
        assert fragile == (
            fragile_partitions(D, isolated(X & C, X)) == {MinorSpec(C - X, R - X)})
        seen[fragile] += 1
    assert min(seen.values()) >= 40, seen


def test_x_fragility_tall_matrix_reads_small_tables(monkeypatch):
    # 20 rows, 5 columns, X = every row: both tables range over the 5
    # columns alone, 2^5 entries each, however many rows are contracted
    sizes = []
    watch(monkeypatch, rank_table, sizes, key=lambda A, labels, **kwargs: 1 << len(labels))
    rng = Random(13)
    rows = [f"r{i:02d}" for i in range(20)]
    cols = [f"c{j}" for j in range(5)]
    data = [[rng.randrange(2) for _ in cols] for _ in rows]
    data[0] = [1] * 5  # no zero column
    A = LabeledMatrix(GF2, rows, cols, data)
    assert x_fragile_failure(A, rows) is None
    assert x_fragile_failure_loop(A, rows) is None
    for row in data:
        row[3] = 0
    Z = LabeledMatrix(GF2, rows, cols, data)
    assert x_fragile_failure(Z, rows) == ("rank_not_increased", frozenset({"c3"}))
    assert x_fragile_failure_loop(Z, rows) == ("rank_not_increased", frozenset({"c3"}))
    assert sizes == [32] * 4


def test_searches_and_bases_make_no_rank_queries(monkeypatch):
    # fragile_partitions, x_fragile_failure and bases read rank tables:
    # no submatrix rank, through any binding, and no rank of a subset
    # (x_fragile_failure reads its offset r(Xc) off its own table)
    A = LabeledMatrix(GF3, ["a", "b"], ["c", "d", "e"], [[0, 1, 2], [0, 0, 1]])
    M = ReprMatroid(A)
    N = isolated({"a"}, {"a", "c"}, GF3)
    want = (fragile_partitions_loop(M, N), x_fragile_failure_loop(A, {"a", "c"}),
            {frozenset(B) for B in combinations("abcde", 2) if M.rank(B) == 2})
    assert len(want[0]) == 3 and want[1] is not None and len(want[2]) == 5
    M = ReprMatroid(A)  # an empty rank cache
    calls = []
    watch(monkeypatch, (ReprMatroid, "rank"), [], key=lambda self, X=None: X is None or forbid())
    watch(monkeypatch, submatrix_rank, calls)
    assert (fragile_partitions(M, N), x_fragile_failure(A, {"a", "c"}), M.bases()) == want
    assert calls == []


# -- one-move witness against the full search ----------------------------------


def one_move_partition_queries(M, part):
    """The one-move witness by single rank queries: e in C0 moves iff
    r(C0 - e) = r(C0) or r(E - D0 - e) = r(E - D0) - 1, e in D0 iff
    r(C0 + e) = r(C0) or r(E - D0 + e) = r(E - D0) + 1; the first such e
    in label order, C0 first."""
    C0, D0 = part.contract, part.delete
    rc = M.rank(C0)
    kept = M.ground - D0
    rk = M.rank(kept)
    for e in sorted(C0):
        if M.rank(C0 - {e}) == rc or M.rank(kept - {e}) == rk - 1:
            return MinorSpec(C0 - {e}, D0 | {e})
    for e in sorted(D0):
        if M.rank(C0 | {e}) == rc or M.rank(kept | {e}) == rk + 1:
            return MinorSpec(C0 | {e}, D0 - {e})
    return None


class CountingMatroid(ReprMatroid):
    """A ReprMatroid that counts its rank queries of subsets."""

    def __init__(self, rep):
        super().__init__(rep)
        self.queries = 0

    def rank(self, X=None):
        if X is not None:
            self.queries += 1
        return super().rank(X)


def test_one_move_witness_matches_the_full_search():
    # with no rank query: a returned partition is a one-move neighbour
    # by the full search, and None means there is none, so a unique
    # realising partition gets None
    seen = Counter()
    for scope in SCOPES["one_move"]:
        for M, part in scope_cases(scope):
            M = CountingMatroid(M.rep)
            neighbours, parts = one_move_neighbours(M, part)
            M.queries = 0
            got = one_move_partition(M, part)
            assert M.queries == 0
            assert got in neighbours if got else not neighbours, (entries(M.rep), part)
            seen[scope.field.order, "none" if got is None else "moved", min(len(parts), 2)] += 1
    assert seen == {
        (2, "moved", 2): 1050, (2, "none", 1): 246, (3, "moved", 2): 4816, (3, "none", 1): 1649,
        (3, "none", 2): 96, (4, "moved", 2): 311, (4, "none", 1): 121,
    }


def reference_rank(A, X, dual=False):
    """The rank of the labels X in the matroid of [I | A], or with dual
    in that of [A^T | I], by textbook_rank on their vectors."""
    return textbook_rank(A.field, [element_vector(A, e, dual=dual) for e in sorted(X)])


def assert_sift_callers_match_the_reference(M, part, rank):
    """`block_rank`, `rank_table(..., contract=C0)` and `partition_basis`
    against `rank`: `reference_rank`, or a cache of it, on M's display."""
    A, F, m = M.rep, M.field, len(M.rep.rows)

    def r(X):
        return rank(A, frozenset(X))

    C0, D0 = part.contract, part.delete
    drop = sum(1 << i for i, e in enumerate(A.rows) if e in C0)
    cols = [j for j, e in enumerate(A.cols) if e not in D0]
    block = [[A._data[i][j] for i in range(m) if not drop >> i & 1] for j in cols]
    assert matrices.block_rank(A, drop, cols) == textbook_rank(F, block)
    # the table of M/C0: the empty set, each label, all, and all but one
    labels = sorted(M.ground - C0)
    table = rank_table(A, labels, contract=sorted(C0))
    full = (1 << len(labels)) - 1
    for W in {0, full, *(1 << i for i in range(len(labels))),
              *(full ^ 1 << i for i in range(len(labels)))}:
        S = {e for i, e in enumerate(labels) if W >> i & 1}
        assert table[W] == r(S | C0) - r(C0), sorted(S)
    # C0 plus the greedy basis of E(N) over it, if C0 is independent and
    # that is a basis of M
    B = sorted(C0)
    for e in sorted(M.ground - C0 - D0):
        if r(B + [e]) > len(B):
            B.append(e)
    want = frozenset(B) if r(C0) == len(C0) and len(B) == m else None
    assert fragility.partition_basis(M, M.minor(part.contract, part.delete), part) == want


def test_one_move_witness_matches_the_query_reference():
    # the two eliminations against the per-query witness they replaced:
    # the same verdict, and a returned partition is a one-move neighbour
    # by the full search; over each field, cases with a neighbour,
    # without one, and with one that only the elimination in M* finds
    # (C0 independent and D0 off cl(C0))
    seen = Counter()
    for scope in SCOPES["witness"]:
        for M, part in scope_cases(scope):
            got = one_move_partition(M, part)
            want = one_move_partition_queries(M, part)
            assert (got is None) == (want is None), (entries(M.rep), part)
            neighbours, _ = one_move_neighbours(M, part)
            assert got is None or got in neighbours, (entries(M.rep), part)
            C0, D0 = part.contract, part.delete
            in_M = M.rank(C0) < len(C0) or any(M.rank(C0 | {e}) == M.rank(C0) for e in D0)
            seen[scope.field.order, "none" if got is None else "M" if in_M else "M* only"] += 1
    assert seen == {
        (2, "M"): 814, (2, "M* only"): 244, (2, "none"): 247, (3, "M"): 3440, (3, "M* only"): 1384,
        (3, "none"): 1746, (4, "M"): 294, (4, "M* only"): 17, (4, "none"): 121, (5, "M"): 448,
        (5, "M* only"): 26, (5, "none"): 201, (8, "M"): 1102, (8, "M* only"): 65, (8, "none"): 561,
        (9, "M"): 1384, (9, "M* only"): 82, (9, "none"): 721,
    }


# The reference for `matrices._sift`: the elimination it replaced, which
# built every element vector up front and then reduced them one at a
# time in a generator.  It computes the same reduced vectors.
def reference_element_vectors(field, row_pos, col_pos, data, labels, dual=False):
    unit, other = (col_pos, row_pos) if dual else (row_pos, col_pos)
    n, gf2 = len(unit), field.order == 2
    vecs = []
    for v in labels:
        if v in unit:
            i = unit[v]
            vecs.append(1 << i if gf2 else (0,) * i + (1,) + (0,) * (n - 1 - i))
        elif dual:
            row = data[other[v]]
            vecs.append(sum(x << j for j, x in enumerate(row)) if gf2 else row)
        elif gf2:
            vecs.append(sum(row[other[v]] << i for i, row in enumerate(data)))
        else:
            vecs.append([row[other[v]] for row in data])
    return vecs


def reference_sift(field, vecs, k):
    pivots = []
    for i, w in enumerate(vecs):
        if field.order == 2:
            for top, p in pivots:
                if w & top:
                    w ^= p
            if w and i < k:
                pivots.append((1 << w.bit_length() - 1, w))
            yield w
            continue
        w = list(w)
        for h, lead, support in pivots:
            if w[h]:
                f = field.mul_enc(w[h], lead)
                for j, x in support:
                    w[j] = field.sub_enc(w[j], field.mul_enc(f, x))
        if not any(w):
            yield ()
            continue
        if i < k:
            support = [(j, x) for j, x in enumerate(w) if x]
            pivots.append((support[0][0], field.inv_enc(support[0][1]), support))
        yield w


def reference_one_move(field, row_pos, col_pos, data, C0, D0):
    for dual, first, then in ((False, C0, D0), (True, D0, C0)):
        labels = first + then
        vecs = reference_element_vectors(field, row_pos, col_pos, data, labels, dual)
        for e, v in zip(labels, reference_sift(field, vecs, len(first))):
            if not v:
                return e
    return None


def test_sift_and_its_callers_match_the_reference_elimination():
    # the label-reading sift against the elimination it replaced, vector
    # for vector, stopped and not, and against textbook_rank: a reduced
    # vector is zero iff its label's vector lies in the span of the
    # vectors of the pivoting labels before it; the labels are C0 then
    # D0 of each case of the witness scopes, and the first k = |C0|
    # pivot; on the same cases the one-move witness returns the element
    # the old elimination returned, and the other callers of the sift
    # agree with textbook_rank; a scope asks the same rank of one matrix
    # many times, so the reference ranks are cached
    rank, seen = cache(reference_rank), Counter()
    for scope in SCOPES["witness"]:
        field = scope.field
        for M, part in scope_cases(scope):
            A = M.rep
            C0, D0 = sorted(part.contract), sorted(part.delete)
            labels, k = C0 + D0, len(C0)
            display = (field, {r: i for i, r in enumerate(A.rows)},
                       {c: j for j, c in enumerate(A.cols)}, entries(A))
            for dual in (False, True):
                want = list(reference_sift(
                    field, reference_element_vectors(*display, labels, dual), k))
                got = matrices._sift(*display, labels, k, dual=dual)
                assert got == want, (entries(A), labels, k, dual)
                zero = next((i for i, v in enumerate(want) if not v), len(want))
                assert matrices._sift(*display, labels, k, dual=dual, stop=True) == want[:zero + 1]
                for i, v in enumerate(got):
                    before = frozenset(labels[:min(i, k)])
                    in_span = rank(A, before | {labels[i]}, dual) == rank(A, before, dual)
                    assert (not v) == in_span, (entries(A), labels, k, dual, i)
            assert fragility._one_move(*display, C0, D0) == reference_one_move(*display, C0, D0)
            assert_sift_callers_match_the_reference(M, part, rank)
            kind = "none" if not labels else "0" if k == 0 else "all" if not D0 else "some"
            seen[field.order, kind] += 1
    assert seen == {
        (2, "0"): 243, (2, "all"): 243, (2, "none"): 17, (2, "some"): 802, (3, "0"): 1218,
        (3, "all"): 1218, (3, "none"): 82, (3, "some"): 4052, (4, "0"): 112, (4, "all"): 112,
        (4, "none"): 16, (4, "some"): 192, (5, "0"): 175, (5, "all"): 175, (5, "none"): 25,
        (5, "some"): 300, (8, "0"): 448, (8, "all"): 448, (8, "none"): 64, (8, "some"): 768,
        (9, "0"): 567, (9, "all"): 567, (9, "none"): 81, (9, "some"): 972,
    }


def test_one_move_witness_reads_no_rank_table(monkeypatch):
    tables, ranks = [], []
    watch(monkeypatch, rank_table, tables)
    watch(monkeypatch, (ReprMatroid, "rank"), ranks)
    # e parallel to the coloop-side c: contracting it is the only choice
    M = one_coloop_one_loop_one_parallel()
    assert one_move_partition(M, MinorSpec({"e"}, set())) is None
    # the loop e may be contracted or deleted: the witness moves it
    M = isolated({"c"}, {"c", "d", "e"})
    assert one_move_partition(M, MinorSpec(set(), {"e"})) == MinorSpec({"e"}, set())
    assert one_move_partition(M, MinorSpec(set(), set())) is None
    # the coloop c may be deleted: only the elimination in M* sees it
    assert one_move_partition(M, MinorSpec({"c"}, set())) == MinorSpec(set(), {"c"})
    assert tables == [] and ranks == []


