"""Fragility certification tests.

Two views of the same condition are exercised side by side: the matroid
one (exactly one partition (C, D) of E(M) - E(N) with M/C\\D = N) and
the matrix one (the X block vanishes and X raises the rank of every
disjoint nonempty Y).
"""

import time
from collections import Counter
from itertools import combinations
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from matroidfrag import fragility, matrices, matroids
from matroidfrag.subsets import first_by_size
from matroidfrag import (
    CapExceeded,
    GroundSetMismatch,
    LabeledMatrix,
    MinorSpec,
    ReprMatroid,
    UnknownLabel,
    display_basis,
    extend_field,
    field_of_order,
    fragile_partitions,
    gen_random,
    is_N_fragile,
    is_X_fragile_matrix,
    isolated,
    isolated_rn,
    make_prime_field,
    one_move_partition,
    partitions_of,
    submatrix_rank,
    subsets_by_size,
    x_fragile_failure,
)

GF2 = make_prime_field(2)
GF3 = make_prime_field(3)
GF4 = extend_field(GF2, 2)
GF8 = extend_field(GF2, 3)
GF9 = extend_field(GF3, 2)
GF16_OVER_GF4 = extend_field(GF4, 2)


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
    M = one_coloop_one_loop_one_parallel()
    with pytest.raises(GroundSetMismatch):
        fragile_partitions(M, isolated({"q"}, {"q"}))
    big = isolated({"c"}, {"c"} | {f"l{i}" for i in range(13)})
    N = isolated({"c"}, {"c"})
    with pytest.raises(CapExceeded):
        fragile_partitions(big, N)
    assert len(fragile_partitions(big, N, cap=13)) != 1


def test_minor_table_is_capped_before_it_is_built(monkeypatch):
    # a 17-element GF(3) matroid against itself with a row scaled by 2:
    # the leaf (∅, ∅) has N's zero pattern and other entries, so it needs
    # N's table, which is refused before any table is built
    def no_table(*args, **kwargs):
        raise AssertionError("rank table built before the cap check")

    monkeypatch.setattr(fragility, "rank_table", no_table)
    rows, cols = [f"r{i}" for i in range(8)], [f"c{j}" for j in range(9)]
    A = LabeledMatrix(GF3, rows, cols, [[1] * len(cols)] * len(rows))
    N = A
    for f in cols:
        N = N.set_entry("r0", f, 2)
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="cap 16"):
        fragile_partitions(ReprMatroid(A), ReprMatroid(N))
    assert time.perf_counter() - start < 0.5


def test_minor_equal_to_a_large_matroid_builds_no_table(monkeypatch):
    # 22 elements over GF(2), N = M: the one leaf is N's own display, so
    # it is accepted with no table, however large E(N) is
    def no_table(*args, **kwargs):
        raise AssertionError("rank table built")

    monkeypatch.setattr(fragility, "rank_table", no_table)
    rows, cols = [f"r{i}" for i in range(11)], [f"c{j}" for j in range(11)]
    rng = Random(22)
    data = [[rng.randint(0, 1) for _ in cols] for _ in rows]
    M = ReprMatroid(LabeledMatrix(GF2, rows, cols, data))
    assert fragile_partitions(M, M) == {MinorSpec(set(), set())}


def test_matrix_side_positive():
    A = LabeledMatrix(GF2, ["c"], ["d", "e"], [[0, 1]])
    assert x_fragile_failure(A, {"c", "d"}) is None
    assert is_X_fragile_matrix(A, {"c", "d"})


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
    assert is_X_fragile_matrix(A, {"a", "b"})
    B = LabeledMatrix(GF2, ["a", "b"], ["x", "y"], [[1, 0], [0, 0]])
    assert x_fragile_failure(B, {"a", "b"}) == ("rank_not_increased", frozenset({"y"}))


def test_matrix_side_validation():
    A = LabeledMatrix(GF2, ["c"], ["d", "e"], [[0, 1]])
    with pytest.raises(UnknownLabel):
        x_fragile_failure(A, {"c", "q"})
    wide = LabeledMatrix(GF2, ["c"], [f"v{i}" for i in range(14)], [[0] * 14])
    with pytest.raises(CapExceeded):
        x_fragile_failure(wide, {"c", "v0"})


def test_failure_is_first_in_size_then_lex_order():
    # two witnesses exist ({x} and {y}); enumeration returns {x}
    A = LabeledMatrix(GF2, ["c"], ["d", "x", "y"], [[0, 0, 0]])
    kind, Y = x_fragile_failure(A, {"c", "d"})
    assert (kind, Y) == ("rank_not_increased", frozenset({"x"}))


def test_both_views_agree_on_fixed_instances():
    # positive instance
    A = LabeledMatrix(GF2, ["c"], ["d", "e"], [[0, 1]])
    assert is_X_fragile_matrix(A, {"c", "d"})
    assert is_N_fragile(ReprMatroid(A), isolated({"c"}, {"c", "d"}))
    # negative instance
    B = LabeledMatrix(GF2, ["c"], ["d", "e"], [[0, 0]])
    assert not is_X_fragile_matrix(B, {"c", "d"})
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
    with pytest.raises(GroundSetMismatch):
        display_basis(M, isolated({"q"}, {"q"}))


def test_display_basis_lex_least():
    M = ReprMatroid(LabeledMatrix(GF2, ["a", "b"], ["c", "d"], [[1, 1], [1, 0]]))
    # both {a, b} and {a, c} display the single coloop a; lex order wins
    N = isolated({"a"}, {"a"})
    assert display_basis(M, N) == {"a", "b"}


def test_display_basis_checks_the_cap_first():
    # 13 elements outside the minor: refused before any basis is tried
    with pytest.raises(CapExceeded):
        display_basis(isolated_rn(1, 15), isolated_rn(1, 2))


def display_basis_sweep(M, N):
    """Reference: every r-subset of E(M) in lex order, the first basis
    whose minor M/(B - E(N))\\(E(M) - B - E(N)) equals N."""
    r = M.rank()
    for combo in combinations(sorted(M.ground), r):
        B = frozenset(combo)
        if M.rank(B) == r and M.minor(B - N.ground, M.ground - B - N.ground).equals(N):
            return B
    return None


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


# -- references: the per-subset searches that rank tables replaced ------------


def fragile_partitions_loop(M, N):
    """Every realising partition, by one rank query of M per X | C."""
    rN = [(X, N.rank(X)) for X in subsets_by_size(N.ground) if X]
    found = set()
    for C, D in partitions_of(M.ground - N.ground):
        rc = M.rank(C)
        if all(M.rank(X | C) - rc == rx for X, rx in rN):
            found.add(MinorSpec(C, D))
    return found


def fragile_partitions_table(M, N):
    """Every realising partition, read off one rank table of M over
    sorted E(N) + sorted(E(M) - E(N)): (C, D) realises N iff the slice of
    the table at C's mask is N's table offset by r(C)."""
    rest = M.ground - N.ground
    n = len(N.ground)
    order = sorted(N.ground) + sorted(rest)
    bit = {v: 1 << i for i, v in enumerate(order)}
    T = matrices.rank_table(M.rep, order)
    TN = matrices.rank_table(N.rep, order[:n])
    found = set()
    for C, D in partitions_of(rest):
        cm = sum(bit[v] for v in C)
        if T[cm : cm + (1 << n)] == bytes(t + T[cm] for t in TN):
            found.add(MinorSpec(C, D))
    return found


def fragile_partitions_generic(M, N):
    """The partition search with the generic pivot steps of
    `ReprMatroid` over every field, GF(2) included: the search before
    its GF(2) steps moved to packed rows and gained the two span tests.
    The same walk, root and leaf rule, with no node test."""
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
        return matrices.rank_table(A, labels) == matrices.rank_table(N.rep, labels)

    def walk(i, C, node):
        if i == len(rest):
            if is_N(*node):
                found.append(MinorSpec(C, set(rest) - C))
            return
        e = rest[i]
        for contracting in ways(*node, e):
            rows, cols, data = node
            child = rows[:], cols[:], [row[:] for row in data]
            step = ReprMatroid._contract_one if contracting else ReprMatroid._delete_one
            step(field, *child, e, BN if contracting else coN)
            walk(i + 1, C | {e} if contracting else C, child)

    root = M._display_lists()
    if ReprMatroid._pivot_onto(field, *root, BN) and ReprMatroid._pivot_off(field, *root, coN):
        NA = [[N.rep.enc(b, f) for f in root[1] if f in coN] for b in root[0] if b in BN]
        walk(0, frozenset(), root)
    return frozenset(found)


def x_fragile_failure_loop(A, X):
    """x_fragile_failure by two submatrix ranks per nonempty Y."""
    Xf = frozenset(X)
    for r in sorted(Xf & frozenset(A.rows)):
        for c in sorted(Xf & frozenset(A.cols)):
            if A.enc(r, c):
                return ("block_nonzero", (r, c))
    for Y in subsets_by_size(A.labels() - Xf):
        if Y and submatrix_rank(A, Xf | Y) <= submatrix_rank(A, Y):
            return ("rank_not_increased", Y)
    return None


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
    Tc = matrices.rank_table(M.minor(xc, xr).rep, rest)
    Tr = matrices.rank_table(M.minor(xr, xc).rep, rest)
    rc = M.rank(xc)
    rmask = sum(1 << i for i, v in enumerate(rest) if v in R)
    fails = [y for y in range(1, len(Tc)) if Tc[y ^ rmask] + rc <= Tr[y ^ rmask]]
    if fails:
        return ("rank_not_increased", frozenset(first_by_size(fails, rest)))
    return None


FIELDS = (GF2, GF3, GF4, GF8, GF9, GF16_OVER_GF4)


def random_matrix(rng, F, max_rows=4, max_cols=4):
    rows = [f"r{i}" for i in range(rng.randint(0, max_rows))]
    cols = [f"c{j}" for j in range(rng.randint(0, max_cols))]
    density = rng.random()
    data = [[rng.randrange(F.order) if rng.random() < density else 0 for _ in cols]
            for _ in rows]
    return LabeledMatrix(F, rows, cols, data)


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


GF5 = make_prime_field(5)
SEARCH_FIELDS = (GF2, GF3, GF4, GF5)


@st.composite
def minor_pairs(draw):
    """A matrix of at most 4 x 5 over GF(2), GF(3), GF(4) or GF(5), a side
    for each label ("C" to contract, "D" to delete, "N" to keep, drawn
    twice as often), how N is made from the cut minor (kept, an isolated
    matroid on its labels, or its display with one entry changed) and a
    number that picks the coloops or the entry."""
    F = draw(st.sampled_from(range(len(SEARCH_FIELDS))))
    m = draw(st.integers(0, 4))
    n = draw(st.integers(0, 5))
    entries = st.integers(0, SEARCH_FIELDS[F].order - 1)
    data = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    sides = draw(st.lists(st.sampled_from("CDNN"), min_size=m + n, max_size=m + n))
    how = draw(st.sampled_from(("cut", "isolated", "changed")))
    return F, data, n, sides, how, draw(st.integers(0, 511))


def build_minor_pair(F, data, n, sides, how, pick):
    field = SEARCH_FIELDS[F]
    rows = [f"r{i}" for i in range(len(data))]
    cols = [f"c{j}" for j in range(n)]
    M = ReprMatroid(LabeledMatrix(field, rows, cols, data))
    side = dict(zip(rows + cols, sides))
    N = M.minor({e for e in side if side[e] == "C"}, {e for e in side if side[e] == "D"})
    labels = sorted(N.ground)
    if how == "isolated":
        N = isolated({e for i, e in enumerate(labels) if pick >> i & 1}, labels, field)
    elif how == "changed" and N.rep.rows and N.rep.cols:
        A = N.rep
        r = A.rows[pick % len(A.rows)]
        c = A.cols[pick // len(A.rows) % len(A.cols)]
        N = ReprMatroid(A.set_entry(r, c, field.add_enc(A.enc(r, c), 1)))
    return M, N


def test_pruned_search_matches_the_table_search():
    # the pruned pivot search against the 2^|E(M)| table search it
    # replaced, partition set for partition set, with none, one and
    # several realising partitions over each field
    seen = Counter()

    @settings(max_examples=600, derandomize=True, deadline=None, database=None)
    @given(minor_pairs())
    @example((0, [], 0, [], "cut", 0))
    @example((3, [[0, 1], [0, 0]], 2, list("NDNC"), "isolated", 1))
    def check(case):
        M, N = build_minor_pair(*case)
        got = fragile_partitions(M, N)
        assert got == fragile_partitions_table(M, N)
        seen[SEARCH_FIELDS[case[0]].order, min(len(got), 2)] += 1

    check()
    for q in (2, 3, 4, 5):
        for count in (0, 1, 2):
            assert seen[q, count] >= 10, seen


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
    monkeypatch.setattr(fragility, "rank_table",
                        lambda *a, **k: tables.append(a) or matrices.rank_table(*a, **k))
    A = LabeledMatrix(GF2, ["a", "b"], ["c", "d"], [[1, 1], [0, 1]])
    M, N = ReprMatroid(A), ReprMatroid(A.set_entry("a", "d", 0))
    assert fragile_partitions(M, N) == fragile_partitions_table(M, N) == set()
    assert len(tables) == 0
    A = LabeledMatrix(GF3, ["a", "b"], ["c", "d"], [[1, 1], [0, 1]])
    M, N = ReprMatroid(A), ReprMatroid(A.set_entry("a", "c", 2))
    assert fragile_partitions(M, N) == {MinorSpec(set(), set())}
    assert len(tables) == 2


@st.composite
def pattern_pairs(draw):
    """A matrix of at most 4 x 5 over GF(3), GF(4) or GF(5), a side for
    each label as in `minor_pairs`, how N's display is made from the cut
    minor's (kept, a row or column scaled by a nonzero factor, which
    keeps the matroid, or one entry's zero pattern flipped, which does
    not) and a number that picks the line, the entry and the factor."""
    F = draw(st.sampled_from(range(1, len(SEARCH_FIELDS))))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    entries = st.integers(0, SEARCH_FIELDS[F].order - 1)
    data = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    sides = draw(st.lists(st.sampled_from("CDNN"), min_size=m + n, max_size=m + n))
    how = draw(st.sampled_from(("cut", "scaled", "flipped")))
    return F, data, n, sides, how, draw(st.integers(0, 4095))


def build_pattern_pair(F, data, n, sides, how, pick):
    M, N = build_minor_pair(F, data, n, sides, "cut", 0)
    A = N.rep
    if how == "cut" or not (A.rows and A.cols):
        return M, N
    field = A.field
    r = A.rows[pick % len(A.rows)]
    c = A.cols[pick // len(A.rows) % len(A.cols)]
    if how == "flipped":
        return M, ReprMatroid(A.set_entry(r, c, 0 if A.enc(r, c) else 1 + pick % (field.order - 1)))
    # scale row r, or column c, by a nonzero factor other than 1
    factor = 2 + pick // 64 % (field.order - 2)
    line = [(r, f) for f in A.cols] if pick // 32 % 2 else [(e, c) for e in A.rows]
    for e, f in line:
        A = A.set_entry(e, f, field.mul_enc(factor, A.enc(e, f)))
    return M, ReprMatroid(A)


def test_leaf_zero_pattern_rule_matches_the_table_search():
    # a leaf on N's rows with another zero pattern is rejected with no
    # table over every field; one with N's pattern and other entries
    # (a scaled line) goes to its table, so it is still found
    seen = Counter()

    @settings(max_examples=600, derandomize=True, deadline=None, database=None)
    @given(pattern_pairs())
    @example((1, [[1, 2], [0, 1]], 2, list("NNNN"), "scaled", 0))
    @example((3, [[1, 4], [3, 0]], 2, list("NNNN"), "flipped", 1))
    def check(case):
        M, N = build_pattern_pair(*case)
        got = fragile_partitions(M, N)
        assert got == fragile_partitions_table(M, N)
        seen[SEARCH_FIELDS[case[0]].order, case[4], min(len(got), 2)] += 1

    check()
    for q in (3, 4, 5):
        for how in ("cut", "scaled"):
            assert seen[q, how, 1] + seen[q, how, 2] >= 10, seen
        assert seen[q, "flipped", 0] >= 10, seen


def test_leaf_off_the_minors_zero_pattern_builds_no_table(monkeypatch):
    # N on its own rows with its display scaled or flipped: the leaf
    # (C, D) = (∅, ∅) is on N's rows, so only a pattern equal to N's
    # reaches a table, and then N's is built too; on a GF(3) pipeline
    # pair every leaf re-displayed on N's basis is decided by its
    # display, where comparing only the leaves already on N's rows built
    # 9 tables
    tables = []
    monkeypatch.setattr(fragility, "rank_table",
                        lambda *a, **k: tables.append(a) or matrices.rank_table(*a, **k))
    for F in (GF3, GF4, GF5):
        A = LabeledMatrix(F, ["a", "b"], ["c", "d"], [[1, 1], [0, 1]])
        tables.clear()
        assert fragile_partitions(ReprMatroid(A), ReprMatroid(A.set_entry("b", "c", 1))) == set()
        assert len(tables) == 0
        tables.clear()
        N = ReprMatroid(A.set_entry("a", "c", 2).set_entry("b", "c", 0))
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

    def recorded(A, labels, *, contract=()):
        spans.append(len(labels))
        return matrices.rank_table(A, labels, contract=contract)

    monkeypatch.setattr(fragility, "rank_table", recorded)
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
                A = A.set_entry(e, f, A.field.mul_enc(2, A.enc(e, f)))
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


def counted_search(monkeypatch, M, N):
    """fragile_partitions(M, N), with the number of display steps
    (`_contract_one` and `_delete_one` calls, or `_step_gf2` calls on
    packed GF(2) rows) and of pivots (`_pivot_inplace` calls, the root's
    included, and `_pivot_gf2` calls) it made."""
    counts = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as mp:
        for name in ("_contract_one", "_delete_one"):
            mp.setattr(ReprMatroid, name, staticmethod(counting("steps", getattr(ReprMatroid, name))))
        mp.setattr(matroids, "_pivot_inplace", counting("pivots", matroids._pivot_inplace))
        mp.setattr(fragility, "_step_gf2", counting("steps", fragility._step_gf2))
        mp.setattr(fragility, "_pivot_gf2", counting("pivots", fragility._pivot_gf2))
        return fragile_partitions(M, N), counts["steps"], counts["pivots"]


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


def ladder_draw(n, q):
    """The ladder draw of size n over GF(q): an n x n matrix with X the
    first n // 2 row and column labels, drawn as `gen_random`'s xfragile
    loop draws, from seed 0, and N = isolated(X & rows, X)."""
    field = field_of_order(q)
    rows, cols = [f"r{i}" for i in range(n)], [f"c{j}" for j in range(n)]
    h = n // 2
    X = frozenset(rows[:h] + cols[:h])
    part = MinorSpec(rows[h:], cols[h:])
    rng = Random(0)
    while True:
        data = [[rng.randrange(q) for _ in cols] for _ in rows]
        for row in data[:h]:
            row[:h] = [0] * h
        A = LabeledMatrix(field, rows, cols, data)
        if one_move_partition(ReprMatroid(A), part) is None and x_fragile_failure(A, X, cap=40) is None:
            return ReprMatroid(A), isolated(X & set(rows), X)


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
    leaves = []
    monkeypatch.setattr(fragility, "partitions_of", lambda S: leaves.append(S) or partitions_of(S))
    M, N = ladder_draw(20, 2)
    got = fragile_partitions(M, N, cap=40)
    assert got == {MinorSpec({f"r{i}" for i in range(10, 20)}, {f"c{j}" for j in range(10, 20)})}
    assert len(leaves) == 1


GF2_HOWS = ("cut", "rebased", "flipped", "isolated", "gf4")


@st.composite
def gf2_pairs(draw):
    """A GF(2) matrix of at most 5 x 5, a side for each label as in
    `minor_pairs`, how N is made from the cut minor (kept, re-displayed
    on another of its bases, one entry flipped, an isolated matroid on
    its labels, or lifted to GF(4) with one nonzero entry possibly moved
    off GF(2)) and a number that picks the basis, the coloops or the
    entry."""
    m = draw(st.integers(0, 5))
    n = draw(st.integers(0, 5))
    data = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    sides = draw(st.lists(st.sampled_from("CDNN"), min_size=m + n, max_size=m + n))
    return data, n, sides, draw(st.sampled_from(GF2_HOWS)), draw(st.integers(0, 4095))


def build_gf2_pair(data, n, sides, how, pick):
    M, N = build_minor_pair(0, data, n, sides, "cut", 0)
    A = N.rep
    if how == "isolated":
        # no coloop, every label a coloop, or the coloops pick's bits name
        labels = sorted(N.ground)
        named = {e for i, e in enumerate(labels) if pick >> i + 2 & 1}
        return M, isolated((set(), labels, named)[pick % 3], labels, GF2)
    if how == "rebased":
        bases = sorted(map(sorted, N.bases()))
        return M, N.rebase(bases[pick % len(bases)])
    if how == "gf4":
        A = A.lift(GF4)
    if how in ("flipped", "gf4") and A.rows and A.cols:
        r = A.rows[pick % len(A.rows)]
        c = A.cols[pick // len(A.rows) % len(A.cols)]
        x = A.enc(r, c)
        A = A.set_entry(r, c, 1 - x if how == "flipped" else x * (1 + pick // 64 % 3))
    return M, ReprMatroid(A)


def test_packed_search_matches_the_generic_steps():
    # the packed GF(2) search, with its span tests, against the generic
    # steps it replaced over GF(2), partition set for partition set
    seen = Counter()

    @settings(max_examples=800, derandomize=True, deadline=None, database=None)
    @given(gf2_pairs())
    @example(([[1, 1], [0, 1]], 2, list("CNNN"), "cut", 0))
    @example(([[1, 0], [1, 1]], 2, list("NDNN"), "gf4", 65))
    # N = [[x, 1], [1, 1]] over GF(4) is U(2, 4), with M's zero pattern
    @example(([[1, 1], [1, 1]], 2, list("NNNN"), "gf4", 64))
    def check(case):
        M, N = build_gf2_pair(*case)
        got = fragile_partitions(M, N)
        assert got == fragile_partitions_generic(M, N), case
        count = min(len(got), 2)
        seen[count] += 1
        seen[case[3], count > 0] += 1
        seen["empty BN", count > 0] += not N.basis
        seen["empty coN", count > 0] += not N.ground - N.basis

    check()
    for n in range(10, 17, 2):
        M, N = ladder_draw(n, 2)
        got = fragile_partitions(M, N, cap=40)
        assert got == fragile_partitions_generic(M, N) and len(got) == 1
    # none, one and several partitions; every way of making N realised,
    # and the flipped and isolated ones also not; an empty BN or coN
    # both ways
    for key in (0, 1, 2, *((how, True) for how in GF2_HOWS), ("flipped", False),
                ("isolated", False), *((side, b) for side in ("empty BN", "empty coN")
                                       for b in (False, True))):
        assert seen[key] >= 10, seen


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


def partition_basis_scan(M, N, part):
    """Reference: C, then a greedy scan of E(N) in label order that keeps
    each element raising the rank in M, one rank query per element; the
    result if it is a basis of M."""
    B = set(part.contract)
    r = M.rank(B)
    if r != len(B):
        return None
    for e in sorted(N.ground):
        if M.rank(B | {e}) > r:
            B.add(e)
            r += 1
    return frozenset(B) if r == M.rank() else None


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
                    A = A.set_entry(r, c, 0)
        got = x_fragile_failure(A, X)
        assert got == x_fragile_failure_loop(A, X), (A, sorted(X))
        seen[got and got[0]] += 1
    assert min(seen.values()) >= 10, seen


XFRAGILE_FIELDS = (GF2, GF3, GF4, GF5, GF9)


@st.composite
def x_sets(draw):
    """A matrix of at most 4 x 5 over one of XFRAGILE_FIELDS, sparse or
    dense, a set X of its labels, and whether the X block is zeroed (in
    three draws of four)."""
    F = draw(st.sampled_from(range(len(XFRAGILE_FIELDS))))
    m = draw(st.integers(0, 4))
    n = draw(st.integers(0, 5))
    order = XFRAGILE_FIELDS[F].order
    entries = st.integers(0, order - 1) | st.just(0)
    data = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    in_x = draw(st.lists(st.booleans(), min_size=m + n, max_size=m + n))
    return F, data, in_x, draw(st.sampled_from((True, True, True, False)))


def test_x_fragile_failure_matches_the_minors_reference():
    # the tables read off the display by elimination against the tables
    # of the two pivoted minors they replaced: the same verdicts,
    # witnesses included, with each kind of verdict drawn
    seen = Counter()

    @settings(max_examples=600, derandomize=True, deadline=None, database=None)
    @given(x_sets())
    @example((0, [], [], True))
    @example((1, [[1, 0], [0, 0]], [True, False, False, True], True))
    def check(case):
        F, data, in_x, zeroed = case
        rows = [f"r{i}" for i in range(len(data))]
        cols = [f"c{j}" for j in range(len(in_x) - len(data))]
        X = {e for e, x in zip(rows + cols, in_x) if x}
        if zeroed:
            data = [[0 if r in X and c in X else v for c, v in zip(cols, row)]
                    for r, row in zip(rows, data)]
        A = LabeledMatrix(XFRAGILE_FIELDS[F], rows, cols, data)
        got = x_fragile_failure(A, X)
        assert got == x_fragile_failure_minors(A, X)
        seen[got and got[0]] += 1

    check()
    assert min(seen[kind] for kind in (None, "block_nonzero", "rank_not_increased")) >= 10, seen


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
                A = A.set_entry(r, c, 0)
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

    def recorded(A, labels, *, contract=()):
        table = matrices.rank_table(A, labels, contract=contract)
        sizes.append(len(table))
        return table

    monkeypatch.setattr(fragility, "rank_table", recorded)
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
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    A = LabeledMatrix(GF3, ["a", "b"], ["c", "d", "e"], [[0, 1, 2], [0, 0, 1]])
    M = ReprMatroid(A)
    N = isolated({"a"}, {"a", "c"}, GF3)
    want = (fragile_partitions_loop(M, N), x_fragile_failure_loop(A, {"a", "c"}),
            {frozenset(B) for B in combinations("abcde", 2) if M.rank(B) == 2})
    assert len(want[0]) == 3 and want[1] is not None and len(want[2]) == 5
    rank = ReprMatroid.rank

    def subset_rank(self, X=None):
        if X is not None:
            calls.append(("ReprMatroid.rank", sorted(X)))
        return rank(self, X)

    monkeypatch.setattr(ReprMatroid, "rank", subset_rank)
    for module in (matrices, fragility):
        monkeypatch.setattr(module, "submatrix_rank",
                            counted("submatrix_rank", matrices.submatrix_rank), raising=False)
    M = ReprMatroid(A)  # an empty rank cache
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


WITNESS_FIELDS = (GF2, GF3, GF4, GF5)


@st.composite
def pairs_with_partition(draw, fields=3, size=4):
    """A matrix over one of the first `fields` WITNESS_FIELDS of at most
    `size` x `size`, and a side for each label: "C" to contract, "D" to
    delete, "N" to keep."""
    F = draw(st.sampled_from(range(fields)))
    m = draw(st.integers(0, size))
    n = draw(st.integers(0, size))
    order = WITNESS_FIELDS[F].order
    entries = st.integers(0, order - 1)
    data = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    sides = draw(st.text(alphabet="CDN", min_size=m + n, max_size=m + n))
    return F, data, n, sides


def build_pair(F, data, n, sides):
    rows = [f"r{i}" for i in range(len(data))]
    cols = [f"c{j}" for j in range(n)]
    M = CountingMatroid(LabeledMatrix(WITNESS_FIELDS[F], rows, cols, data))
    side = dict(zip(rows + cols, sides))
    part = MinorSpec({e for e in side if side[e] == "C"},
                     {e for e in side if side[e] == "D"})
    return M, part


def one_move_neighbours(M, part):
    """The realising partitions one move from `part`, by the full search."""
    parts = fragile_partitions(M, M.minor_of(part))
    assert part in parts
    return {p for p in parts if len(p.contract ^ part.contract) == 1}, parts


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(pairs_with_partition())
# no C; no D; an empty minor; a loop and a coloop that may move either way
@example((0, [[1, 1], [0, 1]], 2, "NDND"))
@example((1, [[1, 2], [2, 0]], 2, "NCNC"))
@example((2, [[3, 0], [1, 2]], 2, "CDDC"))
@example((0, [[0, 1], [0, 0]], 2, "CNDN"))
def test_one_move_witness_matches_the_full_search(case):
    M, part = build_pair(*case)
    neighbours, parts = one_move_neighbours(M, part)
    M.queries = 0
    got = one_move_partition(M, part)
    assert M.queries == 0
    if got is None:
        assert not neighbours
    else:
        assert got in neighbours
    if len(parts) == 1:
        assert got is None


def test_one_move_witness_matches_the_query_reference():
    # the two eliminations against the per-query witness they replaced:
    # the same verdict, and a returned partition is a one-move neighbour
    # by the full search; over each field, draws with a neighbour,
    # without one, and with one that only the elimination in M* finds
    # (C0 independent and D0 off cl(C0))
    seen = Counter()

    @settings(max_examples=1000, derandomize=True, deadline=None, database=None)
    @given(pairs_with_partition(len(WITNESS_FIELDS), 5))
    def check(case):
        M, part = build_pair(*case)
        got = one_move_partition(M, part)
        want = one_move_partition_queries(M, part)
        assert (got is None) == (want is None)
        neighbours, _ = one_move_neighbours(M, part)
        assert got is None or got in neighbours
        C0, D0 = part.contract, part.delete
        in_M = M.rank(C0) < len(C0) or any(M.rank(C0 | {e}) == M.rank(C0) for e in D0)
        kind = "none" if got is None else "M" if in_M else "M* only"
        seen[WITNESS_FIELDS[case[0]].order, kind] += 1

    check()
    for q in (2, 3, 4, 5):
        for kind in ("none", "M", "M* only"):
            assert seen[q, kind] >= 10, seen


def test_one_move_witness_reads_no_rank_table(monkeypatch):
    tables, ranks = [], []
    monkeypatch.setattr(fragility, "rank_table",
                        lambda *a: tables.append(a) or matrices.rank_table(*a))
    rank = ReprMatroid.rank
    monkeypatch.setattr(ReprMatroid, "rank",
                        lambda self, X=None: ranks.append(X) or rank(self, X))
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
