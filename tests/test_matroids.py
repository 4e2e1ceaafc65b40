"""Column matroid tests on small hand-worked instances.

The running example is the GF(2) standard representation with rows
(a, b) and columns (c, d), entries [[1, 1], [1, 0]].  As vectors
a = (1,0), b = (0,1), c = (1,1), d = (1,0), so d is parallel to a and
every other pair is independent.
"""

from collections import Counter
from itertools import combinations
from random import Random

import pytest

from matroidfrag import (
    CapExceeded,
    InvalidArgs,
    LabeledMatrix,
    ReprMatroid,
    UnknownLabel,
    is_relaxation,
    isolated,
    make_prime_field,
    subsets_by_size,
)
from matroidfrag.matroids import _pivot_inplace
from reference import (
    GF2, GF3, GF4, GF5, GF9, SCOPES, entries, minor_by_pivots, pivot_by_field_methods, scope_cases,
    scope_matrices, textbook_rank,
)
from watch import forbid, watch


def running_example():
    return ReprMatroid(LabeledMatrix(GF2, ["a", "b"], ["c", "d"], [[1, 1], [1, 0]]))


def pairs(*labels):
    return {frozenset(p) for p in combinations(labels, 2)}


def test_rank_values():
    M = running_example()
    assert M.rank() == 2
    assert M.rank(()) == 0
    assert M.rank({"a"}) == 1
    assert M.rank({"a", "d"}) == 1
    assert M.rank({"c", "d"}) == 2
    assert M.rank({"a", "b", "c", "d"}) == 2


def test_bases_frozen():
    M = running_example()
    assert M.bases() == pairs("a", "b", "c", "d") - {frozenset({"a", "d"})}
    assert M.basis == {"a", "b"}


def test_rank_axioms_on_running_example():
    M = running_example()
    subsets = list(subsets_by_size(M.ground))
    r = {X: M.rank(X) for X in subsets}
    for X in subsets:
        assert 0 <= r[X] <= len(X)
        for e in M.ground - X:
            assert r[X] <= r[X | {e}] <= r[X] + 1
    for X in subsets:
        for Y in subsets:
            assert r[X | Y] + r[X & Y] <= r[X] + r[Y]


def test_contract_to_uniform_rank_one():
    M = running_example()
    Mc = M.minor(contract={"c"})
    assert Mc.ground == {"a", "b", "d"}
    assert Mc.rank() == 1
    assert Mc.bases() == {frozenset({"a"}), frozenset({"b"}), frozenset({"d"})}


def test_delete_to_uniform_two_three():
    M = running_example()
    Md = M.minor(delete={"d"})
    assert Md.ground == {"a", "b", "c"}
    assert Md.bases() == pairs("a", "b", "c")


def test_minor_rank_identity():
    # rank in M/C\D of X is rank_M(X | C) - rank_M(C)
    M = running_example()
    for C, D in ((frozenset({"c"}), frozenset({"a"})), (frozenset(), frozenset({"d"})),
                 (frozenset({"a", "d"}), frozenset())):
        Mm = M.minor(C, D)
        rc = M.rank(C)
        for X in subsets_by_size(Mm.ground):
            assert Mm.rank(X) == M.rank(X | C) - rc


def test_contract_row_and_delete_col_fast_paths():
    M = running_example()
    # contracting a row label and deleting a column label skip pivoting
    assert M.minor(contract={"a"}).ground == {"b", "c", "d"}
    assert M.minor(delete={"c"}).ground == {"a", "b", "d"}
    assert M.minor(contract={"a"}, delete={"c"}).rank() == 1


def test_contract_loop_equals_delete_loop():
    # c is a loop (a zero column) and b a coloop (a zero row); the
    # pivots on d and x run the residue branch of `_pivot_inplace` over a
    # prime field and its tower branch over GF(4)
    for F in (GF2, GF3, GF4):
        top = F.order - 1
        A = LabeledMatrix(F, ["a", "b", "x"], ["c", "d", "y"],
                          [[0, top, 1], [0, 0, 0], [0, 1, top]])
        M = ReprMatroid(A)
        assert M.rank({"c"}) == 0 and M.rank(M.ground - {"b"}) == M.rank() - 1
        assert M.minor(contract={"c"}) == M.minor(delete={"c"})
        assert M.minor(contract={"c", "d"}).equals(M.minor(contract={"d"}, delete={"c"}))
        # the dual case: deleting the coloop b is contracting it
        assert M.minor(delete={"b"}) == M.minor(contract={"b"})
        assert M.minor(delete={"b", "x"}).equals(M.minor(contract={"b"}, delete={"x"}))


def test_rebase():
    M = running_example()
    R = M.rebase({"c", "d"})
    assert R.basis == {"c", "d"}
    assert R.equals(M)
    assert R.rep.rows in (("c", "d"), ("d", "c"))


def test_dual_bases_are_complements():
    M = running_example()
    D = M.dual()
    assert D.ground == M.ground
    assert D.bases() == {M.ground - B for B in M.bases()}
    assert D.rank() == 2


def test_dual_corank_formula():
    M = running_example()
    D = M.dual()
    rE = M.rank()
    for X in subsets_by_size(M.ground):
        assert D.rank(X) == len(X) + M.rank(M.ground - X) - rE


def test_dual_involution():
    for M in (running_example(),
              ReprMatroid(LabeledMatrix(GF3, ["a"], ["c", "d"], [[1, 2]]))):
        assert M.dual().dual().rep == M.rep


def test_dual_commutes_with_minors():
    M = running_example()
    C, D = frozenset({"c"}), frozenset({"a"})
    assert M.minor(C, D).dual().equals(M.dual().minor(D, C))


def test_closure():
    M = running_example()
    assert M.closure({"a"}) == {"a", "d"}
    assert M.closure({"c", "d"}) == {"a", "b", "c", "d"}
    assert M.closure(()) == frozenset()


def test_circuits():
    M = running_example()
    assert M.is_circuit({"a", "d"})
    assert M.is_circuit({"a", "b", "c"})
    assert not M.is_circuit({"a", "c"})
    assert not M.is_circuit({"a", "b", "d"})  # contains the circuit {a, d}
    assert not M.is_circuit(())
    # a loop is a one-element circuit
    L = ReprMatroid(LabeledMatrix(GF2, ["a"], ["c"], [[0]]))
    assert L.is_circuit({"c"})


def test_circuit_hyperplane_and_relaxation():
    M = running_example()
    assert M.is_circuit_hyperplane({"a", "d"})
    assert not M.is_circuit_hyperplane({"a", "b", "c"})  # spanning circuit
    # relaxing {a, d} yields the uniform matroid on four elements,
    # representable once the field grows to GF(4)
    U24 = ReprMatroid(LabeledMatrix(GF4, ["a", "b"], ["c", "d"], [[1, 1], [1, 2]]))
    assert U24.bases() == pairs("a", "b", "c", "d")
    assert is_relaxation(M, U24, {"a", "d"})
    assert not is_relaxation(M, U24, {"a", "b"})
    assert not is_relaxation(M, M, {"a", "d"})


def test_equals():
    M = running_example()
    assert M.equals(M.rebase({"c", "d"}))
    assert not M.equals(M.dual())  # same ground, different bases
    assert not M.equals(M.minor(delete={"d"}))  # different ground
    # same matroid represented over different fields
    M3 = ReprMatroid(LabeledMatrix(GF3, ["a", "b"], ["c", "d"], [[1, 1], [2, 0]]))
    assert M3.equals(M)


def test_bases_cap(monkeypatch):
    from matroidfrag.matrices import rank_table

    watch(monkeypatch, rank_table, [], key=forbid)
    with pytest.raises(CapExceeded, match="bases cap 16"):
        isolated({1}, range(1, 18)).bases()


def test_bases_match_combinations():
    # bases read one rank table; the reference asks every r-subset
    rng = Random(6)
    for t in range(60):
        F = (GF2, GF3, GF4)[t % 3]
        rows = [f"r{i}" for i in range(rng.randint(0, 4))]
        cols = [f"c{j}" for j in range(rng.randint(0, 4))]
        M = ReprMatroid(LabeledMatrix(
            F, rows, cols, [[rng.randrange(F.order) for _ in cols] for _ in rows]))
        r = M.rank()
        want = {frozenset(B) for B in combinations(sorted(M.ground), r) if M.rank(B) == r}
        assert M.bases() == want


def test_isolated():
    N = isolated({"c"}, {"c", "d"})
    assert N.rank({"c"}) == 1
    assert N.rank({"d"}) == 0
    assert N.bases() == {frozenset({"c"})}
    assert N.basis == {"c"}
    Nn = isolated({1, 2}, range(1, 5))
    assert Nn.ground == {"1", "2", "3", "4"}
    assert Nn.bases() == {frozenset({"1", "2"})}
    assert isolated((), ()).rank() == 0


@pytest.mark.parametrize("F", [GF2, GF3, GF4], ids=["gf2", "gf3", "gf4"])
def test_rank_oracle_matches_plain_elimination(F):
    # rank(X) = |X on the row side R| + rank of A[R - X, X on the column side]
    rng = Random(F.order)
    for _ in range(40):
        nrows, ncols = rng.randint(0, 4), rng.randint(0, 4)
        rows = [f"r{i}" for i in range(nrows)]
        cols = [f"c{j}" for j in range(ncols)]
        A = LabeledMatrix(F, rows, cols,
                          [[rng.randrange(F.order) for _ in cols] for _ in rows])
        M = ReprMatroid(A)
        for _ in range(8):
            X = frozenset(e for e in rows + cols if rng.random() < 0.5)
            block = [[A.enc(r, c) for c in cols if c in X] for r in rows if r not in X]
            assert M.rank(X) == len(X & set(rows)) + textbook_rank(F, block)


def test_equals_matches_subset_sweep():
    # equals compares two rank tables; the reference compares rank
    # queries subset by subset
    rng = Random(3)
    verdicts = []
    for t in range(60):
        F = (GF2, GF3, GF4)[t % 3]
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [f"r{i}" for i in range(nrows)]
        cols = [f"c{j}" for j in range(ncols)]
        data = [[rng.randrange(F.order) for _ in cols] for _ in rows]
        M = ReprMatroid(LabeledMatrix(F, rows, cols, data))
        if t % 2:
            r, c, x = rng.choice(rows), rng.choice(cols), rng.randrange(F.order)
            data[rows.index(r)][cols.index(c)] = x
            other = ReprMatroid(LabeledMatrix(F, rows, cols, data))
        else:
            other = M.rebase(rng.choice(sorted(M.bases(), key=sorted)))
        want = all(M.rank(X) == other.rank(X) for X in subsets_by_size(M.ground))
        assert M.equals(other) == want
        verdicts.append(want)
    assert 10 <= verdicts.count(False) <= 50


def rebase_by_rank_queries(M, B):
    """Reference: `rebase` as it was before it checked B by its own
    pivots, with two rank queries up front and the same pivots after."""
    Bf = frozenset(B)
    unknown = Bf - M.ground
    if unknown:
        raise UnknownLabel(f"labels not in ground set: {sorted(unknown)}")
    if len(Bf) != M.rank() or M.rank(Bf) != len(Bf):
        raise InvalidArgs(f"{sorted(Bf)} is not a basis")
    rows, cols = list(M.rep.rows), list(M.rep.cols)
    data = [list(r) for r in M.rep._data]
    for v in sorted(Bf - M.basis):
        j = cols.index(v)
        pick = -1
        best = None
        for i in range(len(rows)):
            if rows[i] not in Bf and data[i][j] and (best is None or rows[i] < best):
                pick, best = i, rows[i]
        _pivot_inplace(M.field, rows, cols, data, pick, j)
    return ReprMatroid(LabeledMatrix(M.field, rows, cols, data))


def test_rebase_by_pivots_matches_rank_queries():
    # the same display, or the same exception type and message, for
    # every subset B of every matrix of the scopes: a basis, a dependent
    # set of size r(M), or a set of another size
    seen = Counter()
    for scope in SCOPES["rebase"]:
        for A in scope_matrices(scope):
            M = ReprMatroid(A)
            r, bases = M.rank(), M.bases()
            for B in subsets_by_size(M.ground):
                outcomes = []
                for rebase in (ReprMatroid.rebase, rebase_by_rank_queries):
                    try:
                        outcomes.append(rebase(ReprMatroid(A), B).rep)
                    except (InvalidArgs, UnknownLabel) as e:
                        outcomes.append((type(e), str(e)))
                assert outcomes[0] == outcomes[1], (entries(A), sorted(B))
                kind = "basis" if B in bases else "dependent" if len(B) == r else "size"
                seen[scope.field.order, kind] += 1
    assert seen == {
        (2, "basis"): 328, (2, "dependent"): 312, (2, "size"): 1408, (3, "basis"): 345,
        (3, "dependent"): 141, (3, "size"): 810, (4, "basis"): 1204, (4, "dependent"): 332,
        (4, "size"): 2560, (5, "basis"): 425, (5, "dependent"): 75, (5, "size"): 1500,
    }


def test_minor_display_matches_the_textbook_steps():
    # M.minor(C, D)'s display, not only its matroid, against the textbook
    # pivots read by `enc` on the field's methods, for every disjoint
    # (C, D) of every matrix of the scopes: each kind of step is reached
    seen = Counter()
    for scope in SCOPES["contract"]:
        for M, part in scope_cases(scope):
            want, kinds = minor_by_pivots(M, part.contract, part.delete)
            assert M.minor(part.contract, part.delete).rep == want, (entries(M.rep), part)
            seen.update((scope.field.order, kind) for kind in kinds)
    assert seen == {
        (2, "coloop"): 412, (2, "drop"): 1728, (2, "loop"): 412, (2, "pivot"): 904,
        (3, "coloop"): 1558, (3, "drop"): 8748, (3, "loop"): 1558, (3, "pivot"): 5632,
        (4, "coloop"): 36, (4, "drop"): 432, (4, "loop"): 162, (4, "pivot"): 234,
        (5, "coloop"): 49, (5, "drop"): 675, (5, "loop"): 242, (5, "pivot"): 384,
        (9, "coloop"): 121, (9, "drop"): 2187, (9, "loop"): 722, (9, "pivot"): 1344,
    }


# -- the pivot's residue path and the dual's transposition ------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_pivot_matches_the_field_methods(p):
    # every nonzero position of random displays up to 6 x 6, sparse and
    # dense: the residue path gives the reference's rows and labels
    F, rng, pivots = make_prime_field(p), Random(p), 0
    for t in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        density = (0.3, 0.7, 1.0)[t % 3]
        data = [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(m)]
        rows, cols = [f"r{i}" for i in range(m)], [f"c{j}" for j in range(n)]
        for i in range(m):
            for j in range(n):
                if data[i][j]:
                    got = rows[:], cols[:], [row[:] for row in data]
                    want = rows[:], cols[:], [row[:] for row in data]
                    _pivot_inplace(F, *got, i, j)
                    pivot_by_field_methods(F, *want, i, j)
                    assert got == want
                    pivots += 1
    assert pivots >= 300


@pytest.mark.parametrize("F", [GF4, GF9], ids=["gf4", "gf9"])
def test_tower_pivot_takes_the_field_methods(monkeypatch, F):
    # a field with tower steps keeps the method path, which the residue
    # path would get wrong: its encodings are not residues mod p
    data = [[1, F.order - 1, 2], [3, 1, F.order - 2]]
    want = [row[:] for row in data]
    rows, cols = ["a", "b"], ["c", "d", "e"]
    pivot_by_field_methods(F, rows[:], cols[:], want, 0, 0)
    calls = []
    for name in ("mul_enc", "sub_enc"):
        watch(monkeypatch, (type(F), name), calls)
    _pivot_inplace(F, rows, cols, data, 0, 0)
    assert data == want
    assert calls.count("mul_enc") > 0 and calls.count("sub_enc") > 0


@pytest.mark.parametrize("F", [GF2, GF3, GF4, GF5, GF9], ids=str)
def test_dual_is_the_negated_transpose(F):
    # dual() against -A^T entry by entry, over characteristic 2, where it
    # skips the negation, and odd characteristic, zero rows or columns
    # included
    rng = Random(F.order)
    for m, n in [(0, 0), (0, 3), (3, 0)] + [(rng.randint(1, 5), rng.randint(1, 5))
                                           for _ in range(20)]:
        rows, cols = [f"r{i}" for i in range(m)], [f"c{j}" for j in range(n)]
        A = LabeledMatrix(F, rows, cols, [[rng.randrange(F.order) for _ in cols] for _ in rows])
        want = LabeledMatrix(F, cols, rows,
                             [[F.neg_enc(A.enc(r, c)) for r in rows] for c in cols])
        D = ReprMatroid(A).dual()
        assert D.rep == want
        assert D.dual().rep == A
