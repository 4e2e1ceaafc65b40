"""Column matroid tests on small hand-worked instances.

The running example is the GF(2) standard representation with rows
(a, b) and columns (c, d), entries [[1, 1], [1, 0]].  As vectors
a = (1,0), b = (0,1), c = (1,1), d = (1,0), so d is parallel to a and
every other pair is independent.
"""

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from matroidfrag import (
    CapExceeded,
    InvalidArgs,
    InvalidMinorSpec,
    LabeledMatrix,
    MinorSpec,
    ReprMatroid,
    UnknownLabel,
    extend_field,
    is_relaxation,
    isolated,
    isolated_rn,
    make_prime_field,
)
from matroidfrag.matroids import _pivot_inplace

GF2 = make_prime_field(2)
GF3 = make_prime_field(3)
GF4 = extend_field(GF2, 2)
GF5 = make_prime_field(5)


def running_example():
    return ReprMatroid(LabeledMatrix(GF2, ["a", "b"], ["c", "d"], [[1, 1], [1, 0]]))


def pairs(*labels):
    from itertools import combinations

    return {frozenset(p) for p in combinations(labels, 2)}


def test_rank_values():
    M = running_example()
    assert M.rank() == 2
    assert M.rank(()) == 0
    assert M.rank({"a"}) == 1
    assert M.rank({"a", "d"}) == 1
    assert M.rank({"c", "d"}) == 2
    assert M.rank({"a", "b", "c", "d"}) == 2
    with pytest.raises(UnknownLabel):
        M.rank({"q"})


def test_bases_frozen():
    M = running_example()
    assert M.bases() == pairs("a", "b", "c", "d") - {frozenset({"a", "d"})}
    assert M.basis == {"a", "b"}


def test_rank_axioms_on_running_example():
    M = running_example()
    from matroidfrag import subsets_by_size

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
    from matroidfrag import subsets_by_size

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
    A = LabeledMatrix(GF2, ["a"], ["c", "d"], [[0, 1]])
    M = ReprMatroid(A)
    assert M.rank({"c"}) == 0  # c is a loop
    assert M.minor(contract={"c"}).equals(M.minor(delete={"c"}))


def test_minor_spec_validation():
    M = running_example()
    with pytest.raises(InvalidMinorSpec):
        MinorSpec(frozenset({"a"}), frozenset({"a"}))
    with pytest.raises(InvalidMinorSpec):
        M.minor(contract={"q"})
    spec = MinorSpec(frozenset({"c"}), frozenset())
    assert M.minor_of(spec).equals(M.minor(contract={"c"}))


def test_rebase():
    M = running_example()
    R = M.rebase({"c", "d"})
    assert R.basis == {"c", "d"}
    assert R.equals(M)
    assert R.rep.rows in (("c", "d"), ("d", "c"))
    with pytest.raises(InvalidArgs):
        M.rebase({"a", "d"})  # dependent
    with pytest.raises(InvalidArgs):
        M.rebase({"a"})  # wrong size
    with pytest.raises(UnknownLabel):
        M.rebase({"a", "q"})


def test_dual_bases_are_complements():
    M = running_example()
    D = M.dual()
    assert D.ground == M.ground
    assert D.bases() == {M.ground - B for B in M.bases()}
    assert D.rank() == 2


def test_dual_corank_formula():
    M = running_example()
    D = M.dual()
    from matroidfrag import subsets_by_size

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


def test_relaxation_label_checks():
    M = running_example()
    from matroidfrag import GroundSetMismatch

    with pytest.raises(GroundSetMismatch):
        is_relaxation(M, M.minor(delete={"d"}), {"a"})
    with pytest.raises(UnknownLabel):
        is_relaxation(M, M, {"q"})


def test_equals():
    M = running_example()
    assert M.equals(M.rebase({"c", "d"}))
    assert not M.equals(M.dual())  # same ground, different bases
    assert not M.equals(M.minor(delete={"d"}))  # different ground
    # same matroid represented over different fields
    M3 = ReprMatroid(LabeledMatrix(GF3, ["a", "b"], ["c", "d"], [[1, 1], [2, 0]]))
    assert M3.equals(M)


def test_equals_cap():
    big = isolated_rn(1, 17)
    with pytest.raises(CapExceeded):
        big.equals(big)


def test_bases_cap(monkeypatch):
    from matroidfrag import matroids

    def no_table(*args):
        raise AssertionError("rank table built before the cap check")

    monkeypatch.setattr(matroids, "rank_table", no_table)
    with pytest.raises(CapExceeded, match="bases cap 16"):
        isolated_rn(1, 17).bases()


def test_bases_match_combinations():
    # bases read one rank table; the reference asks every r-subset
    from itertools import combinations
    from random import Random

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
    Nn = isolated_rn(2, 4)
    assert Nn.ground == {"1", "2", "3", "4"}
    assert Nn.bases() == {frozenset({"1", "2"})}
    assert isolated_rn(0, 0).rank() == 0
    from matroidfrag import GroundSetMismatch

    with pytest.raises(GroundSetMismatch):
        isolated({"c"}, {"d"})
    with pytest.raises(InvalidArgs):
        isolated_rn(3, 2)


def plain_rank(F, mat):
    """Row reduction written out on field encodings, independent of the
    package's rank kernel."""
    mat = [list(r) for r in mat]
    rank = 0
    for j in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][j]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = F.inv_enc(mat[rank][j])
        for i in range(len(mat)):
            if i != rank and mat[i][j]:
                f = F.mul_enc(mat[i][j], inv)
                mat[i] = [F.sub_enc(a, F.mul_enc(f, b)) for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("F", [GF2, GF3, GF4], ids=["gf2", "gf3", "gf4"])
def test_rank_oracle_matches_plain_elimination(F):
    # rank(X) = |X on the row side R| + rank of A[R - X, X on the column side]
    from random import Random

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
            assert M.rank(X) == len(X & set(rows)) + plain_rank(F, block)


def test_equals_matches_subset_sweep():
    # equals compares two rank tables; the reference compares rank
    # queries subset by subset
    from random import Random

    from matroidfrag import subsets_by_size

    rng = Random(3)
    verdicts = []
    for t in range(60):
        F = (GF2, GF3, GF4)[t % 3]
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [f"r{i}" for i in range(nrows)]
        cols = [f"c{j}" for j in range(ncols)]
        A = LabeledMatrix(F, rows, cols, [[rng.randrange(F.order) for _ in cols] for _ in rows])
        M = ReprMatroid(A)
        if t % 2:
            other = ReprMatroid(A.set_entry(rng.choice(rows), rng.choice(cols),
                                            rng.randrange(F.order)))
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


REBASE_FIELDS = (GF2, GF3, GF4, GF5)


@st.composite
def rebase_cases(draw):
    """A matrix of at most 4 x 5 over one of REBASE_FIELDS, what kind of
    set B to try (a basis, a dependent set of size r(M), or a set of
    another size) and a number that picks it among those of its kind."""
    F = REBASE_FIELDS[draw(st.integers(0, len(REBASE_FIELDS) - 1))]
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    data = draw(st.lists(st.lists(st.integers(0, F.order - 1), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    kind = draw(st.sampled_from(("basis", "dependent", "size")))
    return F, data, n, kind, draw(st.integers(0, 4095))


def test_rebase_by_pivots_matches_rank_queries():
    # the same display, or the same exception type and message, for each
    # kind of B; the kind counted is the one B turned out to be
    seen = Counter()

    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(rebase_cases())
    def check(case):
        F, data, n, kind, pick = case
        rows = [f"r{i}" for i in range(len(data))]
        M = ReprMatroid(LabeledMatrix(F, rows, [f"c{j}" for j in range(n)], data))
        r, E, bases = M.rank(), sorted(M.ground), M.bases()
        sized = [frozenset(S) for k in range(len(E) + 1) for S in combinations(E, k)]
        pool = {
            "basis": [S for S in sized if S in bases],
            "dependent": [S for S in sized if len(S) == r and S not in bases],
            "size": [S for S in sized if len(S) != r],
        }[kind]
        if not pool:
            return
        B = pool[pick % len(pool)]
        outcomes = []
        for rebase in (ReprMatroid.rebase, rebase_by_rank_queries):
            try:
                outcomes.append(rebase(ReprMatroid(M.rep), B).rep)
            except (InvalidArgs, UnknownLabel) as e:
                outcomes.append((type(e), str(e)))
        assert outcomes[0] == outcomes[1]
        seen[F.order, kind] += 1

    check()
    for F in REBASE_FIELDS:
        for kind in ("basis", "dependent", "size"):
            assert seen[F.order, kind] >= 10, seen
