"""LabeledMatrix tests.  Rank is cross-checked against a row-space
counting oracle: a matrix over GF(q) has rank r exactly when its rows
span q^r distinct vectors."""

import json
from collections import Counter
from itertools import product
from random import Random


from matroidfrag import (
    LabeledMatrix,
    ReprMatroid,
    submatrix_rank,
)
from matroidfrag.instances import field_to_json, matrix_to_json, parse_instance
from matroidfrag.matrices import _rank_generic, block_rank, rank_table
from reference import (
    GF2, GF3, GF4, GF8, GF9, GF16_OVER_GF4, SCOPES, entries, random_matrix, rowspace_rank,
    scope_cases,
)
from watch import watch


def rank(A):
    """The rank of the whole matrix A, by the rank kernel."""
    return block_rank(A, 0, range(len(A.cols)))


def enumerate_small_matrices():
    for F in (GF2, GF3):
        for nrows, ncols in ((1, 1), (1, 2), (2, 1), (2, 2)):
            rows = [f"r{i}" for i in range(nrows)]
            cols = [f"c{j}" for j in range(ncols)]
            for flat in product(range(F.order), repeat=nrows * ncols):
                data = [list(flat[i * ncols : (i + 1) * ncols]) for i in range(nrows)]
                yield LabeledMatrix(F, rows, cols, data)


def test_rank_matches_rowspace_oracle_exhaustively():
    for A in enumerate_small_matrices():
        assert rank(A) == rowspace_rank(A)


def test_rank_matches_oracle_gf4_samples():
    rows, cols = ["a", "b"], ["x", "y", "z"]
    for flat in ((1, 2, 3, 2, 3, 1), (1, 2, 0, 2, 3, 0), (0, 0, 0, 0, 0, 0), (1, 1, 1, 2, 2, 2)):
        data = [flat[:3], flat[3:]]
        A = LabeledMatrix(GF4, rows, cols, data)
        assert rank(A) == rowspace_rank(A)


def test_rank_frozen_values():
    assert rank(LabeledMatrix(GF2, ["a", "b"], ["c", "d"], [[1, 0], [0, 1]])) == 2
    assert rank(LabeledMatrix(GF2, ["a", "b"], ["c", "d"], [[1, 1], [1, 1]])) == 1
    assert rank(LabeledMatrix(GF2, ["a"], ["c", "d"], [[0, 0]])) == 0
    # over GF(4): det = 1*3 - 2*2 = 3 - 3 = 0
    assert rank(LabeledMatrix(GF4, ["a", "b"], ["c", "d"], [[1, 2], [2, 3]])) == 1
    # over GF(3): det = 1*1 - 2*2 = 0
    assert rank(LabeledMatrix(GF3, ["a", "b"], ["c", "d"], [[1, 2], [2, 1]])) == 1
    assert rank(LabeledMatrix(GF3, ["a", "b"], ["c", "d"], [[1, 2], [2, 2]])) == 2
    A = LabeledMatrix(GF3, ["a", "b"], ["x", "y"], [[1, 2], [0, 1]])
    assert submatrix_rank(A, {"a", "b", "x", "y"}) == 2
    assert submatrix_rank(A, {"b", "x"}) == 0
    assert submatrix_rank(A, {"x", "y"}) == 0  # no rows selected


def test_rank_invariant_under_label_permutation():
    A = LabeledMatrix(GF3, ["a", "b"], ["x", "y", "z"], [[1, 2, 0], [0, 1, 2]])
    B = LabeledMatrix(GF3, ["b", "a"], ["z", "x", "y"], [[2, 0, 1], [0, 1, 2]])
    assert rank(A) == rank(B) == 2
    for S in (["a", "x"], ["a", "b", "y", "z"], ["x", "y"]):
        assert submatrix_rank(A, S) == submatrix_rank(B, S)


def test_entry_access():
    A = LabeledMatrix(GF4, ["a"], ["c", "d"], [[2, 3]])
    assert A.enc("a", "c") == 2
    assert A.rows == ("a",) and A.cols == ("c", "d")
    assert A.labels() == {"a", "c", "d"}


def test_transpose():
    A = LabeledMatrix(GF3, ["a", "b"], ["x"], [[1], [2]])
    T = A.transpose()
    assert T.rows == ("x",) and T.cols == ("a", "b")
    assert T.enc("x", "b") == 2
    assert T.transpose() == A
    # no rows or no columns: both label lists change sides
    for rows, cols in (([], ["x", "y"]), (["a", "b"], [])):
        E = LabeledMatrix(GF3, rows, cols, [[0] * len(cols) for _ in rows])
        assert E.transpose() == LabeledMatrix(GF3, cols, rows, [[0] * len(rows) for _ in cols])


def test_integer_labels_become_strings_and_round_trip():
    # the constructor turns labels into strings, so the matrix serializes
    # with string labels and parses back
    A = LabeledMatrix(GF2, [1], [2, 5], [[1, 1]])
    assert A.rows == ("1",) and A.cols == ("2", "5")
    text = json.dumps({"field": field_to_json(GF2), "matrix": matrix_to_json(A)})
    assert parse_instance(text).matrix == A


def test_equality_and_hash():
    A = LabeledMatrix(GF2, ["a"], ["x"], [[1]])
    B = LabeledMatrix(GF2, ["a"], ["x"], [[1]])
    C = LabeledMatrix(GF2, ["a"], ["x"], [[0]])
    assert A == B and hash(A) == hash(B)
    assert A != C
    assert A != LabeledMatrix(GF4, ["a"], ["x"], [[1]])


def test_empty_shapes():
    A = LabeledMatrix(GF2, [], ["x", "y"], [])
    assert rank(A) == 0
    assert A.rows == () and A.cols == ("x", "y")
    B = LabeledMatrix(GF2, ["a"], [], [[]])
    assert rank(B) == 0
    assert submatrix_rank(B, {"a"}) == 0


def test_gf2_bitmask_rank_matches_generic_elimination():
    # the packed-row GF(2) path of the rank kernel against the generic
    # elimination on the same blocks: random rows dropped, random columns
    rng = Random(2)
    for _ in range(300):
        nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
        data = [[rng.randrange(2) for _ in range(ncols)] for _ in range(nrows)]
        A = LabeledMatrix(GF2, [f"r{i}" for i in range(nrows)],
                          [f"c{j}" for j in range(ncols)], data)
        drop = rng.getrandbits(nrows) if nrows else 0
        cols = [j for j in range(ncols) if rng.random() < 0.6]
        block = [[data[i][j] for j in cols] for i in range(nrows) if not drop >> i & 1]
        want = _rank_generic(GF2, block) if block and cols else 0
        assert block_rank(A, drop, cols) == want
        assert rank(A) == (_rank_generic(GF2, [list(r) for r in data]) if nrows else 0)


def test_one_elimination_step_per_field_kind(monkeypatch):
    # every elimination runs the one routine of its field kind: the
    # label-reading sift and the rank loop on packed ints over GF(2),
    # the ones on encodings elsewhere; rank_table's walk reduces by the
    # batch step of the same kind
    from matroidfrag import matrices

    used = []
    for name, order in (("_sift_gf2", 2), ("_sift_enc", None), ("rank_gf2", 2),
                        ("_rank_generic", None), ("_reduce_gf2", 2),
                        ("_generic_reducer", None)):
        # the generic routines take the field first
        watch(monkeypatch, getattr(matrices, name), used,
              key=lambda *args, name=name, order=order: (name, order or args[0].order))
    for F in (GF2, GF3, GF4):
        A = LabeledMatrix(F, ["a", "b"], ["x", "y"], [[1, 1], [0, 1]])
        sift, rank_loop, step = (("_sift_gf2", "rank_gf2", "_reduce_gf2") if F is GF2 else
                                 ("_sift_enc", "_rank_generic", "_generic_reducer"))
        for run, names in ((lambda: rank_table(A, ["x", "y", "a"])[0b111], {sift, step}),
                           (lambda: rank(A), {rank_loop})):
            used.clear()
            assert run() == 2
            assert set(used) == {(name, F.order) for name in names}


def assert_table_matches_rank(A, labels):
    M = ReprMatroid(A)
    table = rank_table(A, labels)
    assert len(table) == 1 << len(labels)
    for s in range(len(table)):
        S = frozenset(v for i, v in enumerate(labels) if s >> i & 1)
        assert table[s] == M.rank(S), (A, labels, sorted(S))


def test_rank_table_matches_rank_oracle():
    # every subset of a random choice of labels, in shuffled order: the
    # whole ground set, rows only, columns only, or a random part of it
    rng = Random(4)
    fields = (GF2, GF3, GF4, GF8, GF9, GF16_OVER_GF4)
    for t in range(300):
        A = random_matrix(rng, fields[t % len(fields)], max_rows=5, max_cols=5)
        rows, cols = A.rows, A.cols
        labels = [rows + cols, rows, cols, [v for v in rows + cols if rng.random() < 0.5]][t % 4]
        labels = list(labels)
        rng.shuffle(labels)
        assert_table_matches_rank(A, labels)


def test_rank_table_frozen_cases():
    # empty labels, an empty matrix, a zero matrix
    A = LabeledMatrix(GF3, ["a", "b"], ["x", "y", "z"], [[1, 2, 0], [0, 1, 1]])
    assert rank_table(A, []) == bytearray([0])
    assert rank_table(LabeledMatrix(GF2, [], [], []), []) == bytearray([0])
    Z = LabeledMatrix(GF4, ["a", "b"], ["x", "y"], [[0, 0], [0, 0]])
    assert rank_table(Z, ["x", "y"]) == bytearray(4)
    assert_table_matches_rank(Z, ["y", "a", "x", "b"])
    # {x, y} reaches full row rank after two labels, so the subtree over
    # z, a and b is filled with rank 2 in one slice
    assert rank_table(A, ["x", "y", "z", "a", "b"])[0b11:: 1 << 2] == bytearray([2] * 8)
    assert_table_matches_rank(A, ["x", "y", "z", "a", "b"])
    G = LabeledMatrix(GF2, ["a", "b"], ["x", "y", "z"], [[1, 0, 1], [0, 1, 1]])
    assert_table_matches_rank(G, ["x", "y", "z", "a", "b"])
    assert rank_table(G, ["a", "b"]) == bytearray([0, 1, 1, 2])


def test_rank_table_fills_full_rank_subtrees_under_contraction(monkeypatch):
    # M/{a, x} has rank 3 - 2 = 1 and c is a loop in it, as x = a + c:
    # the child of each of b, y and z reaches full rank and fills its
    # subtree by one slice, so the walk makes no batch step
    from matroidfrag import matrices

    steps = []

    def counted(reduce):
        def step(pivot, rest):
            steps.append(pivot)
            return reduce(pivot, rest)

        return step

    generic = matrices._generic_reducer
    watch(monkeypatch, matrices._reduce_gf2, steps, key=lambda pivot, rest: pivot)
    monkeypatch.setattr(matrices, "_generic_reducer", lambda field: counted(generic(field)))
    for F in (GF2, GF3):
        A = LabeledMatrix(F, ["a", "b", "c"], ["x", "y", "z"], [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        table = rank_table(A, ["b", "c", "y", "z"], contract=["a", "x"])
        assert table == bytearray(int(s & 0b1101 != 0) for s in range(16))
        assert steps == []


# -- contraction by elimination against the pivoted minor ----------------------

def test_rank_table_contraction_matches_the_minor():
    # rank_table(A, labels, contract=C) against the table of the minor
    # M/C that ReprMatroid builds by pivots, on every case of the scopes
    # with the kept labels (N) in label order and reversed: C mixing rows
    # and columns, holding loops, and dependent
    seen = Counter()
    for scope in SCOPES["contract"]:
        q = scope.field.order
        for M, part in scope_cases(scope):
            A, S = M.rep, sorted(part.contract)
            labels = sorted(M.ground - part.contract - part.delete)
            for order in (labels, labels[::-1]):
                assert rank_table(A, order, contract=S) == rank_table(M.minor(S, ()).rep, order), (
                    entries(A), S, order)
            seen[q, "rows and columns"] += bool(set(S) & set(A.rows)) and bool(set(S) & set(A.cols))
            seen[q, "loop"] += any(M.rank({e}) == 0 for e in S)
            seen[q, "dependent"] += M.rank(S) < len(S)
    assert seen == {
        (2, "dependent"): 376, (2, "loop"): 207, (2, "rows and columns"): 400,
        (3, "dependent"): 1437, (3, "loop"): 477, (3, "rows and columns"): 2025,
        (4, "dependent"): 144, (4, "loop"): 69, (4, "rows and columns"): 80, (5, "dependent"): 215,
        (5, "loop"): 87, (5, "rows and columns"): 125, (9, "dependent"): 639, (9, "loop"): 159,
        (9, "rows and columns"): 405,
    }


def test_rank_table_contraction_checks():
    A = LabeledMatrix(GF3, ["a", "b"], ["x", "y"], [[1, 2], [0, 1]])
    assert rank_table(A, ["x", "y"], contract=["a", "b"]) == bytearray(4)
    assert rank_table(A, ["b", "y"], contract=["x"]) == bytearray([0, 1, 1, 1])
