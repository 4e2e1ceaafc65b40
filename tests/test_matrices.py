"""LabeledMatrix tests.  Rank is cross-checked against a row-space
counting oracle: a matrix over GF(q) has rank r exactly when its rows
span q^r distinct vectors."""

import json
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from matroidfrag import (
    FieldMismatch,
    InvalidArgs,
    LabelCollision,
    LabeledMatrix,
    NotASubfield,
    ReprMatroid,
    UnknownLabel,
    extend_field,
    make_prime_field,
    submatrix_rank,
)
from matroidfrag.instances import field_to_json, matrix_to_json, parse_instance
from matroidfrag.matrices import rank_table

GF2 = make_prime_field(2)
GF3 = make_prime_field(3)
GF4 = extend_field(GF2, 2)
GF8 = extend_field(GF2, 3)
GF9 = extend_field(GF3, 2)
GF16_OVER_GF4 = extend_field(GF4, 2)
GF5 = make_prime_field(5)


def rowspace_rank(A):
    F = A.field
    nrows, ncols = A.shape
    span = set()
    for coeffs in product(range(F.order), repeat=nrows):
        vec = [0] * ncols
        for c, row in zip(coeffs, A._data):
            if c:
                for j, x in enumerate(row):
                    vec[j] = F.add_enc(vec[j], F.mul_enc(c, x))
        span.add(tuple(vec))
    r = 0
    while F.order**r < len(span):
        r += 1
    assert F.order**r == len(span)
    return r


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
        assert A.rank() == rowspace_rank(A)


def test_rank_matches_oracle_gf4_samples():
    rows, cols = ["a", "b"], ["x", "y", "z"]
    for flat in ((1, 2, 3, 2, 3, 1), (1, 2, 0, 2, 3, 0), (0, 0, 0, 0, 0, 0), (1, 1, 1, 2, 2, 2)):
        data = [flat[:3], flat[3:]]
        A = LabeledMatrix(GF4, rows, cols, data)
        assert A.rank() == rowspace_rank(A)


def test_rank_frozen_values():
    assert LabeledMatrix(GF2, ["a", "b"], ["c", "d"], [[1, 0], [0, 1]]).rank() == 2
    assert LabeledMatrix(GF2, ["a", "b"], ["c", "d"], [[1, 1], [1, 1]]).rank() == 1
    assert LabeledMatrix(GF2, ["a"], ["c", "d"], [[0, 0]]).rank() == 0
    # over GF(4): det = 1*3 - 2*2 = 3 - 3 = 0
    assert LabeledMatrix(GF4, ["a", "b"], ["c", "d"], [[1, 2], [2, 3]]).rank() == 1
    # over GF(3): det = 1*1 - 2*2 = 0
    assert LabeledMatrix(GF3, ["a", "b"], ["c", "d"], [[1, 2], [2, 1]]).rank() == 1
    assert LabeledMatrix(GF3, ["a", "b"], ["c", "d"], [[1, 2], [2, 2]]).rank() == 2


def test_rank_invariant_under_label_permutation():
    A = LabeledMatrix(GF3, ["a", "b"], ["x", "y", "z"], [[1, 2, 0], [0, 1, 2]])
    B = LabeledMatrix(GF3, ["b", "a"], ["z", "x", "y"], [[2, 0, 1], [0, 1, 2]])
    assert A.rank() == B.rank() == 2
    for S in (["a", "x"], ["a", "b", "y", "z"], ["x", "y"]):
        assert submatrix_rank(A, S) == submatrix_rank(B, S)


def test_constructor_validation():
    with pytest.raises(LabelCollision):
        LabeledMatrix(GF2, ["a", "a"], ["c"], [[1], [0]])
    with pytest.raises(LabelCollision):
        LabeledMatrix(GF2, ["a"], ["a"], [[1]])
    with pytest.raises(InvalidArgs):
        LabeledMatrix(GF2, ["a"], ["c"], [[1], [0]])
    with pytest.raises(InvalidArgs):
        LabeledMatrix(GF2, ["a"], ["c", "d"], [[1]])
    with pytest.raises(InvalidArgs):
        LabeledMatrix(GF2, ["a"], ["c"], [[2]])
    with pytest.raises(FieldMismatch):
        LabeledMatrix(GF2, ["a"], ["c"], [[GF3.one]])


def test_entry_access():
    A = LabeledMatrix(GF4, ["a"], ["c", "d"], [[2, 3]])
    assert A.enc("a", "c") == 2
    assert A.entry("a", "d") == GF4.elem(3)
    assert A.column_encs("c") == (2,)
    assert A.shape == (1, 2)
    assert A.labels() == {"a", "c", "d"}
    with pytest.raises(UnknownLabel):
        A.enc("a", "e")
    with pytest.raises(UnknownLabel):
        A.column_encs("a")


def test_submatrix_and_sides():
    A = LabeledMatrix(GF3, ["a", "b"], ["x", "y"], [[1, 2], [0, 1]])
    S = A.submatrix(["a", "y"])
    assert S.rows == ("a",) and S.cols == ("y",)
    assert S.enc("a", "y") == 2
    assert A.submatrix(["a", "b"]).shape == (2, 0)
    with pytest.raises(UnknownLabel):
        A.submatrix(["a", "q"])
    assert submatrix_rank(A, {"a", "b", "x", "y"}) == 2
    assert submatrix_rank(A, {"b", "x"}) == 0
    assert submatrix_rank(A, {"x", "y"}) == 0  # no rows selected


def test_transpose():
    A = LabeledMatrix(GF3, ["a", "b"], ["x"], [[1], [2]])
    T = A.transpose()
    assert T.rows == ("x",) and T.cols == ("a", "b")
    assert T.enc("x", "b") == 2
    assert T.transpose() == A


def test_submatrix_sides_refuses_unknown_labels():
    # an unknown label, or a label asked for on the other side, is an
    # UnknownLabel as in submatrix, not a bare KeyError
    A = LabeledMatrix(GF3, ["a", "b"], ["x", "y"], [[1, 2], [0, 1]])
    assert A.submatrix_sides(["b"], ["y", "x"]).enc("b", "x") == 0
    with pytest.raises(UnknownLabel, match=r"\['zz'\]"):
        A.submatrix_sides(["zz"], [])
    with pytest.raises(UnknownLabel, match=r"\['x', 'a'\]"):
        A.submatrix_sides(["x"], ["a"])


def test_lift():
    A = LabeledMatrix(GF2, ["a"], ["x", "y"], [[1, 0]])
    L = A.lift(GF4)
    assert L.field is GF4
    assert L._data == A._data
    assert L.rank() == A.rank()
    with pytest.raises(NotASubfield):
        A.lift(GF3)


def test_set_entry():
    A = LabeledMatrix(GF4, ["a"], ["x"], [[0]])
    B = A.set_entry("a", "x", 2)
    assert B.enc("a", "x") == 2
    assert A.enc("a", "x") == 0  # original untouched
    assert A.set_entry("a", "x", GF4.elem(3)).enc("a", "x") == 3
    with pytest.raises(FieldMismatch):
        A.set_entry("a", "x", GF2.one)
    with pytest.raises(InvalidArgs):
        A.set_entry("a", "x", 7)
    with pytest.raises(UnknownLabel):
        A.set_entry("q", "x", 1)


def test_with_column_and_drop_columns():
    A = LabeledMatrix(GF2, ["a", "b"], ["x"], [[1], [0]])
    B = A.with_column("y", (1, 1))
    assert B.cols == ("x", "y")
    assert B.column_encs("y") == (1, 1)
    assert B.drop_columns(["x"]).cols == ("y",)
    with pytest.raises(LabelCollision):
        A.with_column("a", (0, 0))
    with pytest.raises(InvalidArgs):
        A.with_column("y", (1,))
    with pytest.raises(UnknownLabel):
        A.drop_columns(["z"])


def test_derived_matrices_validate_what_they_add():
    # lift, set_entry and with_column build their results unchecked from
    # checked data, after validating the field, value or column they add:
    # the results equal the checked constructor's, and a bad encoding is
    # refused as the constructor refuses it
    A = LabeledMatrix(GF4, ["a", "b"], ["x"], [[1], [0]])
    assert A.set_entry("b", "x", 3) == LabeledMatrix(GF4, ["a", "b"], ["x"], [[1], [3]])
    assert A.with_column("y", (2, 3)) == LabeledMatrix(
        GF4, ["a", "b"], ["x", "y"], [[1, 2], [0, 3]])
    G = LabeledMatrix(GF2, ["a"], ["x"], [[1]])
    assert G.lift(GF4) == LabeledMatrix(GF4, ["a"], ["x"], [[1]])
    for bad in (4, -1):
        with pytest.raises(InvalidArgs):
            A.set_entry("a", "x", bad)
        with pytest.raises(InvalidArgs):
            A.with_column("y", (0, bad))
    with pytest.raises(InvalidArgs):
        A.with_column("y", (0, "1"))
    with pytest.raises(InvalidArgs):
        G.with_column("y", (2,))


def test_with_column_label_is_a_string_and_round_trips():
    # the constructor turns labels into strings, and so does with_column,
    # so the matrix serializes with a string label and parses back
    A = LabeledMatrix(GF2, [1], [2], [[1]]).with_column(5, [1])
    assert A.cols == ("2", "5")
    with pytest.raises(LabelCollision):
        A.with_column(1, [0])
    text = json.dumps({"field": field_to_json(GF2), "matrix": matrix_to_json(A)})
    assert parse_instance(text).matrix == A


def test_bool_entries_are_refused():
    # a bool is an int, but the instance parser refuses it, so a matrix
    # holding one would not round-trip: the constructor, set_entry and
    # with_column refuse it too
    for value in (True, False):
        with pytest.raises(InvalidArgs):
            LabeledMatrix(GF2, ["a"], ["b", "c"], [[value, 0]])
        A = LabeledMatrix(GF2, ["a"], ["b"], [[1]])
        with pytest.raises(InvalidArgs):
            A.set_entry("a", "b", value)
        with pytest.raises(InvalidArgs):
            A.with_column("c", (value,))


def test_equality_and_hash():
    A = LabeledMatrix(GF2, ["a"], ["x"], [[1]])
    B = LabeledMatrix(GF2, ["a"], ["x"], [[1]])
    C = LabeledMatrix(GF2, ["a"], ["x"], [[0]])
    assert A == B and hash(A) == hash(B)
    assert A != C
    assert A != LabeledMatrix(GF4, ["a"], ["x"], [[1]])


def test_empty_shapes():
    A = LabeledMatrix(GF2, [], ["x", "y"], [])
    assert A.rank() == 0
    assert A.shape == (0, 2)
    B = LabeledMatrix(GF2, ["a"], [], [[]])
    assert B.rank() == 0
    assert submatrix_rank(B, {"a"}) == 0


def test_gf2_bitmask_rank_matches_generic_elimination():
    # the packed-column GF(2) path of the rank kernel against the generic
    # elimination on the same blocks: random rows dropped, random columns
    from random import Random

    from matroidfrag.matrices import _rank_generic, block_rank

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
        assert A.rank() == (_rank_generic(GF2, [list(r) for r in data]) if nrows else 0)


def test_one_elimination_step_per_field_kind(monkeypatch):
    # rank_table and block_rank reduce by the same step: the packed-int
    # one over GF(2), the one on encodings over every other field
    from matroidfrag import matrices

    used = []
    reduce_gf2, generic_reducer = matrices._reduce_gf2, matrices._generic_reducer

    def counted_gf2(pivot, rest):
        used.append(GF2)
        return reduce_gf2(pivot, rest)

    def counted_generic(field):
        step = generic_reducer(field)

        def reduce(pivot, rest):
            used.append(field)
            return step(pivot, rest)

        return reduce

    monkeypatch.setattr(matrices, "_reduce_gf2", counted_gf2)
    monkeypatch.setattr(matrices, "_generic_reducer", counted_generic)
    for F in (GF2, GF3, GF4):
        A = LabeledMatrix(F, ["a", "b"], ["x", "y"], [[1, 1], [0, 1]])
        for rank in (lambda: rank_table(A, ["x", "y", "a"])[0b111], A.rank):
            used.clear()
            assert rank() == 2
            assert used and set(used) == {F}


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
    from random import Random

    rng = Random(4)
    fields = (GF2, GF3, GF4, GF8, GF9, GF16_OVER_GF4)
    for t in range(300):
        F = fields[t % len(fields)]
        nrows, ncols = rng.randint(0, 5), rng.randint(0, 5)
        rows = [f"r{i}" for i in range(nrows)]
        cols = [f"c{j}" for j in range(ncols)]
        density = rng.random()
        data = [[rng.randrange(F.order) if rng.random() < density else 0 for _ in cols]
                for _ in rows]
        A = LabeledMatrix(F, rows, cols, data)
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


def test_rank_table_label_checks():
    A = LabeledMatrix(GF2, ["a"], ["x"], [[1]])
    with pytest.raises(UnknownLabel):
        rank_table(A, ["a", "q"])
    with pytest.raises(InvalidArgs):
        rank_table(A, ["a", "a"])


# -- contraction by elimination against the pivoted minor ----------------------

CONTRACT_FIELDS = (GF2, GF3, GF4, GF5, GF9)


@st.composite
def contraction_cases(draw):
    """A matrix of at most 4 x 5 over one of CONTRACT_FIELDS, with some
    columns zeroed (loops), and a role for each label: "S" contracted,
    "L" in the table (each drawn twice as often as "-", neither)."""
    F = draw(st.sampled_from(range(len(CONTRACT_FIELDS))))
    m = draw(st.integers(0, 4))
    n = draw(st.integers(0, 5))
    entries = st.integers(0, CONTRACT_FIELDS[F].order - 1)
    data = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    loops = draw(st.lists(st.sampled_from((True, False, False)), min_size=n, max_size=n))
    roles = draw(st.lists(st.sampled_from("SSLL-"), min_size=m + n, max_size=m + n))
    order = draw(st.permutations(range(m + n)))
    return F, data, loops, roles, order


def test_rank_table_contraction_matches_the_minor():
    # rank_table(A, labels, contract=S) against the table of the minor
    # M/S that ReprMatroid builds by pivots, over five fields, with S
    # mixing rows and columns, holding loops, and dependent
    seen = Counter()

    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(contraction_cases())
    @example((0, [], [], [], []))
    @example((1, [[1, 0], [2, 0]], [False, True], list("SSLS"), [3, 0, 2, 1]))
    def check(case):
        F, data, loops, roles, order = case
        field = CONTRACT_FIELDS[F]
        rows = [f"r{i}" for i in range(len(data))]
        cols = [f"c{j}" for j in range(len(loops))]
        data = [[0 if loop else x for x, loop in zip(row, loops)] for row in data]
        A = LabeledMatrix(field, rows, cols, data)
        E = [(rows + cols)[i] for i in order]
        S = [e for e, role in zip(E, roles) if role == "S"]
        labels = [e for e, role in zip(E, roles) if role == "L"]
        M = ReprMatroid(A)
        assert rank_table(A, labels, contract=S) == rank_table(M.minor(S, ()).rep, labels)
        q = field.order
        seen[q, "rows and columns"] += bool(set(S) & set(rows)) and bool(set(S) & set(cols))
        seen[q, "loop"] += any(M.rank({e}) == 0 for e in S)
        seen[q, "dependent"] += M.rank(S) < len(S)

    check()
    for F in CONTRACT_FIELDS:
        for kind in ("rows and columns", "loop", "dependent"):
            assert seen[F.order, kind] >= 10, seen


def test_rank_table_contraction_checks():
    A = LabeledMatrix(GF3, ["a", "b"], ["x", "y"], [[1, 2], [0, 1]])
    assert rank_table(A, ["x", "y"], contract=["a", "b"]) == bytearray(4)
    assert rank_table(A, ["b", "y"], contract=["x"]) == bytearray([0, 1, 1, 1])
    with pytest.raises(InvalidArgs):
        rank_table(A, ["a", "x"], contract=["x"])
    with pytest.raises(InvalidArgs):
        rank_table(A, ["a"], contract=["x", "x"])
    with pytest.raises(UnknownLabel):
        rank_table(A, ["a"], contract=["q"])
