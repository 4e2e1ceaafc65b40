"""Fragility certification tests.

Two views of the same condition are exercised side by side: the matroid
one (exactly one partition (C, D) of E(M) - E(N) with M/C\\D = N) and
the matrix one (the X block vanishes and X raises the rank of every
disjoint nonempty Y).
"""

from itertools import combinations
from random import Random

import pytest

from matroidfrag import (
    CapExceeded,
    GroundSetMismatch,
    LabeledMatrix,
    MinorSpec,
    ReprMatroid,
    UnknownLabel,
    display_basis,
    fragile_partitions,
    is_N_fragile,
    is_X_fragile_matrix,
    isolated,
    isolated_rn,
    make_prime_field,
    x_fragile_failure,
)

GF2 = make_prime_field(2)
GF3 = make_prime_field(3)


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
    C = {e for e in M.ground if rng.random() < 0.3}
    D = {e for e in M.ground - C if rng.random() < 0.4}
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
