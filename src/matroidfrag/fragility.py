"""Fragility certificates for matroids and matrices.

A matroid M is fragile with respect to a fixed minor N on a fixed label
set when exactly one partition (C, D) of E(M) - E(N) realises N as
M contract C delete D.  `fragile_partitions` decides every partition:
a depth-first search contracts and deletes the elements outside E(N)
by pivots, prunes a branch only by a rule proved exact (too few rows or
columns left, or an element of E(N) turned into a loop or coloop that
it is not in N), and decides each leaf by one rule: re-displayed on N's
basis by `rebase`'s pivots, it is compared with N's display, and only a
leaf with N's zero pattern and other entries compares rank tables over
E(N) (`matrices.rank_table`, one byte per subset of E(N)).  So the
certificate is the whole search space, not a heuristic, and no table
grows with E(M).

The matrix-side notion: a labeled matrix A is X-fragile when the block
A[X] vanishes and adjoining X to any nonempty disjoint Y strictly
increases rank.  `x_fragile_failure` reads that condition off two rank
tables over the labels outside X, read straight off A by contracting
X's columns, or its rows (`rank_table`).  The two notions are one: A is
X-fragile exactly when (rows - X, cols - X) is the only partition
realising the isolated minor on X (coloops X & rows) in the matroid of
[I | A] (proof in `x_fragile_failure`).  So `relax_entry`, the
`xfragile` draws of `gen_random` and `check-xfragile` decide fragility
on one display, with no partition search.

A realising partition also gives a cheap test of non-fragility:
`one_move_partition` looks for a second realising partition one
element away from it by at most two eliminations, for the closure of C
in M and of D in M*, and any it returns is a witness that M is not
N-fragile.  Finding none proves nothing, so the fragility verdict
itself is always the full search.

A realising partition (C, D) also names the bases that display N
through it: the bases of M made of C and elements of E(N).
`partition_basis` reads the least one off a partition with rank
queries, and `display_basis` is the least of those over all realising
partitions.

Enumeration order is fixed (size, then lexicographic), so the witness a
failed check returns is minimal in that order.  Every search refuses
more than PARTITION_CAP_DEFAULT elements outside the minor, or outside
X, by default; pass a larger cap explicitly to override.
"""

from __future__ import annotations

from typing import Iterable

from .errors import CapExceeded, GroundSetMismatch, UnknownLabel
from .matrices import LabeledMatrix, _element_vectors, _eliminate, rank_table
from .matroids import EQUALS_CAP_DEFAULT, MinorSpec, ReprMatroid
from .subsets import first_by_size, partitions_of

PARTITION_CAP_DEFAULT = 12


def fragile_partitions(
    M: ReprMatroid,
    N: ReprMatroid,
    *,
    cap: int = PARTITION_CAP_DEFAULT,
) -> frozenset[MinorSpec]:
    """Every partition (C, D) of E(M) - E(N) with M/C\\D equal to N as a
    labeled matroid (same labels, same rank function).

    A depth-first search over the elements of E(M) - E(N) in label
    order.  A node holds a display [I | A] of K = M/C'\\D', with
    (C', D') the elements placed so far; each child deletes or contracts
    the next element, by the pivots of `ReprMatroid.minor`, on a copy of
    that display (the last child on the display itself).  The last
    element is placed by the leaf enumeration `partitions_of`, so the
    partitions it yields are the leaves tested.  A leaf displays
    L = M/C\\D on E(N), and one rule decides it, in four steps:
    (a) Re-display it on N's basis B by the pivots of `ReprMatroid.rebase`
        (`_pivot_onto`).  If they fail, B is dependent in L but not in N,
        so L is not N.  Else the rows hold B, and are B: a leaf has |E(N)|
        elements, and pruning rule 1 leaves it at least r(N) rows and at
        least |E(N)| - r(N) columns, so exactly r(N) rows; no row count
        is checked.
    (b) A zero pattern that is not N's is not N, over every field: in a
        display [I | A] on B, the vector of f outside B is the sum of
        A[b][f] times the unit vector of b, so f + {b : A[b][f] != 0} is
        the unique circuit in B + f, the fundamental circuit of f.  The
        matroid alone fixes where a display on B is nonzero.
    (c) N's own display over N's field (the same entries label by label)
        is N, as one representation has one matroid.  Over GF(2) the zero
        pattern is every entry, so with M and N over GF(2) no leaf gets
        past here (one standard representation per basis; Oxley, Matroid
        Theory, ch. 6).
    (d) Otherwise L is N exactly when its rank table over sorted E(N) is
        N's, a test exact over every field.  N's table is built when a
        leaf first needs it, and refused above EQUALS_CAP_DEFAULT (16)
        elements before it is built.

    A node is pruned, with every leaf below it, when one of these holds
    (rule 1 is also read before a step, from whether the element is a
    loop or coloop, so a child it prunes is never built):
    1. rows < r(N) or columns < |E(N)| - r(N);
    2. an element of E(N) is a loop of K (a zero column) but not of N,
       or a coloop of K (a zero row) but not of N.

    Proof of rule 1.  The display of K has r(K) rows and |E(K)| - r(K)
    columns.  Contracting e lowers r(K) by one unless e is a loop, when
    it lowers |E(K)| - r(K) instead; deleting e lowers |E(K)| - r(K) by
    one unless e is a coloop, when it lowers r(K) instead.  So each step
    lowers exactly one count by one, and every leaf below the node has at
    most as many rows and columns as the node.  A leaf equal to N has
    r(N) rows and |E(N)| - r(N) columns.

    Proof of rule 2.  If e is a loop of K and f != e, then
    r_{K/f}({e}) = r_K({e, f}) - r_K({f}) = 0 by submodularity, and
    r_{K\\f}({e}) = r_K({e}) = 0: loops persist under minors, and so do
    coloops, the loops of the dual, as (K/f)* = K*\\f and
    (K\\f)* = K*/f.  So e is a loop (coloop) of every leaf below the
    node, and a leaf equal to N needs e to be a loop (coloop) of N.  In
    [I | A] a row element is never a loop, and is a coloop exactly when
    its row of A is zero, as no other vector has a nonzero coordinate
    there; a column element is never a coloop, as the rows are a basis
    without it, and is a loop exactly when its column is zero; so N's
    loops and coloops are read off N's display.
    """
    if not N.ground <= M.ground:
        raise GroundSetMismatch(
            f"minor ground {sorted(N.ground)} not inside {sorted(M.ground)}"
        )
    rest = sorted(M.ground - N.ground)
    if len(rest) > cap:
        raise CapExceeded(
            f"|E(M)-E(N)| = {len(rest)} exceeds partition cap {cap}"
        )
    labels = sorted(N.ground)
    A = N.rep
    r, n = len(A.rows), len(labels)
    # the elements of E(N) that no node may show as a loop (N's loops are
    # its zero columns), or as a coloop (its zero rows)
    nonloops = N.ground - {f for j, f in enumerate(A.cols) if not any(row[j] for row in A._data)}
    noncoloops = N.ground - {e for e, row in zip(A.rows, A._data) if not any(row)}
    field = M.field
    same_field = N.field == field
    contract, delete = ReprMatroid._contract_one, ReprMatroid._delete_one
    inner, tail = rest[:-1], rest[-1:]
    outside = frozenset(rest)
    found = []
    TN = []  # N's rank table, built when a leaf first needs it

    def alive(rows, cols, data) -> bool:
        # rules 1 and 2
        if len(rows) < r or len(cols) < n - r:
            return False
        for e, row in zip(rows, data):
            if e in noncoloops and not any(row):
                return False
        for e, col in zip(cols, zip(*data) if data else [()] * len(cols)):
            if e in nonloops and not any(col):
                return False
        return True

    def ways(rows, cols, data, e) -> tuple[bool, ...]:
        # the steps on e that keep rule 1, deletion (False) first:
        # deleting e lowers the rows only when e is a coloop (a zero row),
        # contracting e lowers them unless e is a loop (a zero column)
        spare_rows, spare_cols = len(rows) > r, len(cols) > n - r
        if spare_rows and spare_cols:
            return (False, True)
        if e in rows:
            deleting = spare_rows if not any(data[rows.index(e)]) else spare_cols
            contracting = spare_rows
        else:
            j = cols.index(e)
            deleting = spare_cols
            contracting = spare_rows if any(row[j] for row in data) else spare_cols
        return (False,) * deleting + (True,) * contracting

    def is_N(rows, cols, data) -> bool:
        # the leaf rule: re-display the leaf on N's basis, compare zero
        # patterns, then displays over N's field, and only then tables
        if not ReprMatroid._pivot_onto(field, rows, cols, data, N.basis):
            return False
        entries = [(x, A.enc(e, f)) for e, row in zip(rows, data) for f, x in zip(cols, row)]
        if any((x == 0) != (y == 0) for x, y in entries):
            return False
        if same_field and all(x == y for x, y in entries):
            return True
        if not TN:
            if n > EQUALS_CAP_DEFAULT:
                raise CapExceeded(f"|E(N)| = {n} exceeds rank table cap {EQUALS_CAP_DEFAULT}")
            TN.append(rank_table(A, labels))
        return rank_table(LabeledMatrix._of_display(field, rows, cols, data), labels) == TN[0]

    def step(node, e, contracting, last):
        # the step on e, on a copy of the node while a sibling still
        # needs the node, and on the node itself for the last sibling
        if not last:
            rows, cols, data = node
            node = rows[:], cols[:], [row[:] for row in data]
        (contract if contracting else delete)(field, *node, e)
        return node

    def walk(i, C, node) -> None:
        # node displays M/C\(inner[:i] - C) and is not pruned
        if i < len(inner):
            e = inner[i]
            allowed = ways(*node, e)
            for contracting in allowed:
                child = step(node, e, contracting, contracting == allowed[-1])
                if alive(*child):
                    walk(i + 1, C | {e} if contracting else C, child)
            return
        # the leaf enumeration places the last element, deletion first
        allowed = ways(*node, tail[0]) if tail else (False,)
        for c, d in partitions_of(tail):
            contracting = bool(c)
            if contracting in allowed:
                last = contracting == allowed[-1]
                leaf = step(node, tail[0], contracting, last) if tail else node
                if is_N(*leaf):
                    found.append(MinorSpec(C | c, outside - C - c))

    root = M._display_lists()
    if alive(*root):
        walk(0, frozenset(), root)
    return frozenset(found)


def is_N_fragile(
    M: ReprMatroid,
    N: ReprMatroid,
    *,
    cap: int = PARTITION_CAP_DEFAULT,
) -> bool:
    """M is N-fragile: exactly one partition (C, D) of E(M) - E(N)
    realises N as M/C\\D.  Decided by the full `fragile_partitions`
    search, since only the whole search space certifies uniqueness."""
    return len(fragile_partitions(M, N, cap=cap)) == 1


def one_move_partition(M: ReprMatroid, part: MinorSpec) -> MinorSpec | None:
    """A second partition realising the same minor as `part`, one
    element away from it, or None if no single move keeps the minor.

    `part` = (C0, D0) realises N = M/C0\\D0.  With cl* the closure in
    M*, e in C0 can move to the delete side iff e is in cl(C0 - e) or
    cl*(D0), and e in D0 can move to the contract side iff e is in
    cl(C0) or cl*(D0 - e).  So a neighbour exists iff C0 is dependent,
    D0 meets cl(C0), D0 is dependent in M*, or C0 meets cl*(D0).

    Two eliminations (`matrices._eliminate`) decide the four.  The first
    runs in M on the vectors of C0 and then of D0, each in label order,
    with C0's vectors as pivots: a vector of C0 that reduces to zero lies
    in the span of the C0 vectors before it, and one of D0 in cl(C0).
    The second, run only when the first finds none, does the same in M*
    (displayed by -A^T) on D0 and then C0: a vector of D0 that reduces to zero lies in
    cl*(D0 - e), and one of C0 in cl*(D0).  A dependent set always has a
    vector that reduces to zero, so None is exact.  The element moved is
    the first, in the order of the elimination that finds one, whose
    vector is zero.  No rank query is made and no rank table is built.

    Proof.  For any matroid K and element e, K/e = K\\e iff e is a
    loop or a coloop of K: otherwise r(K/e) = r(K) - 1 < r(K\\e)
    (Oxley, Matroid Theory, 2nd ed., ch. 3).  For e in C0 take
    K = M/(C0 - e)\\D0, so N = K/e and the moved partition gives K\\e.
    Deletion keeps loops and contraction keeps coloops, so e is a loop
    of K iff e is in cl(C0 - e), and a coloop iff it is a coloop of
    M\\D0, which is e in cl*(D0).  For e in D0 take
    K = M/C0\\(D0 - e): N = K\\e, the moved partition gives K/e, e is a
    loop of K iff e is in cl(C0), and a coloop iff it is a coloop of
    M\\(D0 - e), which is e in cl*(D0 - e).

    A returned partition is therefore a witness that M is not N-fragile.
    None proves nothing: two realising partitions may differ in more
    than one element, so fragility still needs `fragile_partitions`.
    """
    part.validate(M)
    C0, D0 = sorted(part.contract), sorted(part.delete)
    for dual, first, then in ((False, C0, D0), (True, D0, C0)):
        vecs, reduce = _element_vectors(M.rep, first + then, dual=dual)
        _eliminate(reduce, vecs, len(first))
        for e, v in zip(first + then, vecs):
            if not v:
                return MinorSpec(part.contract ^ {e}, part.delete ^ {e})
    return None


def x_fragile_failure(
    A: LabeledMatrix,
    X: Iterable[str],
    *,
    cap: int = PARTITION_CAP_DEFAULT,
):
    """First reason A is not X-fragile, or None if it is.

    Returns ("block_nonzero", (row, col)) for the first nonzero entry of
    the X block in label order, or ("rank_not_increased", Y) for the
    minimal nonempty Y whose rank does not strictly grow when X joins
    it.

    Proof that None is fragility.  In the matroid M of [I | A] with
    rows R and columns C, let Xr = X & R, Xc = X - R and, for Y outside X,
    W = Y ^ (R - X), a bijection onto the subsets of E - X.  From
    rank(A[Z]) = r((R - Z) | (Z - R)) - |R - Z|, Y fails, that is
    rank(A[X | Y]) <= rank(A[Y]), iff r(W | Xc) <= r(W | Xr) - |Xr|, iff
    r(W | Xc) = r(W) and r(W | Xr) = r(W) + |Xr|, as r(W | Xc) >= r(W) >=
    r(W | Xr) - |Xr|.  By submodularity that holds exactly when
    (W, E - X - W) realises isolated(Xr, X): W spans Xc and Xr stays
    independent over W.  Y = {} gives the canonical partition
    (R - X, C - X), which realises it exactly when rank(A[X]) = 0, the X
    block being zero.  So the result is None exactly when (R - X, C - X) is
    the only realising partition.  The verdict is the same on
    `M.dual().rep` = -A^T, whose submatrices have the same ranks.

    The sides are the tables of M/Xc and M/Xr over the sorted labels
    outside X: Tc[W] = r(W | Xc) - r(Xc), Tr[W] = r(W | Xr) - |Xr|.  With
    the X block zero, Xc lies in the span of W0 = R - X, so r(Xc) =
    |W0| - Tc[W0].
    """
    Xf = frozenset(X)
    R, C = A._row_pos, A._col_pos
    unknown = [v for v in Xf if v not in R and v not in C]
    if unknown:
        raise UnknownLabel(f"labels not in matrix: {sorted(unknown)}")
    xr = sorted(v for v in Xf if v in R)
    xc = sorted(v for v in Xf if v in C)
    for r in xr:
        for c in xc:
            if A.enc(r, c):
                return ("block_nonzero", (r, c))
    rest = sorted(v for v in A.rows + A.cols if v not in Xf)
    if len(rest) > cap:
        raise CapExceeded(f"|labels - X| = {len(rest)} exceeds partition cap {cap}")
    # Y fails iff Tc[W] + r(Xc) <= Tr[W] (proof above)
    Tc = rank_table(A, rest, contract=xc)
    Tr = rank_table(A, rest, contract=xr)
    rmask = sum(1 << i for i, v in enumerate(rest) if v in R)
    rc = len(R) - len(xr) - Tc[rmask]
    fails = [y for y in range(1, len(Tc)) if Tc[y ^ rmask] + rc <= Tr[y ^ rmask]]
    if fails:
        return ("rank_not_increased", frozenset(first_by_size(fails, rest)))
    return None


def is_X_fragile_matrix(
    A: LabeledMatrix,
    X: Iterable[str],
    *,
    cap: int = PARTITION_CAP_DEFAULT,
) -> bool:
    """A[X] vanishes and every nonempty disjoint Y gains rank from X."""
    return x_fragile_failure(A, X, cap=cap) is None


def partition_basis(
    M: ReprMatroid, N: ReprMatroid, part: MinorSpec
) -> frozenset[str] | None:
    """Lexicographically least basis of M displaying N through the
    realising partition `part` = (C, D), or None if there is none.  A
    unique realising partition always has one: an element of C spanned
    by the rest of C, or of D outside the span of E(M) - D, could move
    to the other side.

    Proof of the scan: B displays N through (C, D) exactly when B = C + X
    with X inside E(N) and C + X a basis of M.  All such B share C, so
    their lex order is that of X, and the greedy scan of E(N) in label
    order yields the lex-least X.
    """
    B = set(part.contract)
    r = M.rank(B)
    if r != len(B):
        return None
    for e in sorted(N.ground):
        if M.rank(B | {e}) > r:
            B.add(e)
            r += 1
    return frozenset(B) if r == M.rank() else None


def display_basis(M: ReprMatroid, N: ReprMatroid) -> frozenset[str] | None:
    """Lexicographically least basis B of M displaying N, i.e. with
    M contract (B - E(N)) delete (E(M) - B - E(N)) equal to N, or None
    when N is not a minor of M on its labels.  It is the least
    `partition_basis` over `fragile_partitions`, and capped like it."""
    found = (partition_basis(M, N, p) for p in fragile_partitions(M, N))
    return min((B for B in found if B is not None), key=sorted, default=None)
