"""Fragility certificates for matroids and matrices.

A matroid M is fragile with respect to a fixed minor N on a fixed label
set when exactly one partition (C, D) of E(M) - E(N) realises N as
M contract C delete D.  `fragile_partitions` decides every partition:
a depth-first search contracts and deletes the elements outside E(N)
by pivots chosen so that N's basis stays on the rows of every display
and N's cobasis on its columns.  A step with no such pivot would leave
N's basis dependent, or its cobasis codependent, in every minor below
it, so it is not taken: the one pruning rule, proved exact.  One rule
places every element, and a leaf is tested only once all are placed.
No pivot moves a line of N's basis or cobasis, so every leaf lists them
in the root's order, and N's display is read once, in that order.  Each
leaf is decided by one rule: a zero pattern other than N's is not N,
N's own display is N, and only a leaf with N's zero pattern and other
entries compares rank tables over E(N) (`matrices.rank_table`, one byte
per subset of E(N)).  Over GF(2) the same search runs on packed rows, a
pivot XORs ints, and when N is over GF(2) too a node is skipped unless
two span tests, proved exact, leave room for N below it.  So the
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
`partition_basis` reads the least one off a partition, C plus N's least
basis by one elimination, and `display_basis` is the least of those
over all realising partitions.

Enumeration order is fixed (size, then lexicographic), so the witness a
failed check returns is minimal in that order.  Every search refuses
more than PARTITION_CAP_DEFAULT elements outside the minor, or outside
X, by default; pass a larger cap explicitly to override.
"""

from __future__ import annotations

from typing import Iterable

from .errors import CapExceeded, GroundSetMismatch, UnknownLabel
from .matrices import LabeledMatrix, _element_vectors, _eliminate, _gf2_row, rank_table
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
    that display (the last child on the display itself).  Every element
    is placed by that one rule; a leaf is a node with all of them
    placed, tested once in a loop over `partitions_of(())`, the single
    colouring of the empty remainder, so that its items count the
    leaves tested (`bench/tracer.py`).

    The invariant: every display holds N's basis BN on its rows and N's
    cobasis coN = E(N) - BN on its columns.  The root display of M is
    set up by pivoting BN onto the rows (`_pivot_onto`), then every
    element of coN still on the rows onto a column outside coN
    (`_pivot_off`).  Each step keeps it: contracting a column element
    pivots it onto a row outside BN, deleting a row element pivots it
    onto a column outside coN (`keep`), and a step that has no such
    pivot is not taken.  That is the only pruning, and it is exact.
    If the first root step fails, BN is dependent in M; if the
    second fails, coN is dependent in M*.  A contraction with no pivot
    outside BN is of a nonzero column whose nonzero entries all lie in
    BN's rows: e is spanned by BN and is not a loop, so BN is dependent
    in K/e.  A deletion with no pivot outside coN is of a nonzero row
    whose nonzero entries all lie in coN's columns, which is the same
    statement in the dual display -A^T, so coN is dependent in
    (K\\e)* = K*/e.  A set dependent in K stays dependent in every minor
    of K that keeps it, as r_{K/f}(X) = r_K(X + f) - r_K(f) <= r_K(X)
    and r_{K\\f}(X) = r_K(X), and a set codependent in K stays
    codependent, as (K/f)* = K*\\f and (K\\f)* = K*/f; so no leaf below
    a pruned node or a failed root has BN independent and coN
    coindependent, as N has.

    No pivot moves a row of BN or a column of coN: a contraction pivots
    onto a row outside BN, a deletion onto a column outside coN, and
    dropping a line keeps the order of the rest.  So every leaf lists BN
    on its rows and coN on its columns in the root's order, and N's
    display is read once, at the root, with its rows and columns in that
    order (NA); a leaf is compared with NA row by row.

    A leaf displays L = M/C\\D on E(N), |E(N)| elements with BN on the
    rows and coN on the columns, so it is displayed on N's basis, and
    one rule decides it, in three steps:
    (a) A zero pattern that is not NA's is not N, over every field: in a
        display [I | A] on B, the vector of f outside B is the sum of
        A[b][f] times the unit vector of b, so f + {b : A[b][f] != 0} is
        the unique circuit in B + f, the fundamental circuit of f.  The
        matroid alone fixes where a display on B is nonzero.
    (b) N's own display over N's field (the same entries as NA, in that
        order) is N, as one representation has one matroid.  Over GF(2)
        the zero pattern is every entry, so with M and N over GF(2) no
        leaf gets past here (one standard representation per basis;
        Oxley, Matroid Theory, ch. 6).
    (c) Otherwise L is N exactly when its rank table over sorted E(N) is
        N's, a test exact over every field.  N's table is built when a
        leaf first needs it, and refused above EQUALS_CAP_DEFAULT (16)
        elements before it is built.

    Over GF(2), chosen by M's field alone, the same walk runs on a
    packed display: the root is set up as above, then each row becomes
    an int with bit j for its entry in column position j
    (`matrices._gf2_row`), BN's rows first.  A pivot at (i, j) XORs
    data[i] ^ (1 << j) into every other row with bit j (`_pivot_gf2`).
    Column positions stay fixed: a deleted column keeps its position,
    with its bit cleared in every row (`_step_gf2`).  A contraction
    pivots onto a row after BN's and a deletion onto a column outside
    coN, so BN's rows stay first in the root's order and coN's columns
    keep their root positions; a leaf's rows are BN's and its only
    columns coN's.  NA is packed once in those positions, by its zero
    pattern, so (a) and (b) are the one test data == NA, and with N
    over another field such a leaf goes on to (c).  A packed node holds
    r(M) ints and two label lists.

    When N is over GF(2) too, a node K whose undecided elements are
    U = E(K) - E(N) is skipped unless two span tests pass, each one
    elimination over at most r(K) ints (`_spans`):
    - primal: on BN's rows, each coN column minus NA's column lies in
      the span of U's columns;
    - dual: on coN's columns, each BN row minus NA's row lies in the
      span of U's rows.
    Proof.  Let a completion contract C'' and delete U - C'' and give
    a leaf L equal to N.  L is represented by the vectors of K modulo
    span(C''), BN is a basis of L, and L's display on BN is NA, as a
    binary matroid has one display per basis; so for each g in coN,
    w_g = g - sum_b NA[b][g] b lies in span(C''), inside span(U).  The
    rows of U give every unit vector outside BN's coordinates, so w_g
    lies in span(U) exactly when its part on BN's rows, g's column
    minus NA's, lies in the span of the parts there of U's columns:
    the primal test.  K* is displayed by A^T, with coN on its rows, BN
    on its columns and NA^T as N*'s display, and K/C''\\D'' = N exactly
    when K*/D''\\C'' = N*; the primal test on K* is the dual test.  So
    no leaf below a node that fails either test is N, and skipping it
    keeps the search exact.  A leaf is left to the leaf rule: there U
    is empty, and the primal test is data == NA.
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
    A, BN, coN = N.rep, N.basis, N.ground - N.basis
    field = M.field
    same_field = N.field == field
    outside = frozenset(rest)
    found = []
    TN = []  # N's rank table, built when a leaf first needs it

    def tables_agree(rows, cols, data) -> bool:
        # step (c) of the leaf rule
        labels = sorted(N.ground)
        if not TN:
            if len(labels) > EQUALS_CAP_DEFAULT:
                raise CapExceeded(
                    f"|E(N)| = {len(labels)} exceeds rank table cap {EQUALS_CAP_DEFAULT}")
            TN.append(rank_table(A, labels))
        return rank_table(LabeledMatrix._of_display(field, rows, cols, data), labels) == TN[0]

    root = M._display_lists()
    if not (ReprMatroid._pivot_onto(field, *root, BN)
            and ReprMatroid._pivot_off(field, *root, coN)):
        return frozenset()
    rows, cols, data = root
    fits = None  # the node test, when M and N are over GF(2)
    if field.order == 2:
        # packed rows, BN's first, over fixed column positions, and N's
        # display (NA) packed in the same positions by its zero pattern;
        # coN's columns are the bits of mask
        order = [i for i, b in enumerate(rows) if b in BN]
        order += [i for i, b in enumerate(rows) if b not in BN]
        rows, data = [rows[i] for i in order], [_gf2_row(data[i]) for i in order]
        nb, root = len(BN), (rows, cols, data)
        NA = [_gf2_row([f in coN and A.enc(b, f) != 0 for f in cols]) for b in rows[:nb]]
        mask = _gf2_row([f in coN for f in cols])

        def ways(rows, cols, data, e) -> tuple[bool, ...]:
            # the generic rule below, on bits
            if e in rows:
                x = data[rows.index(e)]
                return (True,) if x and not x & ~mask else (False, True)
            bit = 1 << cols.index(e)
            if any(x & bit for x in data[:nb]) and not any(x & bit for x in data[nb:]):
                return (False,)
            return (False, True)

        def step(node, e, contracting, last):
            if not last:
                node = node[0][:], node[1][:], node[2][:]
            _step_gf2(*node, e, contracting, nb, mask)
            return node

        def is_N(rows, cols, data) -> bool:
            # the columns left at a leaf are coN's
            return data == NA and (same_field or tables_agree(
                rows, [f for f in cols if f is not None],
                [[x >> j & 1 for j, f in enumerate(cols) if f is not None] for x in data]))

        if same_field:
            def fits(node) -> bool:
                # the primal and the dual span test, passed at once when
                # there is nothing to span
                data = node[2]
                if data[:nb] == NA:
                    return True
                xs = [x ^ y for x, y in zip(data, NA)]
                if not _spans(xs, ~mask, nb):
                    return False
                ts = [x & mask for x in xs]
                return not any(ts) or _spans([x & mask for x in data[nb:]] + ts, -1, len(data) - nb)
    else:
        # N's display with its rows and columns in the root's order, the
        # order of every leaf's
        NA = [[A.enc(b, f) for f in cols if f in coN] for b in rows if b in BN]
        contract, delete = ReprMatroid._contract_one, ReprMatroid._delete_one

        def ways(rows, cols, data, e) -> tuple[bool, ...]:
            # the steps on e that keep the invariant, deletion (False)
            # first: a row e is deleted, or a column e contracted, by a
            # pivot on its line, which none has when its nonzero entries
            # all lie in coN's columns, or in BN's rows
            if e in rows:
                line, across, kept = data[rows.index(e)], cols, coN
            else:
                j = cols.index(e)
                line, across, kept = [row[j] for row in data], rows, BN
            if any(line) and all(f in kept for f, x in zip(across, line) if x):
                return (e in rows,)
            return (False, True)

        def step(node, e, contracting, last):
            # the step on e, on a copy of the node while a sibling still
            # needs the node, and on the node itself for the last sibling
            if not last:
                rows, cols, data = node
                node = rows[:], cols[:], [row[:] for row in data]
            (contract if contracting else delete)(field, *node, e, BN if contracting else coN)
            return node

        def is_N(rows, cols, data) -> bool:
            # the leaf rule: compare zero patterns, then displays over
            # N's field, and only then tables
            if any((x == 0) != (y == 0) for row, nrow in zip(data, NA) for x, y in zip(row, nrow)):
                return False
            return same_field and data == NA or tables_agree(rows, cols, data)

    def walk(i, C, node) -> None:
        # node displays M/C\(rest[:i] - C), BN on its rows, coN on its columns
        if i < len(rest):
            if fits and not fits(node):
                return
            e = rest[i]
            allowed = ways(*node, e)
            for contracting in allowed:
                child = step(node, e, contracting, contracting == allowed[-1])
                walk(i + 1, C | {e} if contracting else C, child)
            return
        for _ in partitions_of(()):  # the one colouring of the empty remainder
            if is_N(*node):
                found.append(MinorSpec(C, outside - C))

    walk(0, frozenset(), root)
    return frozenset(found)


def _pivot_gf2(rows, cols, data, i, j) -> None:
    """`_pivot_inplace` on packed GF(2) rows: data[i] has bit j set, and
    every other row with bit j gets data[i] with bit j cleared XORed in,
    which leaves its bit j set, as -1 = 1."""
    p = data[i] ^ 1 << j
    for r, x in enumerate(data):
        if x >> j & 1 and r != i:
            data[r] = x ^ p
    rows[i], cols[j] = cols[j], rows[i]


def _step_gf2(rows, cols, data, e, contracting, nb, mask) -> None:
    """Contract or delete e on packed GF(2) rows whose first nb are BN's,
    with coN's columns at the bits of `mask`: `_contract_one` and
    `_delete_one` with their `keep`, pivoting onto the first row after
    BN's, or onto the lowest column outside coN.  A deleted column keeps
    its position, with label None and its bit clear in every row."""
    if e in rows:
        i = rows.index(e)
        x = 0 if contracting else data[i] & ~mask
        if x:  # e moves to the lowest column outside coN with its bit
            j = (x & -x).bit_length() - 1
            _pivot_gf2(rows, cols, data, i, j)
    else:
        j = cols.index(e)
        # e moves to the first row after BN's with bit j, unless a loop
        i = next((i for i in range(nb, len(data)) if data[i] >> j & 1), -1) if contracting else -1
        if i >= 0:
            _pivot_gf2(rows, cols, data, i, j)
    if e in rows:  # contracted, or a deleted coloop
        del rows[i], data[i]
    else:  # deleted, or a contracted loop
        cols[j] = None
        data[:] = [x & ~(1 << j) for x in data]


def _spans(vecs: list[int], mask: int, k: int) -> bool:
    """One GF(2) elimination on packed vectors: each is reduced by the
    pivots before it; one of the first k with a bit in `mask` becomes a
    pivot on its lowest such bit, and any other must reduce to zero.
    True when all do: the columns at the bits outside `mask` lie in the
    span of those inside it, when k = len(vecs), and the vectors after
    the first k lie in the span of the first k, when mask = -1."""
    pivots = []
    for i, x in enumerate(vecs):
        for p, h in pivots:
            if x & h:
                x ^= p
        u = x & mask if i < k else 0
        if u:
            pivots.append((x, u & -u))
        elif x:
            return False
    return True


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

    It is C + L, with L the least basis of N in label order, when C is
    independent in M (one rank query) and r(N) = r(M) - |C| (the row
    counts of the two displays), and None otherwise.  Proof: B displays
    N through (C, D) exactly when B = C + X with X inside E(N) and
    C + X a basis of M.  C + X is independent iff C is and X is
    independent in M/C, hence in M/C\\D = N, as deleting D keeps the
    independent sets that avoid it.  With C independent,
    r(M) - |C| = r(M/C) >= r(N) >= |X|, so C + X is a basis iff X is a
    basis of N and r(N) = r(M) - |C|.  All such B share C, so their lex
    order is that of X, and the least X is N's greedy basis in label
    order: one elimination of N's element vectors in that order
    (`_eliminate`) leaves a vector nonzero exactly when the elements
    before it do not span it.
    """
    C = part.contract
    if len(N.rep.rows) != len(M.rep.rows) - len(C) or M.rank(C) != len(C):
        return None
    labels = sorted(N.ground)
    vecs, reduce = _element_vectors(N.rep, labels)
    _eliminate(reduce, vecs)
    return C | frozenset(e for e, v in zip(labels, vecs) if v)


def display_basis(M: ReprMatroid, N: ReprMatroid) -> frozenset[str] | None:
    """Lexicographically least basis B of M displaying N, i.e. with
    M contract (B - E(N)) delete (E(M) - B - E(N)) equal to N, or None
    when N is not a minor of M on its labels.  It is the least
    `partition_basis` over `fragile_partitions`, and capped like it."""
    found = (partition_basis(M, N, p) for p in fragile_partitions(M, N))
    return min((B for B in found if B is not None), key=sorted, default=None)
