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
N's own display, or an all-zero display over any field, is N, and
only a leaf with N's zero pattern and other entries compares rank
tables over E(N) (`matrices.rank_table`, one byte per subset of E(N)).
The walk, its placement rule and the leaf's zero-pattern test are
written once, on bit masks of the supports of lines, over one of two
row kernels: packed rows when M and N are both over GF(2), where a
pivot XORs ints and a node is skipped unless two span tests, proved
exact, leave room for N below it, and lists of encodings otherwise,
stepped by `ReprMatroid._step`, the step of every minor, with its
pivots avoiding E(N).  Both kernels start from a root display set up
by the same pivot rule (`ReprMatroid._pivot_each`).  So the
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
X, by default; `fragile_partitions` and `x_fragile_failure` take a
larger cap explicitly, while `is_N_fragile` and `display_basis` take
none.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from operator import eq
from typing import Iterable, Sequence

from .errors import CapExceeded, GroundSetMismatch, UnknownLabel
from .galois import FieldSpec
from .matrices import LabeledMatrix, _sift, rank_table
from .matroids import MinorSpec, ReprMatroid
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
    the next element by the kernel's step (below), on a copy of that
    display (the last child on the display itself).  Every element is
    placed by one rule, `ways`; a leaf is a node with all of them
    placed, tested once in a loop over `partitions_of(())`, the single
    colouring of the empty remainder, so that its items count the
    leaves tested (`bench/tracer.py`).

    The invariant: every display holds N's basis BN on its rows and N's
    cobasis coN = E(N) - BN on its columns.  The root display of M is
    set up by two loops of `ReprMatroid._pivot_each`: every element of
    BN on the columns pivots onto a row outside BN, then every element
    of coN still on the rows onto a column outside coN.  The two loops
    keep their sets apart, as coN may start on the rows, where a pivot
    of BN must be free to land.  Each step keeps the invariant:
    contracting a column element pivots it onto a row outside BN,
    deleting a row element pivots it onto a column outside coN, and a
    step that has no such pivot is not taken.  That is the only
    pruning, and it is exact.
    If the first root loop fails, an element of BN has a column whose
    nonzero entries all lie in BN's rows, so BN is dependent in M; if
    the second fails, an element of coN has a row whose nonzero entries
    all lie in coN's columns, so, by the same statement in the dual
    display -A^T, coN is dependent in M*.  A contraction with no pivot
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
    onto a row outside BN and a deletion onto a column outside coN.  A
    contracted element's row is dropped, which keeps the order of the
    other rows, and a deleted element's column keeps its position, with
    label None and zero entries.  So with BN's rows put first at the
    root, every node holds them first, in the root's order, and coN's
    columns at their root positions; a leaf's rows are BN's and its only
    labelled columns coN's.  N's display is read once, at the root, in
    those positions (NA), and a line's support is the bit mask of its
    nonzero positions: coN's columns are the bits of one mask and BN's
    rows the first nb bits.

    A leaf displays L = M/C\\D on E(N), |E(N)| elements with BN on the
    rows and coN on the columns, so it is displayed on N's basis, and
    one rule decides it, in three steps:
    (a) A zero pattern that is not NA's is not N, over every field: in a
        display [I | A] on B, the vector of f outside B is the sum of
        A[b][f] times the unit vector of b, so f + {b : A[b][f] != 0} is
        the unique circuit in B + f, the fundamental circuit of f.  The
        matroid alone fixes where a display on B is nonzero.  The test
        compares the support of each leaf row with that of NA's row.
    (b) N's own display over N's field (the same entries as NA, in that
        order) is N, as one representation has one matroid.  Over GF(2)
        the zero pattern is every entry, so with M and N over GF(2) no
        leaf gets past here (one standard representation per basis;
        Oxley, Matroid Theory, ch. 6).  An all-zero NA is N over any
        field: [I | 0] on BN makes BN coloops and coN loops whatever
        the field, and a leaf with NA's zero pattern is all zero too,
        so it is N.
    (c) Otherwise L is N exactly when its rank table over sorted E(N) is
        N's, a test exact over every field.  N's labels and table are
        `N._table`'s, built when a leaf first needs them and refused
        above the equals cap (16 elements) before any table is built.

    One walk runs over one of two row kernels, which lay a node out
    alike, as above; the walk, `ways` and (a) are written once, on
    support masks.  The kernel is chosen by what the code can see: the
    packed kernel when M and N are both over GF(2), the generic kernel
    otherwise.  The root is set up on lists by `_pivot_each` for both.
    A kernel supplies only the support of a row or of a column, the step
    on e, its node test and its leaf test after (a):
    - packed: each row is packed into its support, an int with bit j
      for its entry in column j, so a row is its own support.  A step
      is `_step_gf2`, which pivots onto the first row after BN's or
      the lowest column outside coN, and whose pivot at (i, j) XORs
      data[i] ^ (1 << j) into every other row with bit j
      (`_pivot_gf2`).  Its node test is the two span tests below.  Over
      GF(2) the zero pattern is the display, so (a) is (b), no leaf
      reaches (c), and it has no leaf test after (a).
    - generic: each row is a list of encodings.  A step is
      `ReprMatroid._step`, the step of `ReprMatroid.minor`, with its
      pivots avoiding the one set E(N).  That set serves both sides at
      every node: BN stays on the rows and coN on the columns, so a row
      outside E(N) is a row outside BN, and a column outside E(N) a
      column outside coN (a None column, with zero entries, is never a
      pivot).  It has no node test, and its leaf test is (b) and then
      (c), on the leaf with its None columns cut out
      (`LabeledMatrix._without_columns`).

    On packed rows a node K whose undecided elements are
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
    is empty, and the primal test is (a).
    """
    if not N.ground <= M.ground:
        raise GroundSetMismatch(f"minor ground {sorted(N.ground)} not inside {sorted(M.ground)}")
    rest = sorted(M.ground - N.ground)
    if len(rest) > cap:
        raise CapExceeded(f"|E(M)-E(N)| = {len(rest)} exceeds partition cap {cap}")
    A, BN, coN, field = N.rep, N.basis, N.ground - N.basis, M.field
    outside = frozenset(rest)
    found = []
    rows, cols, data = root = M._display_lists()
    if not (ReprMatroid._pivot_each(field, *root, BN.difference(rows), BN)
            and ReprMatroid._pivot_each(field, *root, coN.intersection(rows), coN)):
        return frozenset()
    # the one node layout: BN's rows first, every column at its root
    # position, N's display (NA) in the same positions, and a line's
    # support the bit mask of its nonzero positions
    nb, bits = len(BN), _bits(max(len(rows), len(cols)))
    if not BN.issuperset(rows[:nb]):
        rows, data = map(list, zip(*sorted(zip(rows, data), key=lambda row: row[0] not in BN)))

    def support(line) -> int:
        return sum(compress(bits, line))

    NA = [[A.enc(b, f) if f in coN else 0 for f in cols] for b in rows[:nb]]
    zeros = [sum(compress(bits, row)) for row in NA]
    mask = sum(compress(bits, map(coN.__contains__, cols)))
    if field.order == 2 and N.field == field:
        # each row packed into its support, an int with bit j for its
        # entry in column j
        data, row_mask, final = list(map(support, data)), int, None
        copy, move, args = list.copy, _step_gf2, (nb, mask)

        def col_mask(data, j) -> int:
            return sum(compress(bits, [x >> j & 1 for x in data]))

        def fits(data) -> bool:
            # the primal and the dual span test; both pass when BN's
            # rows are NA's, as every vector to span is then zero
            xs = [x ^ y for x, y in zip(data, zeros)]
            if not _spans(xs, ~mask, nb):
                return False
            ts = [x & mask for x in xs]
            return not any(ts) or _spans([x & mask for x in data[nb:]] + ts, -1, len(data) - nb)
    else:
        row_mask, fits, move, args = support, None, ReprMatroid._step, (field, N.ground)
        shown = N.field == field or not any(zeros)  # a zero NA is N over every field
        TN = []  # N's labels and rank table, built when a leaf first needs them

        def col_mask(data, j) -> int:
            return sum(compress(bits, [x[j] for x in data]))

        def copy(data) -> list:
            return [x[:] for x in data]

        def final(rows, cols, data) -> bool:
            # (b), then (c) on the leaf's labelled columns
            if shown and data == NA:
                return True
            if not TN:
                TN.extend(N._table("rank table"))
            labels, table = TN
            L = LabeledMatrix._without_columns(field, rows, cols, data, {None})
            return rank_table(L, labels) == table

    def ways(rows, cols, data, e) -> tuple[bool, ...]:
        # the steps on e that keep the invariant, deletion (False) first:
        # a row e is deleted, or a column e contracted, by a pivot on its
        # line, which none has when its support lies in coN's columns, or
        # in BN's rows
        if e in rows:
            x = row_mask(data[rows.index(e)])
            return (True,) if x and not x & ~mask else (False, True)
        x = col_mask(data, cols.index(e))
        return (False,) if x and not x >> nb else (False, True)

    def walk(i, C, node) -> None:
        # node displays M/C\(rest[:i] - C), BN on its rows, coN on its columns
        if i < len(rest):
            if fits and not fits(node[2]):
                return
            e = rest[i]
            allowed = ways(*node, e)
            for contracting in allowed:
                # the kernel's step on e, on a copy of the node while a
                # sibling still needs it, and on the node itself for the last
                rows, cols, data = node
                child = node if contracting == allowed[-1] else (rows[:], cols[:], copy(data))
                move(*child, e, contracting, *args)
                walk(i + 1, C | {e} if contracting else C, child)
            return
        for _ in partitions_of(()):  # the one colouring of the empty remainder
            # (a) on the leaf's rows, BN's, then the kernel's leaf test
            if all(map(eq, map(row_mask, node[2]), zeros)) and (not final or final(*node)):
                found.append(MinorSpec(C, outside - C))

    try:
        walk(0, frozenset(), (rows, cols, data))
    finally:
        del walk  # its cell refers to it: a cycle that reference counting cannot free
    return frozenset(found)


@lru_cache(maxsize=64)
def _bits(n: int) -> tuple[int, ...]:
    """The masks 1 << k of the first n positions, shared by every search
    over displays that wide."""
    return tuple(1 << k for k in range(n))


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
    with coN's columns at the bits of `mask`: a contracted column
    pivots onto the first row after BN's with its bit, and a deleted
    row onto the lowest column outside coN with its bit.  Then a row e
    (contracted, or a deleted coloop) is dropped, and a column e
    (deleted, or a contracted loop) keeps its position, with label None
    and its bit clear in every row."""
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


def is_N_fragile(M: ReprMatroid, N: ReprMatroid) -> bool:
    """M is N-fragile: exactly one partition (C, D) of E(M) - E(N)
    realises N as M/C\\D.  Decided by the full `fragile_partitions`
    search, since only the whole search space certifies uniqueness."""
    return len(fragile_partitions(M, N)) == 1


def one_move_partition(M: ReprMatroid, part: MinorSpec) -> MinorSpec | None:
    """A second partition realising the same minor as `part`, one
    element away from it, or None if no single move keeps the minor.

    `part` = (C0, D0) realises N = M/C0\\D0.  With cl* the closure in
    M*, e in C0 can move to the delete side iff e is in cl(C0 - e) or
    cl*(D0), and e in D0 can move to the contract side iff e is in
    cl(C0) or cl*(D0 - e).  So a neighbour exists iff C0 is dependent,
    D0 meets cl(C0), D0 is dependent in M*, or C0 meets cl*(D0).

    Two eliminations (`matrices._sift`) decide the four.  The first
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
    The two eliminations are `_one_move`, on M's display.
    """
    part.validate(M)
    A = M.rep
    e = _one_move(A.field, A._row_pos, A._col_pos, A._data,
                  sorted(part.contract), sorted(part.delete))
    return None if e is None else MinorSpec(part.contract ^ {e}, part.delete ^ {e})


def _one_move(field: FieldSpec, row_pos: dict, col_pos: dict, data: Sequence, C0: list[str],
              D0: list[str]) -> str | None:
    """The element that moves in `one_move_partition`, or None: its two
    eliminations on a display of M, given as its position maps and its
    rows of encodings, with the sides C0 and D0 sorted and inside the
    display's labels (checked by the caller).  Each is one call of
    `matrices._sift`, which reads the vectors off the display as it
    reaches them and stops at the first that reduces to zero, the last
    it returns; the witness has no elimination of its own.  It builds no
    matroid and no matrix, so a caller holding only drawn rows pays for
    the sifts alone."""
    labels = C0 + D0
    red = _sift(field, row_pos, col_pos, data, labels, len(C0), stop=True)
    if red and not red[-1]:
        return labels[len(red) - 1]
    labels = D0 + C0
    red = _sift(field, row_pos, col_pos, data, labels, len(D0), dual=True, stop=True)
    return labels[len(red) - 1] if red and not red[-1] else None


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
    order: one sift of N's element vectors in that order (`_sift`, read
    off N's display) leaves a vector nonzero exactly when the elements
    before it do not span it.
    """
    C = part.contract
    if len(N.rep.rows) != len(M.rep.rows) - len(C) or M.rank(C) != len(C):
        return None
    labels, A = sorted(N.ground), N.rep
    vecs = _sift(A.field, A._row_pos, A._col_pos, A._data, labels, len(labels))
    return C | frozenset(e for e, v in zip(labels, vecs) if v)


def display_basis(M: ReprMatroid, N: ReprMatroid) -> frozenset[str] | None:
    """Lexicographically least basis B of M displaying N, i.e. with
    M contract (B - E(N)) delete (E(M) - B - E(N)) equal to N, or None
    when N is not a minor of M on its labels.  It is the least
    `partition_basis` over `fragile_partitions`, and capped like it."""
    found = (partition_basis(M, N, p) for p in fragile_partitions(M, N))
    return min((B for B in found if B is not None), key=sorted, default=None)
