"""Fragility certificates for matroids and matrices.

A matroid M is fragile with respect to a fixed minor N on a fixed label
set when exactly one partition (C, D) of E(M) - E(N) realises N as
M contract C delete D.  `fragile_partitions` checks every partition
against the rank table of M (`matrices.rank_table`, one byte per
subset of E(M)) and that of N, so the certificate is the whole search
space, not a heuristic.

The matrix-side notion: a labeled matrix A is X-fragile when the block
A[X] vanishes and adjoining X to any nonempty disjoint Y strictly
increases rank.  `x_fragile_failure` reads that condition off two rank
tables over the labels outside X.  The two notions are one: A is
X-fragile exactly when (rows - X, cols - X) is the only partition
realising the isolated minor on X (coloops X & rows) in the matroid of
[I | A] (proof in `x_fragile_failure`).  So `reductions` searches
partitions once, and each stage certifies its output by
`x_fragile_failure` on its own representation.

A realising partition also gives a cheap test of non-fragility:
`one_move_partition` looks for a second realising partition one
element away from it by single rank queries, and any it returns is a
witness that M is not N-fragile.  Finding none proves nothing, so the
fragility verdict itself is always the full search.

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
from .matrices import LabeledMatrix, rank_table
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
    labeled matroid (same labels, same rank function)."""
    if not N.ground <= M.ground:
        raise GroundSetMismatch(
            f"minor ground {sorted(N.ground)} not inside {sorted(M.ground)}"
        )
    rest = M.ground - N.ground
    if len(rest) > cap:
        raise CapExceeded(
            f"|E(M)-E(N)| = {len(rest)} exceeds partition cap {cap}"
        )
    # M/C\D has ground set E(N) for every partition, and its rank of X
    # is r_M(X | C) - r_M(C).  With E(N) on the low n bits of T, the
    # ranks of X | C over every X are the slice of T from the mask of C
    n = len(N.ground)
    order = sorted(N.ground) + sorted(rest)
    bit = {v: 1 << i for i, v in enumerate(order)}
    T = rank_table(M.rep, order)
    TN = rank_table(N.rep, order[:n])
    # the offset T[cm] is a rank of M, at most T[-1] = r(M)
    targets = [bytes(t + o for t in TN) for o in range(T[-1] + 1)]
    found = []
    for C, D in partitions_of(rest):
        cm = sum(bit[v] for v in C)
        if T[cm : cm + (1 << n)] == targets[T[cm]]:
            found.append(MinorSpec(C, D))
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

    `part` = (C0, D0) realises N = M/C0\\D0.  Moving e from C0 to D
    gives (C0 - e, D0 + e), which realises N exactly when:
        r(C0 - e) = r(C0)  or  r(E - D0 - e) = r(E - D0) - 1.
    Moving e from D0 to C gives (C0 + e, D0 - e), which realises N
    exactly when:
        r(C0 + e) = r(C0)  or  r(E - D0 + e) = r(E - D0) + 1.
    Elements are tried in label order, C0 first, and the first move
    that keeps N is returned.  Each element costs at most two rank
    queries of M beyond the two shared ones r(C0) and r(E - D0), so at
    most 4|C0 + D0| in all; no rank table is built.

    Proof.  For any matroid K and element e, K/e = K\\e iff e is a
    loop or a coloop of K: otherwise r(K/e) = r(K) - 1 < r(K\\e)
    (Oxley, Matroid Theory, 2nd ed., ch. 3).  For e in C0 take
    K = M/(C0 - e)\\D0, so N = K/e and the moved partition gives K\\e.
    In K, r_K(X) = r(X + C0 - e) - r(C0 - e) on E(K) = E - D0 - C0 + e.
    So e is a loop of K iff r(C0) = r(C0 - e), and a coloop iff
    r_K(E(K) - e) = r_K(E(K)) - 1, that is r(E - D0 - e) =
    r(E - D0) - 1.  For e in D0 take K = M/C0\\(D0 - e): N = K\\e,
    the moved partition gives K/e, e is a loop of K iff
    r(C0 + e) = r(C0), and a coloop iff r(E - D0) = r(E - D0 + e) - 1.

    A returned partition is therefore a witness that M is not N-fragile.
    None proves nothing: two realising partitions may differ in more
    than one element, so fragility still needs `fragile_partitions`.
    """
    part.validate(M)
    C0, D0 = part.contract, part.delete
    if not C0 and not D0:
        return None
    rank = M.rank
    rc = rank(C0)
    kept = M.ground - D0
    rk = rank(kept)
    for e in sorted(C0):
        if rank(C0 - {e}) == rc or rank(kept - {e}) == rk - 1:
            return MinorSpec(C0 - {e}, D0 | {e})
    for e in sorted(D0):
        if rank(C0 | {e}) == rc or rank(kept | {e}) == rk + 1:
            return MinorSpec(C0 | {e}, D0 - {e})
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
    """
    Xf = frozenset(X)
    unknown = Xf - A.labels()
    if unknown:
        raise UnknownLabel(f"labels not in matrix: {sorted(unknown)}")
    R = frozenset(A.rows)
    xr = sorted(Xf & R)
    xc = sorted(Xf & frozenset(A.cols))
    for r in xr:
        for c in xc:
            if A.enc(r, c):
                return ("block_nonzero", (r, c))
    rest = sorted(A.labels() - Xf)
    if len(rest) > cap:
        raise CapExceeded(f"|labels - X| = {len(rest)} exceeds partition cap {cap}")
    # Y fails iff r(W | Xc) <= r(W | Xr) - |Xr| (proof above), and the
    # two sides are tables of M/Xc\Xr and M/Xr\Xc over the labels
    # outside X, the first offset by r(Xc).
    M = ReprMatroid(A)
    Tc = rank_table(M.minor(xc, xr).rep, rest)
    Tr = rank_table(M.minor(xr, xc).rep, rest)
    rc = M.rank(xc)
    rmask = sum(1 << i for i, v in enumerate(rest) if v in R)
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
