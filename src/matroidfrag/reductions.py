"""The constructive chain from a fragile pair to a relaxed matroid.

Given a matroid M that is fragile with respect to a minor N, the stages
below transform M, certificate by certificate, into a pair (M1, M2)
over an extension field such that M2 relaxes M1 at a circuit-hyperplane
H, while the part of M outside E(N) survives as a common minor:

  1. zero_out       find the one partition realising N, display N by
                    the basis B it reads off and zero the E(N) block
                    of the standard representation; contraction by the
                    displayed basis of N is unchanged.
  2. collapse_side  on a display with the isolated minor's coloop side
                    on the rows and its loop side on the columns, add
                    one element freely into the span of the loop side,
                    then delete that side; run again on the transposed
                    display, a display of the dual, for the coloop
                    side.  After both, the minor is a single coloop c
                    and a single loop d.
  3. relax_entry    the displayed (c, d) entry is forced to zero;
                    replacing it with a generator of a quadratic
                    extension adds exactly one basis, namely
                    H = rows - {c} + {d}.

Every stage re-verifies its own guarantees before returning and raises
PostconditionViolation with a witness when one fails, so a completed
ReductionTrace is itself a certificate.  After the one partition search
no stage sweeps subsets or reads a rank table: each guarantee follows
by a short proof, in the docstrings of `zero_out` (the zeroing lemma),
`free_extension` (free placement), `collapse_side` (the collapse
lemma) and `relax_entry`, from polynomial checks that compare entries
literally; no stage compares two matroids by `equals`.  Each stage
builds its displays from the rows of the display before it: the zeroing
rewrites BN's rows, a collapse appends a column and then drops columns,
the relaxation rewrites one row, and the coloop collapse runs on the
transposed display A^T and transposes its result back.  A^T displays
the dual M*, which -A^T displays, up to scaling each column of A^T by
-1, and scaling an element's vector keeps every rank; so no stage
negates an entry.  No stage goes through `ReprMatroid.minor`, and
each check reads the rows by position once it has matched the labels.

One partition search per pipeline, in zero_out, finds the partition
(C, D) realising N; from then on the display is the certificate.  Each
stage shows its isolated minor on X with C on the rows, D on the
columns and a zero block on X.  By the zeroing lemma (C, D) is the only
partition realising the zeroed display's isolated minor, and by the
collapse lemma each collapse keeps the set of realising partitions, so
the display that reaches the relaxation is pair-fragile.  `pipeline`
calls zero_out and collapse_side themselves, as each certifies its own
output.  collapse_side runs no search: on any display it keeps the set
of realising partitions, so its output is fragile exactly when its
input is.  relax_entry, called on its own, certifies its input by a
basis check and `x_fragile_failure`; `pipeline` runs its core
`_relax_entry` on the display the two lemmas certified.

Field growth: collapsing a side of size s needs s coordinates linearly
independent over the current field, hence a degree max(1, s) extension
by default.  Conformance mode instead extends by degree k = |E(N)| at
both collapse stages, landing on total degree exactly 2*k*k over the
input field; the default minimal degrees do not always divide 2*k*k, so
the uniform-degree tower is built stage by stage rather than by a final
embedding.

No stage reads a modulus or computes in a field above its input field.
`free_extension` writes each new entry from its coordinates,
`_relax_entry` decides theta outside F from F2's tower and theta's
encoding, every check compares encodings, and `pipeline` checks its
stage fields by their `.base` links (`galois.is_tower_prefix`).  Each
proof needs only that every tower step's modulus is irreducible, so the
certificate holds for every choice of irreducible moduli.  The
canonical modulus only names a field: in reports, and in
`field_from_tower`'s input check, where a tower given by its canonical
moduli is the field `extend_field` built.  `extend_field` is the one
call on the certifying path that walks for a modulus.
"""

from __future__ import annotations

from typing import Iterable

from .errors import (
    InvalidArgs,
    LabelCollision,
    NotFragile,
    PostconditionViolation,
    UnknownLabel,
)
from .fragility import (
    PARTITION_CAP_DEFAULT,
    fragile_partitions,
    partition_basis,
    x_fragile_failure,
)
from .galois import DEGREE_CAP_DEFAULT, extend_field, is_tower_prefix
from .matrices import LabeledMatrix
from .matroids import ReprMatroid
from .records import Record


def _fresh_label(stem: str, used: frozenset[str]) -> str:
    if stem not in used:
        return stem
    i = 1
    while f"{stem}{i}" in used:
        i += 1
    return f"{stem}{i}"


# ---------------------------------------------------------------------------
# stage 1: zero the displayed block


def zero_out(
    M: ReprMatroid, N: ReprMatroid, *, cap: int = PARTITION_CAP_DEFAULT
) -> tuple[ReprMatroid, LabeledMatrix]:
    """Zero the E(N) block of a representation of M displaying N.

    Requires M fragile with respect to N: one partition search, capped
    by `cap`, must find exactly one realising partition, else NotFragile.
    M is re-displayed on the basis that partition reads off
    (`partition_basis`), whose rows BN in E(N) are the displayed basis
    of N, and the block (BN, E(N) - BN) of that display A is zeroed.
    Returns the rewritten matroid M2 and its display A2.  The partition
    found, (rows - E(N), cols - E(N)), is then the only one realising
    isolated(BN, E(N)) in M2.

    The zeroing rebuilds only BN's rows and is checked literally, in one
    pass over the rows: A2 must have A's labels in A's order, each of
    BN's rows must be zero on the block and equal to A's row elsewhere,
    and every other row must be A's.
    So M2/BN = M/BN, as contracting a row element of [I | A] deletes its
    row (`ReprMatroid.minor`): both are represented by A without BN.

    Zeroing lemma: every partition (W, Z) of E(M) - E(N) that realises
    isolated(BN, E(N)) in M2 realises N in M.  Proof.  W, Z and BN keep
    their vectors, as only the block changes; the vector of g in
    E(N) - BN in M is its vector in M2 plus the sum of A[b][g] times the
    unit vector e_b over b in BN.  As (W, Z) realises the isolated
    minor, the M2 vector of each such g lies in span(W), and the e_b stay
    independent modulo span(W).  So modulo span(W) the vectors of M on
    E(N) are the columns of [I | A[BN, E(N) - BN]], and M/W\\Z is the
    matroid of that matrix, which is N, as A displays N on its rows BN.
    The partition found realises the isolated minor in M2, as the block
    is zero, and it is the only one realising N in M; so it is the only
    one in M2, certified with no rank table.
    """
    parts = fragile_partitions(M, N, cap=cap)
    if len(parts) != 1:
        raise NotFragile(f"{len(parts)} partitions realise the minor; need exactly one")
    A = M.rebase(partition_basis(M, N, next(iter(parts)))).rep
    BN = N.ground & frozenset(A.rows)
    bn = {A._row_pos[r] for r in BN}
    block = {A._col_pos[c] for c in N.ground - BN}
    data = list(A._data)
    for i in bn:
        data[i] = tuple(0 if j in block else x for j, x in enumerate(data[i]))
    A2 = LabeledMatrix._of_display(A.field, A.rows, A.cols, data)
    if (A2.rows, A2.cols) != (A.rows, A.cols) or any(
            # a row of BN: zero on the block, A's entries elsewhere
            len(row) != len(a) or any(y if j in block else y != x
                                      for j, (x, y) in enumerate(zip(a, row)))
            if i in bn else row != a
            for i, (a, row) in enumerate(zip(A._data, A2._data))):
        raise PostconditionViolation("the zeroed display is not the display with its block zeroed")
    return ReprMatroid(A2), A2


# ---------------------------------------------------------------------------
# free column extension


def free_extension(
    A: LabeledMatrix,
    X: Iterable[str],
    e: str,
    *,
    degree: int | None = None,
    degree_cap: int = DEGREE_CAP_DEFAULT,
) -> LabeledMatrix:
    """Append a column for a new element lying freely on the flat
    spanned by the columns X of the standard representation [I | A].

    The new column is sum(t^j * x_j), with x_0, x_1, ... the columns of
    X in label order and 1, t, ..., t^(d-1) the power basis of a degree
    d extension F' of the entry field F.  The degree d defaults to
    max(1, |X|) and may be raised (never lowered) with `degree`.  Each
    entry is written from its coordinates in that power basis: X's
    entries in its row, in label order, then zeros up to d.  An element
    of F' with coordinates (a_0, ..., a_(d-1)) over F is encoded as its
    base-|F| digits enc(a_j) (`galois`), so no arithmetic in F' is done;
    for d = 1 an entry is its own coordinate.  The output is built once,
    over F', from A's rows with the entry appended: an encoding of F is
    the same element of F' (`galois.embed`).  Before returning, its
    labels must be A's with e appended and its rows A's with one more
    entry; each entry of the column is then read back, by position, in
    its coordinates, and coordinate j must be x_j's entry in that row for
    j < |X|, and 0 above.  That read-back is the check of the column.

    Proof that the read-back certifies a free placement, i.e. that X
    spans e and every set S of old elements spanning e spans all of X.
    The power basis is an F-basis (beta_i) of F', as the tower step has
    degree d, so the read-back says the column is sum(t^j * x_j) with
    t^0, ..., t^(|X|-1) among the beta_i.  So X spans e.  Every old
    element's vector lies in F^m, and each vector w of F'^m is uniquely
    sum(beta_i * w_i) with every w_i in F^m.  If e = sum(lambda_s * y_s)
    over s in S, with lambda_s in F', expand each lambda_s in the basis
    and compare the parts at beta_i = t^j: x_j is an F-combination of
    the y_s.  So S spans every x_j; the converse holds trivially, and S
    spans e iff S spans X.
    """
    e = str(e)
    Xf = frozenset(X)
    not_cols = Xf.difference(A._col_pos)
    if not_cols:
        raise UnknownLabel(f"not column labels of the matrix: {sorted(not_cols)}")
    if e in A._row_pos or e in A._col_pos:
        raise LabelCollision(f"label {e!r} already used")
    k = len(Xf)
    need = max(1, k)
    d = need if degree is None else degree
    if d < need:
        raise InvalidArgs(f"degree {d} below the minimum {need} for |X| = {k}")
    F2 = extend_field(A.field, d, degree_cap=degree_cap)
    js = [A._col_pos[v] for v in sorted(Xf)]
    coords = [[row[j] for j in js] + [0] * (d - k) for row in A._data]
    column = map(F2._undigits, coords)
    out = LabeledMatrix._of_display(F2, A.rows, A.cols + (e,),
                                    [row + (x,) for row, x in zip(A._data, column)])
    if (out.rows, out.cols) != (A.rows, A.cols + (e,)) or any(
            row[:-1] != a for row, a in zip(out._data, A._data)):
        raise PostconditionViolation(f"the display with column {e!r} is not the display extended")
    for r, row, want in zip(A.rows, out._data, coords):
        got = F2._digits(row[-1]) if d > 1 else [row[-1]]
        if got + [0] * (d - len(got)) != want:
            raise PostconditionViolation(
                f"entry ({r!r}, {e!r}) of the new column is not the combination of X's columns"
            )
    return out


# ---------------------------------------------------------------------------
# stage 2: collapse one side of an isolated minor


def collapse_side(
    A: LabeledMatrix, X1: Iterable[str], X2: Iterable[str], d: str, *,
    degree: int | None = None, degree_cap: int = DEGREE_CAP_DEFAULT,
) -> LabeledMatrix:
    """Collapse the loop side X2 of the isolated minor on X1 + X2 to one
    element d, on a display A of M with X1 on its rows and X2 on its
    columns; returns the output's display.  No partition search is run.

    Sides that overlap, an X1 outside A's rows, an X2 outside its
    columns and a d already in use are refused (InvalidArgs,
    UnknownLabel, LabelCollision) before any extension is built, so a
    PostconditionViolation means a failed check, never a bad argument.
    `free_extension` appends d's column, with `degree` and `degree_cap`
    as there, and X2's columns are then dropped from its rows, which
    deletes X2, as deleting a column element drops its column
    (`ReprMatroid.minor`); no pivot is needed.  Only columns change, so
    the output keeps A's rows and its block on (C, D) =
    (rows - X1, cols - X2), checked literally (`_keeps_minor`).

    Collapse lemma: a partition (W, Z) of E(M) - X1 - X2 realises
    isolated(X1, X1 + X2) in M iff it realises isolated(X1, X1 + {d}) in
    the output, so the set of realising partitions is kept, whether it
    has one member or several: a fragile display collapses to a fragile
    one.  Proof.
    (W, Z) realises isolated(X1, X) in a matroid K iff X - X1 lies in
    cl(W) and r(W + X1) = r(W) + |X1|, as then for S inside X,
    r(W + S) = r(W + (S & X1)) = r(W) + |S & X1|.  The output and M
    agree on sets without d, hence on the second condition, and W spans
    d iff it spans X2, as d lies freely on the flat of X2
    (`free_extension`).  The coloop side is the same statement in the
    dual: (K/W\\Z)* = K*/Z\\W, and isolated(X1, X)* = isolated(X - X1, X).
    It runs on A^T, which displays M* with the roles of rows and columns
    swapped: M* is displayed by -A^T, whose columns scaled by -1 give
    A^T, and scaling an element's vector changes no rank.  The lemma
    holds on A^T unchanged, and transposing its output back displays
    the dual of the collapsed M*, so no entry is negated.  Negation acts
    on an entry's coordinates one by one, so the column built on A^T is
    the negation of the one built on -A^T, and each other entry is
    negated twice on that route: the two displays are equal.
    """
    X1, X2, d = frozenset(X1), frozenset(X2), str(d)
    if X1 & X2:
        raise InvalidArgs(f"sides overlap: {sorted(X1 & X2)}")
    not_rows = X1.difference(A._row_pos)
    if not_rows:
        raise UnknownLabel(f"not row labels of the matrix: {sorted(not_rows)}")
    # refuses an X2 off the columns and a used d before it extends
    A1 = free_extension(A, X2, d, degree=degree, degree_cap=degree_cap)
    out = LabeledMatrix._without_columns(A1.field, A1.rows, A1.cols, A1._data, X2)
    if not _keeps_minor(A, X1, X2, out, X1, {d}):
        raise PostconditionViolation("the collapse changed the common minor on (C, D)")
    return out


def _keeps_minor(
    A: LabeledMatrix, X1: frozenset[str], X2: frozenset[str],
    A1: LabeledMatrix, Y1: Iterable[str], Y2: Iterable[str],
) -> bool:
    """The literal common-minor check: with A displaying M with X1 on
    its rows and X2 on its columns, C = rows - X1 and D = cols - X2, the
    display A1 has rows C + Y1 and columns D + Y2, and A1 equals A on
    (C, D): each row of C, found in each display by its label, agrees at
    the positions of D's labels.  Then M1/Y1\\Y2 = M/X1\\X2 for the
    matroid M1 of A1.

    Proof.  Contracting a row element deletes its row and deleting a
    column element deletes its column (`ReprMatroid.minor`), so M/X1\\X2
    is represented by A on (C, D) and M1/Y1\\Y2 by A1 on (C, D).  Equal
    encodings are equal entries once A is lifted to A1's field, and a
    matrix over F has the same rank over every extension of F, so the
    two matroids are one.  The check is what the collapses promise: each
    adds a column (`free_extension`) and deletes column elements, on A
    or on the transposed display A^T, and two transposes cancel, since
    (A^T)^T = A; no step rewrites an entry on (C, D).
    """
    C = [r for r in A.rows if r not in X1]
    D = [c for c in A.cols if c not in X2]
    if A1._row_pos.keys() != {*C, *Y1} or A1._col_pos.keys() != {*D, *Y2}:
        return False
    js = [(A._col_pos[c], A1._col_pos[c]) for c in D]
    for r in C:
        row, row1 = A._data[A._row_pos[r]], A1._data[A1._row_pos[r]]
        for j, j1 in js:
            if row[j] != row1[j1]:
                return False
    return True


# ---------------------------------------------------------------------------
# stage 3: relax the displayed entry


def relax_entry(
    M: ReprMatroid,
    C: Iterable[str],
    D: Iterable[str],
    *,
    cap: int = PARTITION_CAP_DEFAULT,
) -> tuple[ReprMatroid, ReprMatroid, frozenset[str]]:
    """Relax the circuit-hyperplane displayed by a coloop/loop pair.

    (C, D) must be the unique partition realising a two-element isolated
    minor (one coloop c, one loop d).  Re-displays M with basis C + {c};
    the (c, d) entry of that representation is necessarily zero.  M1 is
    the re-displayed matroid; M2 replaces the zero with a generator of a
    quadratic extension.  Returns (M1, M2, H) where H = C + {d} is a
    circuit-hyperplane of M1 and the unique new basis of M2.

    Verified before returning: C + {c} is a basis of M; the display A1
    of M on it is {c, d}-fragile, its (c, d) entry zero included, by
    `x_fragile_failure` (capped by `cap` on the |E| - 2 labels outside
    the pair); and the generator theta of the quadratic extension F2
    lies outside the entry field F, read off F2's tower and theta's
    encoding with no arithmetic (proof in `_relax_entry`: for every
    irreducible quadratic, {1, theta} is an F-basis of F2).  The first
    two hold exactly when (C, D) is the only partition realising the
    pair.  If it is, C is independent and E - D spans, else one move
    (`fragility.one_move_partition`) gives a second partition; as
    M/C\\D has rank 1, C + {c} is then a basis.  On that
    display (C, D) is (rows - {c}, cols - {d}), the only partition
    realising the pair exactly when A1 is {c, d}-fragile (proof in
    `fragility.x_fragile_failure`).

    Proof that these certify the relaxation.  A2 = A1 + theta * E_cd, so
    each minor of A2 is m0 + theta * m1, with m0 the same minor of A1
    and m1 (zero unless the minor uses row c and column d) a minor of A1
    without row c and column d; both lie in F, and theta is not in F, so
    the minor vanishes iff m0 = m1 = 0.  Hence no rank drops, and
    rank(A2[Z]) > rank(A1[Z]) iff {c, d} <= Z and
    rank(A1[Z - {c, d}]) = rank(A1[Z]).  Pair fragility says that the
    latter fails for every Z but {c, d} itself, where both ranks are 0.
    With R the rows, r(Y) = |Y & R| + rank(A[Y ^ R]) in the matroid of
    [I | A], and Y ^ R = {c, d} iff Y = H; so r2 = r1 except that
    r2(H) = r1(H) + 1, and r1(E) = r2(E) = r = |R| as c is not in H.
    Now r1(H) + 1 = r2(H) <= |H| = r, and H - d = R - c is independent,
    so r1(H) = r - 1 and r2(H) = r: the bases of M2 are those of M1 plus
    H.  For x in H, H - x is independent in M2, hence in M1, so H is a
    circuit of M1; for f outside H, r1(H + f) = r2(H + f) >= r2(H) = r,
    so H is closed, a hyperplane.
    """
    Cf, Df = frozenset(C), frozenset(D)
    rest = M.ground - Cf - Df
    if Cf & Df or not (Cf | Df) <= M.ground:
        raise InvalidArgs("contract and delete sets must be disjoint subsets of the ground set")
    if len(rest) != 2:
        raise NotFragile(f"displayed minor has {len(rest)} elements; need exactly 2")
    Mn = M.minor(Cf, Df)
    by_rank = {x: Mn.rank({x}) for x in sorted(rest)}
    coloops = [x for x, r in by_rank.items() if r == 1]
    loops = [x for x, r in by_rank.items() if r == 0]
    if len(coloops) != 1 or len(loops) != 1:
        raise NotFragile(f"minor is not one coloop plus one loop: ranks {by_rank}")
    c, d = coloops[0], loops[0]
    # with c rank 1 and d a loop, Mn is the pair isolated({c}, {c, d})
    try:
        M1 = M.rebase(Cf | {c})  # its pivots refuse a set that is no basis
    except InvalidArgs:
        pass
    else:
        if x_fragile_failure(M1.rep, {c, d}, cap=cap) is None:
            return _relax_entry(M1, c, d, DEGREE_CAP_DEFAULT)
    raise NotFragile(
        "the matroid is not fragile for the pair, or (C, D) is not its partition"
    )


def _relax_entry(
    M1: ReprMatroid, c: str, d: str, degree_cap: int
) -> tuple[ReprMatroid, ReprMatroid, frozenset[str]]:
    """relax_entry on M1 displayed with basis C + {c}, a display
    certified {c, d}-fragile; H = rows - {c} + {d}.  M2 is built once,
    over F2, from A1's rows with row c rebuilt to hold theta at d: an
    encoding of F is the same element of F2 (`galois.embed`).

    theta lies outside F, decided literally with no arithmetic: F2's
    `base` must be F, or F2 is refused as not one step over F, and
    theta's encoding must be at least |F|, the encodings below |F|
    being F's image in F2 (`galois.embed`), or theta is refused as
    lying in F.  Proof.
    For every irreducible quadratic f over F, F2 = F[t]/(f) is a field
    with F-basis {1, t}, as a relation a + b t = 0 with b nonzero would
    give f the root -a / b in F.  An element of F2 is encoded by its
    coordinates (a_0, a_1) in that basis as enc(a_0) + |F| enc(a_1), so
    F is the encodings below |F|, and theta = t = F2.gen, with
    coordinates (0, 1), has encoding |F|: t is not in F.  Nothing here
    depends on which irreducible f is, so no modulus is read."""
    A1 = M1.rep
    F = A1.field
    F2 = extend_field(F, 2, degree_cap=degree_cap)
    theta = F2.gen
    if F2.base is not F:
        raise PostconditionViolation("the relaxation field is not one step over the entry field")
    if theta.enc < F.order:
        raise PostconditionViolation("extension generator lies in the entry field")
    # with the caller's pair fragility this certifies the relaxation
    # (proof in relax_entry)
    i, j = A1._row_pos[c], A1._col_pos[d]
    data = list(A1._data)
    data[i] = data[i][:j] + (theta.enc,) + data[i][j + 1:]
    M2 = ReprMatroid(LabeledMatrix._of_display(F2, A1.rows, A1.cols, data))
    return M1, M2, frozenset(A1.rows) - {c} | {d}


# ---------------------------------------------------------------------------
# the full pipeline


class StageRecord(Record):
    __slots__ = ("name", "degree_over_input", "matroid", "details")


class ReductionTrace(Record):
    __slots__ = (
        "input_matroid",
        "minor_matroid",
        "displayed_basis",
        "coloop_side",
        "loop_side",
        "c_label",
        "d_label",
        "stages",
        "relaxed",                  # M1
        "relaxation",               # M2
        "hyperplane",
        "conformance",
        "degree_bound",             # 2 k^2 over the input field
        "final_degree_over_input",
    )


def pipeline(
    M: ReprMatroid,
    N: ReprMatroid,
    *,
    conformance: bool = False,
    cap: int = PARTITION_CAP_DEFAULT,
) -> ReductionTrace:
    """Run the whole chain on a fragile pair and certify every stage.

    Default mode keeps extensions minimal: a side of the displayed
    isolated minor that is already a single element is left alone, and a
    collapsed side of size s costs a degree max(1, s) extension, so the
    final field has degree 2 * max(1,|B|) * max(1,|E(N)|-|B|) over the
    input field, with B the displayed basis of N.  Conformance mode
    always collapses both sides at degree k = |E(N)|, landing on total
    degree exactly 2*k*k.  In both modes the degree cap is raised to
    2*k*k over the input field, the bound either tower stays within.
    Before returning, each stage's field must be a tower over the one
    before it, starting from the input field (`is_tower_prefix`), and
    the final degree over the input field must be exactly the one the
    mode promises.

    The common minor M1/c\\d = M/X1\\X2 is checked literally on the
    zeroed display Az (`_keeps_minor`): X1 is the row set BN of
    `zero_out`, whose check gives Mz/X1 = M/X1.  So `pipeline` makes no
    `equals` call and is bounded by the partition and degree caps alone.

    The stages are called by their module names: `zero_out` (the one
    partition search, capped by `cap`), `collapse_side` on the zeroed
    display for the loop side and on the transposed display for the
    coloop side, then `_relax_entry`.  After the search no stage reads a
    rank table.  By the zeroing lemma (`zero_out`) the zeroed display's
    partition (C, D) is the only one realising its isolated minor on
    E(N), and each collapse keeps the set of realising partitions (the
    collapse lemma, `collapse_side`), so the last display is pair-fragile
    with its (c, d) entry zero, as `_relax_entry` requires; relax_entry's
    own `x_fragile_failure` check would build rank tables, which no
    stage of a pipeline builds.
    """
    k = len(N.ground)
    base_field = M.field
    if conformance and k == 0:
        raise InvalidArgs("conformance mode needs a nonempty minor")
    dcap = max(DEGREE_CAP_DEFAULT, base_field.degree * 2 * k * k)

    # the one partition search; every later stage keeps its display
    Mz, Az = zero_out(M, N, cap=cap)
    B = frozenset(Az.rows)
    X1 = B & N.ground
    X2 = N.ground - B
    # the records are built positionally, in slot order
    stages = [StageRecord("zero_displayed_block", 1, Mz, {"displayed_basis": sorted(B)})]

    cur = Mz

    # the loop side, then the coloop side as the loop side of the
    # transposed display, where rows and columns swap
    labels = {}
    for name, key, side in (
        ("collapse_loop_side", "d", X2),
        ("collapse_coloop_side", "c", X1),
    ):
        if not conformance and len(side) == 1:
            labels[key] = next(iter(side))
            details = {"skipped": True}
        else:
            # the stems differ, so the fresh d is never the fresh c
            labels[key] = _fresh_label(key, M.ground)
            degree = k if conformance else None
            if key == "d":
                A = collapse_side(cur.rep, X1, X2, labels["d"], degree=degree, degree_cap=dcap)
            else:
                A = collapse_side(cur.rep.transpose(), {labels["d"]}, X1, labels["c"],
                                  degree=degree, degree_cap=dcap).transpose()
            cur = ReprMatroid(A)
            details = {"collapsed": sorted(side)}
        details[key] = labels[key]
        stages.append(StageRecord(name, cur.field.degree // base_field.degree, cur, details))
    c_label, d_label = labels["c"], labels["d"]

    # relax the entry of the display the last stage certified pair-fragile
    M1, M2, H = _relax_entry(cur, c_label, d_label, dcap)
    final_degree = M2.field.degree // base_field.degree
    stages.append(StageRecord("relax_entry", final_degree, M2, {"hyperplane": sorted(H)}))

    if not _keeps_minor(Az, X1, X2, M1.rep, {c_label}, {d_label}):
        raise PostconditionViolation(
            "pipeline lost the common minor: contracting the displayed basis "
            "of the input minor disagrees with contracting c and deleting d"
        )
    # each stage's field is a tower over the one before it, so every
    # degree over the input field is exact and none falls
    fields = [base_field] + [s.matroid.field for s in stages]
    bad = [s.name for s, f, g in zip(stages, fields, fields[1:]) if not is_tower_prefix(f, g)]
    if bad:
        raise PostconditionViolation(f"stage field not a tower over the one before: {bad}")
    bound = 2 * k * k
    promised = bound if conformance else 2 * max(1, len(X1)) * max(1, len(X2))
    if final_degree != promised:
        raise PostconditionViolation(f"final degree {final_degree}, promised {promised}")

    return ReductionTrace(
        M, N, B, X1, X2, c_label, d_label, stages, M1, M2, H, conformance, bound, final_degree
    )
