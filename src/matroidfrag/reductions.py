"""The constructive chain from a fragile pair to a relaxed matroid.

Given a matroid M that is fragile with respect to a minor N, the stages
below transform M, certificate by certificate, into a pair (M1, M2)
over an extension field such that M2 relaxes M1 at a circuit-hyperplane
H, while the part of M outside E(N) survives as a common minor:

  1. zero_out       display N by a basis B and zero the E(N) block of
                    the standard representation; contraction by the
                    displayed basis of N is unchanged.
  2. collapse_side  add one element freely into the span of the loop
                    side of the isolated minor, then delete that side;
                    run again in the dual for the coloop side.  After
                    both, the minor is a single coloop c and a single
                    loop d.
  3. relax_entry    the displayed (c, d) entry is forced to zero;
                    replacing it with a generator of a quadratic
                    extension adds exactly one basis, namely
                    H = rows - {c} + {d}.

Every stage re-verifies its own guarantees before returning and raises
PostconditionViolation with a witness when one fails, so a completed
ReductionTrace is itself a certificate.  After the one partition search
no stage sweeps subsets or reads a rank table: each guarantee follows
by a short proof, in the docstrings of `_zero_out` (the zeroing lemma),
`free_extension` (free placement), `_collapse_side` (the collapse
lemma) and `relax_entry`, from polynomial checks that compare entries
literally; no stage compares two matroids by `equals`.

One partition search per pipeline, in zero_out, finds the partition
(C, D) realising N; from then on the display is the certificate.  Each
stage shows its isolated minor on X with C on the rows, D on the
columns and a zero block on X.  By the zeroing lemma (C, D) is the only
partition realising the zeroed display's isolated minor, and by the
collapse lemma each collapse keeps the set of realising partitions, so
the display that reaches the relaxation is pair-fragile.  Called on
their own, collapse_side and reduce_to_two display their input by the
same partition search as zero_out, without its zeroing, and
relax_entry by a basis check and `x_fragile_failure`.

Field growth: collapsing a side of size s needs s coordinates linearly
independent over the current field, hence a degree max(1, s) extension
by default.  Conformance mode instead extends by degree k = |E(N)| at
both collapse stages, landing on total degree exactly 2*k*k over the
input field; the default minimal degrees do not always divide 2*k*k, so
the uniform-degree tower is built stage by stage rather than by a final
embedding.
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
from .galois import DEGREE_CAP_DEFAULT, extend_field, is_in_subfield, subfield_basis
from .matrices import LabeledMatrix
from .matroids import ReprMatroid, isolated
from .records import Record


def _fresh_label(stem: str, used: set[str]) -> str:
    if stem not in used:
        return stem
    i = 1
    while f"{stem}{i}" in used:
        i += 1
    return f"{stem}{i}"


# ---------------------------------------------------------------------------
# stage 1: zero the displayed block


def zero_out(M: ReprMatroid, N: ReprMatroid) -> tuple[ReprMatroid, LabeledMatrix]:
    """Zero the E(N) block of a representation of M displaying N.

    Requires M fragile with respect to N (exactly one realising
    partition).  Returns the rewritten matroid and its representation,
    whose row-label set is the displaying basis.
    """
    return _zero_out(M, N, PARTITION_CAP_DEFAULT)


def _display(M: ReprMatroid, N: ReprMatroid, cap: int) -> ReprMatroid:
    """M re-displayed on the basis of the one partition realising N,
    else NotFragile."""
    parts = fragile_partitions(M, N, cap=cap)
    if len(parts) != 1:
        raise NotFragile(f"{len(parts)} partitions realise the minor; need exactly one")
    return M.rebase(partition_basis(M, N, next(iter(parts))))


def _zero_out(M: ReprMatroid, N: ReprMatroid, cap: int) -> tuple[ReprMatroid, LabeledMatrix]:
    """zero_out under the partition cap `cap`.  With BN the rows of the
    display A in E(N), the partition found in M, (rows - E(N),
    cols - E(N)), is the only one realising isolated(BN, E(N)) in M2.

    The zeroing is checked literally: A2 must be A with the block
    (BN, E(N) - BN) zero and every other entry unchanged, label by label.
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
    A = _display(M, N, cap).rep
    BN = N.ground & frozenset(A.rows)
    block = N.ground - BN
    data = [list(row) for row in A._data]
    for r in BN:
        for c in block:
            data[A._row_pos[r]][A._col_pos[c]] = 0
    A2 = LabeledMatrix(A.field, A.rows, A.cols, data)
    if any(A2.enc(r, c) != (0 if r in BN and c in block else A.enc(r, c))
           for r in A.rows for c in A.cols):
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
    X in label order and 1, t, ..., t^(d-1) the power basis
    (`subfield_basis`) of a degree d extension F' of the entry field F.
    The degree d defaults to max(1, |X|) and may be raised (never
    lowered) with `degree`.  Before returning, each entry of the column
    is read back in its coordinates in that power basis, and coordinate
    j must be x_j's entry in that row for j < |X|, and 0 above; that
    read-back is the one check.

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
    Xf = frozenset(X)
    not_cols = Xf - frozenset(A.cols)
    if not_cols:
        raise UnknownLabel(f"not column labels of the matrix: {sorted(not_cols)}")
    if e in A._row_pos or e in A._col_pos:
        raise LabelCollision(f"label {e!r} already used")
    k = len(Xf)
    need = max(1, k)
    d = need if degree is None else degree
    if d < need:
        raise InvalidArgs(f"degree {d} below the minimum {need} for |X| = {k}")
    F = A.field
    F2 = extend_field(F, d, degree_cap=degree_cap)
    lifted = A.lift(F2) if F2 != F else A
    powers = subfield_basis(F2, F)[:k]

    def over_F(x):
        return [c.enc for c in x.coeffs] if F2 != F else [x.enc]

    xs = sorted(Xf)
    mul, add = F2.mul_enc, F2.add_enc
    col_encs = []
    for i in range(len(A.rows)):
        acc = 0
        for a, v in zip(powers, xs):
            acc = add(acc, mul(a.enc, lifted.enc(A.rows[i], v)))
        col_encs.append(acc)
    out = lifted.with_column(e, col_encs)
    for r in A.rows:
        if over_F(F2.elem(out.enc(r, e))) != [A.enc(r, v) for v in xs] + [0] * (d - k):
            raise PostconditionViolation(
                f"entry ({r!r}, {e!r}) of the new column is not the combination of X's columns"
            )
    return out


# ---------------------------------------------------------------------------
# stage 2: collapse one side of an isolated minor


def collapse_side(
    M: ReprMatroid,
    X1: Iterable[str],
    X2: Iterable[str],
    d: str,
) -> ReprMatroid:
    """Collapse the loop side X2 of an isolated minor to one element d.

    Requires M fragile with respect to the all-loops-and-coloops minor
    with coloop set X1 and loop set X2.  Adds d freely on the span of
    X2 and deletes X2; the result is fragile for the collapsed isolated
    minor by the collapse lemma (`_collapse_side`).  M is displayed by
    the partition search of zero_out, on the isolated minor.
    """
    X1f, X2f = frozenset(X1), frozenset(X2)
    if X1f & X2f:
        raise InvalidArgs(f"sides overlap: {sorted(X1f & X2f)}")
    if d in M.ground:
        raise LabelCollision(f"label {d!r} already in the ground set")
    # the display basis meets E(N) in the unique basis X1 of N
    Md = _display(M, isolated(X1f, X1f | X2f), PARTITION_CAP_DEFAULT)
    return _collapse_side(Md, X1f, X2f, d, None, DEGREE_CAP_DEFAULT)


def _collapse_side(
    M: ReprMatroid, X1: frozenset[str], X2: frozenset[str], d: str,
    degree: int | None, degree_cap: int,
) -> ReprMatroid:
    """collapse_side on M displayed with X1 on the rows and X2 on the
    columns.  Only columns change, so the output keeps M's rows and its
    block on (C, D) = (rows - X1, cols - X2), checked literally
    (`_keeps_minor`).

    Collapse lemma: a partition (W, Z) of E(M) - X1 - X2 realises
    isolated(X1, X1 + X2) in M iff it realises isolated(X1, X1 + {d}) in
    the output, so the set of realising partitions is kept.  Proof.
    (W, Z) realises isolated(X1, X) in a matroid K iff X - X1 lies in
    cl(W) and r(W + X1) = r(W) + |X1|, as then for S inside X,
    r(W + S) = r(W + (S & X1)) = r(W) + |S & X1|.  The output and M
    agree on sets without d, hence on the second condition, and W spans
    d iff it spans X2, as d lies freely on the flat of X2
    (`free_extension`).  The coloop side is the same statement in the
    dual: (K/W\\Z)* = K*/Z\\W, and isolated(X1, X)* = isolated(X - X1, X).
    """
    A2 = free_extension(M.rep, X2, d, degree=degree, degree_cap=degree_cap)
    out = ReprMatroid(A2).minor(delete=X2)
    if not _keeps_minor(M.rep, X1, X2, out.rep, X1, {d}):
        raise PostconditionViolation("the collapse changed the common minor on (C, D)")
    return out


def _keeps_minor(
    A: LabeledMatrix, X1: frozenset[str], X2: frozenset[str],
    A1: LabeledMatrix, Y1: Iterable[str], Y2: Iterable[str],
) -> bool:
    """The literal common-minor check: with A displaying M with X1 on
    its rows and X2 on its columns, C = rows - X1 and D = cols - X2, the
    display A1 has rows C + Y1 and columns D + Y2, and A1 equals A on
    (C, D), label by label.  Then M1/Y1\\Y2 = M/X1\\X2 for the matroid
    M1 of A1.

    Proof.  Contracting a row element deletes its row and deleting a
    column element deletes its column (`ReprMatroid.minor`), so M/X1\\X2
    is represented by A on (C, D) and M1/Y1\\Y2 by A1 on (C, D).  Equal
    encodings are equal entries once A is lifted to A1's field, and a
    matrix over F has the same rank over every extension of F, so the
    two matroids are one.  The check is what the collapses promise: each
    adds a column (`free_extension`) and deletes column elements, in the
    primal or in the dual, whose display is -A^T, and two duals cancel,
    since -(-A^T)^T = A; no step rewrites an entry on (C, D).
    """
    C = frozenset(A.rows) - X1
    D = frozenset(A.cols) - X2
    return (
        frozenset(A1.rows) == C | frozenset(Y1)
        and frozenset(A1.cols) == D | frozenset(Y2)
        and all(A1.enc(r, c) == A.enc(r, c) for r in C for c in D)
    )


def reduce_to_two(
    M: ReprMatroid,
    X1: Iterable[str],
    X2: Iterable[str],
    c: str,
    d: str,
) -> ReprMatroid:
    """Collapse both sides of an isolated minor to fresh elements c, d.

    collapse_side displays M and collapses the loop side X2; the coloop
    side X1 is collapsed on the dual of that display, where rows and
    columns swap.  The result is fragile for the two-element isolated
    minor (coloop c, loop d) by the collapse lemma (`_collapse_side`),
    in the primal and then in the dual, agrees with M off the minor
    (contracting c and deleting d matches contracting X1 and deleting
    X2), and lives over an extension of total degree
    max(1,|X1|) * max(1,|X2|).
    """
    X1f, X2f = frozenset(X1), frozenset(X2)
    if c == d:
        raise LabelCollision("c and d must be distinct")
    for lab in (c, d):
        if lab in M.ground:
            raise LabelCollision(f"label {lab!r} already in the ground set")
    if X1f & X2f:
        raise InvalidArgs(f"sides overlap: {sorted(X1f & X2f)}")
    Ma = collapse_side(M, X1f, X2f, d)
    out = _collapse_side(Ma.dual(), frozenset({d}), X1f, c, None, DEGREE_CAP_DEFAULT).dual()
    # the display collapse_side built is M on the rows it kept
    if not _keeps_minor(M.rebase(Ma.rep.rows).rep, X1f, X2f, out.rep, {c}, {d}):
        raise PostconditionViolation(
            "contracting c and deleting d does not match the original minor"
        )
    dd, rem = divmod(out.field.degree, M.field.degree)
    want = max(1, len(X2f)) * max(1, len(X1f))
    if rem or dd != want:
        raise PostconditionViolation(
            f"extension degree {out.field.degree}/{M.field.degree} != {want}"
        )
    return out


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
    the pair); and the generator theta of the extension lies outside the
    entry field F.  The first two hold exactly when (C, D) is the only
    partition realising the pair.  If it is, C is independent and E - D
    spans, else one move (`fragility.one_move_partition`) gives a second
    partition; as M/C\\D has rank 1, C + {c} is then a basis.  On that
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
    certified {c, d}-fragile; H = rows - {c} + {d}."""
    A1 = M1.rep
    F = A1.field
    F2 = extend_field(F, 2, degree_cap=degree_cap)
    theta = F2.gen
    if is_in_subfield(theta, F):
        raise PostconditionViolation("extension generator lies in the entry field")
    # with the caller's pair fragility this certifies the relaxation
    # (proof in relax_entry)
    M2 = ReprMatroid(A1.lift(F2).set_entry(c, d, theta))
    return M1, M2, frozenset(A1.rows) - {c} | {d}


# ---------------------------------------------------------------------------
# the full pipeline


class StageRecord(Record):
    __slots__ = ("name", "degree_over_input", "matroid", "verdicts", "details")

    def __init__(
        self,
        name: str,
        degree_over_input: int,
        matroid: ReprMatroid,
        verdicts: dict[str, bool],
        details: dict | None = None,
    ):
        self.name = name
        self.degree_over_input = degree_over_input
        self.matroid = matroid
        self.verdicts = verdicts
        self.details = {} if details is None else details


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
        "relaxed",
        "relaxation",
        "hyperplane",
        "conformance",
        "degree_bound",
        "final_degree_over_input",
    )

    def __init__(
        self,
        input_matroid: ReprMatroid,
        minor_matroid: ReprMatroid,
        displayed_basis: frozenset[str],
        coloop_side: frozenset[str],
        loop_side: frozenset[str],
        c_label: str,
        d_label: str,
        stages: list[StageRecord],
        relaxed: ReprMatroid,                 # M1
        relaxation: ReprMatroid,              # M2
        hyperplane: frozenset[str],
        conformance: bool,
        degree_bound: int,                    # 2 k^2 over the input field
        final_degree_over_input: int,
    ):
        self.input_matroid = input_matroid
        self.minor_matroid = minor_matroid
        self.displayed_basis = displayed_basis
        self.coloop_side = coloop_side
        self.loop_side = loop_side
        self.c_label = c_label
        self.d_label = d_label
        self.stages = stages
        self.relaxed = relaxed
        self.relaxation = relaxation
        self.hyperplane = hyperplane
        self.conformance = conformance
        self.degree_bound = degree_bound
        self.final_degree_over_input = final_degree_over_input


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

    The common minor M1/c\\d = M/X1\\X2 is checked literally on the
    zeroed display Az (`_keeps_minor`): X1 is the row set BN of
    `_zero_out`, whose check gives Mz/X1 = M/X1.  So `pipeline` makes no
    `equals` call and is bounded by the partition and degree caps alone.

    After the one partition search no stage reads a rank table.  By the
    zeroing lemma (`_zero_out`) the zeroed display's partition (C, D) is
    the only one realising its isolated minor on E(N), and each collapse
    keeps the set of realising partitions (the collapse lemma,
    `_collapse_side`), so the last display is pair-fragile with its
    (c, d) entry zero, as `_relax_entry` requires.
    """
    k = len(N.ground)
    base_field = M.field
    if conformance and k == 0:
        raise InvalidArgs("conformance mode needs a nonempty minor")
    dcap = max(DEGREE_CAP_DEFAULT, base_field.degree * 2 * k * k)

    # the one partition search; every later stage keeps its display
    Mz, Az = _zero_out(M, N, cap)
    B = frozenset(Az.rows)
    X1 = B & N.ground
    X2 = N.ground - B
    stages = [
        StageRecord(
            name="zero_displayed_block",
            degree_over_input=1,
            matroid=Mz,
            verdicts={
                "unique_partition": True,
                "zero_block_fragile": True,
                "contraction_unchanged": True,
                "isolated_minor_fragile": True,
            },
            details={"displayed_basis": sorted(B)},
        )
    ]

    used = set(M.ground)
    cur = Mz

    def _deg(m: ReprMatroid) -> int:
        q, r = divmod(m.field.degree, base_field.degree)
        if r:
            raise PostconditionViolation("stage field is not a tower over the input field")
        return q

    # the loop side, then the coloop side as the loop side of the dual,
    # where rows and columns swap
    labels = {}
    for name, key, side in (
        ("collapse_loop_side", "d", X2),
        ("collapse_coloop_side", "c", X1),
    ):
        if not conformance and len(side) == 1:
            labels[key] = next(iter(side))
            verdicts, details = {"already_single": True}, {"skipped": True}
        else:
            labels[key] = _fresh_label(key, used)
            used.add(labels[key])
            degree = k if conformance else None
            if key == "d":
                cur = _collapse_side(cur, X1, X2, labels["d"], degree, dcap)
            else:
                cur = _collapse_side(
                    cur.dual(), frozenset({labels["d"]}), X1, labels["c"], degree, dcap
                ).dual()
            verdicts = {
                "unique_partition": True,
                "free_flat_condition": True,
                "collapsed_fragile": True,
            }
            details = {"collapsed": sorted(side)}
        details[key] = labels[key]
        stages.append(StageRecord(name, _deg(cur), cur, verdicts, details))
    c_label, d_label = labels["c"], labels["d"]

    # relax the entry of the display the last stage certified pair-fragile
    M1, M2, H = _relax_entry(cur, c_label, d_label, dcap)
    stages.append(
        StageRecord(
            name="relax_entry",
            degree_over_input=_deg(M1) * 2,
            matroid=M2,
            verdicts={
                "displayed_block_zero": True,
                "pair_fragile_matrix": True,
                "generator_outside_base": True,
                "rank_difference_only_at_pair": True,
                "relaxation": True,
            },
            details={"hyperplane": sorted(H)},
        )
    )

    if not _keeps_minor(Az, X1, X2, M1.rep, {c_label}, {d_label}):
        raise PostconditionViolation(
            "pipeline lost the common minor: contracting the displayed basis "
            "of the input minor disagrees with contracting c and deleting d"
        )
    degs = [s.degree_over_input for s in stages]
    if any(a > b for a, b in zip(degs, degs[1:])):
        raise PostconditionViolation(f"stage degrees not monotone: {degs}")
    final_degree = M2.field.degree // base_field.degree
    bound = 2 * k * k
    if k >= 1 and final_degree > bound:
        raise PostconditionViolation(
            f"final degree {final_degree} above the 2k^2 bound {bound}"
        )
    if conformance and final_degree != bound:
        raise PostconditionViolation(
            f"conformance degree {final_degree} != 2k^2 = {bound}"
        )

    return ReductionTrace(
        input_matroid=M,
        minor_matroid=N,
        displayed_basis=B,
        coloop_side=X1,
        loop_side=X2,
        c_label=c_label,
        d_label=d_label,
        stages=stages,
        relaxed=M1,
        relaxation=M2,
        hyperplane=H,
        conformance=conformance,
        degree_bound=bound,
        final_degree_over_input=final_degree,
    )
