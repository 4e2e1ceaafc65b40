"""Independent oracles for the tests, built on the public API only.

Each reference below decides what a fast path of the package decides,
by the definition or by the exhaustive sweep that the fast path's proof
replaces: rank by elimination or by counting a row space, the realising
partitions by one rank query per subset, X-fragility by two submatrix
ranks per subset, free placement and relaxation by rank sweeps, and
`gen_random` by its rejection loop written out.  The module imports
only names in `matroidfrag.__all__`, calls no private function or
method of the package and reads no private attribute, so a fault in a
fast path cannot hide in its reference; the references that drive the
package's internals on purpose stay beside their tests.  The field
constants are the ones the test files share.
"""

from itertools import combinations, product
from random import Random

from matroidfrag import (
    InstanceFile, LabeledMatrix, MinorSpec, NFragileTask, PipelineTask, RelaxTask, ReprMatroid,
    XFragileTask, extend_field, field_of_order, fragile_partitions, is_N_fragile, isolated,
    make_prime_field, one_move_partition, partitions_of, submatrix_rank, subsets_by_size,
    x_fragile_failure,
)

GF2 = make_prime_field(2)
GF3 = make_prime_field(3)
GF4 = extend_field(GF2, 2)
GF5 = make_prime_field(5)
GF8 = extend_field(GF2, 3)
GF9 = extend_field(GF3, 2)
GF16_OVER_GF4 = extend_field(GF4, 2)


def with_entry(A, r, c, x, field=None):
    """A over `field` (A's own by default; an encoding of a subfield is
    the same element of a tower above it) with the entry at (r, c) set
    to x, built by the checked constructor."""
    return LabeledMatrix(field or A.field, A.rows, A.cols,
                         [[x if (e, f) == (r, c) else A.enc(e, f) for f in A.cols]
                          for e in A.rows])


# -- rank -------------------------------------------------------------------


def textbook_rank(field, vecs):
    """Rank of equal-length vectors of encodings by elimination on one
    coordinate at a time, the first vector nonzero there its pivot: a
    reference that shares no code with the package's rank kernels and
    sifts."""
    vecs = [list(v) for v in vecs]
    rank = 0
    for i in range(len(vecs[0]) if vecs else 0):
        pivot = next((v for v in vecs if v[i]), None)
        if pivot is None:
            continue
        vecs.remove(pivot)
        rank += 1
        lead = field.inv_enc(pivot[i])
        vecs = [[field.sub_enc(x, field.mul_enc(field.mul_enc(v[i], lead), p))
                 for x, p in zip(v, pivot)] for v in vecs]
    return rank


def element_vector(A, e, *, dual=False):
    """The vector of label e in the matroid of [I | A], read by `A.enc`:
    a row label's unit vector, or a column label's column; with dual, in
    the matroid of [A^T | I]: a column label's unit vector, or a row
    label's row."""
    unit = A.cols if dual else A.rows
    if e in unit:
        return [int(f == e) for f in unit]
    return [A.enc(e, f) for f in A.cols] if dual else [A.enc(f, e) for f in A.rows]


def rowspace_rank(A):
    """The rank of the matrix A by counting its row space: over GF(q)
    the rows span q^r distinct vectors exactly when the rank is r."""
    F = A.field
    span = set()
    for coeffs in product(range(F.order), repeat=len(A.rows)):
        vec = [0] * len(A.cols)
        for c, r in zip(coeffs, A.rows):
            if c:
                for j, f in enumerate(A.cols):
                    vec[j] = F.add_enc(vec[j], F.mul_enc(c, A.enc(r, f)))
        span.add(tuple(vec))
    r = 0
    while F.order**r < len(span):
        r += 1
    assert F.order**r == len(span)
    return r


# -- fragility: the per-subset sweeps that the searches replaced ---------------


def fragile_partitions_loop(M, N):
    """Every realising partition, by one rank query of M per X | C."""
    rN = [(X, N.rank(X)) for X in subsets_by_size(N.ground) if X]
    found = set()
    for C, D in partitions_of(M.ground - N.ground):
        rc = M.rank(C)
        if all(M.rank(X | C) - rc == rx for X, rx in rN):
            found.add(MinorSpec(C, D))
    return found


def x_fragile_failure_loop(A, X):
    """x_fragile_failure by two submatrix ranks per nonempty Y."""
    Xf = frozenset(X)
    for r in sorted(Xf & frozenset(A.rows)):
        for c in sorted(Xf & frozenset(A.cols)):
            if A.enc(r, c):
                return ("block_nonzero", (r, c))
    for Y in subsets_by_size(A.labels() - Xf):
        if Y and submatrix_rank(A, Xf | Y) <= submatrix_rank(A, Y):
            return ("rank_not_increased", Y)
    return None


def display_basis_sweep(M, N):
    """Every r-subset of E(M) in lex order, the first basis whose minor
    M/(B - E(N))\\(E(M) - B - E(N)) equals N."""
    r = M.rank()
    for combo in combinations(sorted(M.ground), r):
        B = frozenset(combo)
        if M.rank(B) == r and M.minor(B - N.ground, M.ground - B - N.ground).equals(N):
            return B
    return None


def partition_basis_scan(M, N, part):
    """C, then a greedy scan of E(N) in label order that keeps each
    element raising the rank in M, one rank query per element; the
    result if it is a basis of M."""
    B = set(part.contract)
    r = M.rank(B)
    if r != len(B):
        return None
    for e in sorted(N.ground):
        if M.rank(B | {e}) > r:
            B.add(e)
            r += 1
    return frozenset(B) if r == M.rank() else None


def one_move_neighbours(M, part):
    """The realising partitions one move from `part`, by the full search,
    and all realising partitions."""
    parts = fragile_partitions(M, M.minor(part.contract, part.delete))
    assert part in parts
    return {p for p in parts if len(p.contract ^ part.contract) == 1}, parts


# -- reductions: the subset sweeps that the stages' proofs replace ------------


def free_placement_failure(out, X, e):
    """The first way the column e of `out` fails to lie freely on the
    span of X, or None: the free-placement property as a loop of rank
    queries over every subset of the old elements."""
    Mn = ReprMatroid(out)
    Xf = frozenset(X)
    if Mn.rank(Xf | {e}) != Mn.rank(Xf):
        return "new element does not lie on the span of X"
    for S in subsets_by_size(out.labels() - {e}):
        rs = Mn.rank(S)
        if Mn.rank(S | {e}) == rs and Mn.rank(S | Xf) != rs:
            return f"subset {sorted(S)} spans the new element but not all of X"
    return None


def relax_sweep_failure(A1, A2, c, d):
    """The first subset breaking the rank-difference pattern that
    relax_entry's proof derives, or None: the submatrix ranks of A1 and
    A2 must differ at {c, d} alone."""
    pair = frozenset({c, d})
    for Z in subsets_by_size(A1.labels()):
        differs = submatrix_rank(A1, Z) != submatrix_rank(A2, Z)
        if differs != (Z == pair):
            return f"rank difference pattern wrong at {sorted(Z)}"
    return None


# -- seeded draws -------------------------------------------------------------


def random_matrix(rng, F, max_rows=4, max_cols=4):
    """A matrix over F of at most max_rows x max_cols drawn from rng: a
    density, then each entry drawn from F with that probability, else
    zero."""
    rows = [f"r{i}" for i in range(rng.randint(0, max_rows))]
    cols = [f"c{j}" for j in range(rng.randint(0, max_cols))]
    density = rng.random()
    data = [[rng.randrange(F.order) if rng.random() < density else 0 for _ in cols]
            for _ in rows]
    return LabeledMatrix(F, rows, cols, data)


def drawn_matrix(rng, field, rows, cols, x_rows=0, x_cols=0):
    """The matrix over field with labels rows and cols that one
    `rng.randrange(field.order)` per entry draws, in row-major order,
    its block on the first x_rows rows and x_cols columns then set to
    zero: every entry is drawn either way."""
    data = [[rng.randrange(field.order) for _ in cols] for _ in rows]
    for row in data[:x_rows]:
        row[:x_cols] = [0] * x_cols
    return LabeledMatrix(field, rows, cols, data)


def reference_gen_random(kind, *, seed, q, rows, cols, x_rows=1, x_cols=1,
                         minor_size=2, max_attempts=10000):
    """`gen_random`'s rejection loops by the public API, one randrange
    per entry: each draw builds its ReprMatroid and MinorSpec, is
    rejected by the public `one_move_partition`, and is otherwise
    decided by `is_N_fragile` or by `x_fragile_failure` under a cap of
    every label, so no size is refused, with the random choices in the
    same order.  Returns (instance, rejections), or None when the draws
    run out."""
    field = field_of_order(q)
    row_labels = [f"r{i}" for i in range(rows)]
    col_labels = [f"c{j}" for j in range(cols)]
    rng = Random(seed)
    if kind == "relax":
        x_rows = x_cols = 1

    for attempt in range(max_attempts):
        if kind in ("nfragile", "pipeline"):
            A = drawn_matrix(rng, field, row_labels, col_labels)
            M = ReprMatroid(A)
            keep = frozenset(rng.sample(sorted(M.ground), minor_size))
            outside = sorted(M.ground - keep)
            contract = frozenset(e for e in outside if rng.random() < 0.5)
            part = MinorSpec(contract, frozenset(outside) - contract)
            if one_move_partition(M, part) is not None:
                continue
            N = M.minor(part.contract, part.delete)
            if is_N_fragile(M, N):
                task = NFragileTask(N) if kind == "nfragile" else PipelineTask(N)
                return InstanceFile(field, A, task, seed), attempt
        else:
            A = drawn_matrix(rng, field, row_labels, col_labels, x_rows, x_cols)
            x = frozenset(row_labels[:x_rows]) | frozenset(col_labels[:x_cols])
            part = MinorSpec(row_labels[x_rows:], col_labels[x_cols:])
            if (one_move_partition(ReprMatroid(A), part) is None
                    and x_fragile_failure(A, x, cap=rows + cols) is None):
                task = (XFragileTask(x) if kind == "xfragile"
                        else RelaxTask(part.contract, part.delete))
                return InstanceFile(field, A, task, seed), attempt
    return None


def ladder_draw(n, q):
    """The ladder draw of size n over GF(q): the n x n X-fragile matrix
    with X the first n // 2 row and column labels that
    `reference_gen_random`'s xfragile loop draws from seed 0, and
    N = isolated(X & rows, X)."""
    h = n // 2
    inst, _ = reference_gen_random("xfragile", seed=0, q=q, rows=n, cols=n,
                                   x_rows=h, x_cols=h)
    X = inst.task.x
    return ReprMatroid(inst.matrix), isolated(X & set(inst.matrix.rows), X)


def unzeroed_ladder_draw(n, q):
    """The un-zeroed ladder of size n over GF(q): the ladder draw with
    its zero X block replaced by entries drawn from a second seed-0
    generator, row by row, each nonzero with probability 1/2 and then
    uniform over the nonzero encodings; N is the matroid of that block
    on X, which (rows - X, cols - X) realises."""
    M, _ = ladder_draw(n, q)
    A, h, rng = M.rep, n // 2, Random(0)
    data = [[A.enc(r, c) for c in A.cols] for r in A.rows]
    for row in data[:h]:
        row[:h] = [1 + rng.randrange(q - 1) if rng.random() < 0.5 else 0 for _ in range(h)]
    return (ReprMatroid(LabeledMatrix(A.field, A.rows, A.cols, data)),
            ReprMatroid(LabeledMatrix(A.field, A.rows[:h], A.cols[:h], [r[:h] for r in data[:h]])))
