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

`SCOPES` names the small scopes each fast-path differential runs on, in
full: a `Scope` is every matrix of one shape over one field, with an X
block zeroed or left free (`scope_matrices`), every side of each label,
contracted, deleted or kept (`scope_cases`), and the minors N made from
each cut minor (`minor_variants`).  A test checks every case of its
scopes and pins the exact count of each class of case it reaches, so
no case is sampled and no draw depends on a seed (Jackson's small-scope
hypothesis, *Software Abstractions*, 2006).
"""

from collections import namedtuple
from itertools import combinations, product
from random import Random

from matroidfrag import (
    InstanceFile, LabeledMatrix, MinorSpec, NFragileTask, PipelineTask, RelaxTask, ReprMatroid,
    XFragileTask, extend_field, field_of_order, fragile_partitions, is_N_fragile, is_irreducible,
    isolated, make_prime_field, one_move_partition, partitions_of, submatrix_rank, subsets_by_size,
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


def entries(A):
    """A's encodings, row by row: how a failing case shows its matrices."""
    return [[A.enc(r, c) for c in A.cols] for r in A.rows]


# -- fields -------------------------------------------------------------------


def rabin_irreducible(base, coeffs):
    """Rabin's irreducibility test (SIAM J. Comput. 9, 1980), the
    reference for Ben-Or's test in `is_irreducible`: a monic f of degree
    n over GF(Q), given by its encodings constant term first, is
    irreducible iff x^(Q^n) = x mod f and gcd(x^(Q^(n/r)) - x, f) = 1
    for every prime r dividing n.  Its polynomial arithmetic is written
    out on the field's element operations, on trimmed lists."""
    add, sub, mul = base.add_enc, base.sub_enc, base.mul_enc

    def trim(a):
        while a and not a[-1]:
            a.pop()
        return a

    def mod(a, m):
        # the remainder of a by the nonzero trimmed m
        a, d = list(a), len(m) - 1
        lead = base.inv_enc(m[-1])
        for i in range(len(a) - 1, d - 1, -1):
            c = mul(a[i], lead)
            for j, y in enumerate(m):
                a[i - d + j] = sub(a[i - d + j], mul(c, y))
        return trim(a[:d])

    def mulmod(a, b):
        prod = [0] * (len(a) + len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = add(prod[i + j], mul(x, y))
        return mod(prod, f)

    def frobenius(h):
        # h^Q mod f, by square-and-multiply
        out, e = [1], base.order
        while e:
            if e & 1:
                out = mulmod(out, h)
            h, e = mulmod(h, h), e >> 1
        return out

    def coprime_to_f(h):
        # gcd(h - x, f) = 1, by Euclid
        a, b = list(f), list(h) + [0] * (2 - len(h))
        b[1] = sub(b[1], 1)
        b = trim(b)
        while b:
            a, b = b, mod(a, b)
        return len(a) == 1

    f = list(coeffs)
    n = len(f) - 1
    x = mod([0, 1], f)
    powers = [x]  # x^(Q^i) mod f for i = 0, ..., n
    for _ in range(n):
        powers.append(frobenius(powers[-1]))
    primes = [r for r in range(2, n + 1) if n % r == 0 and all(r % d for d in range(2, r))]
    return powers[n] == x and all(coprime_to_f(powers[n // r]) for r in primes)


def lex_greatest_modulus(base, k):
    """The lex-greatest monic irreducible of degree k >= 2 over `base`,
    comparing coefficient tuples constant term first by encoding, by
    the public `is_irreducible`: a second modulus for every tower step,
    which differs from the canonical (lex-least) one whenever the step
    has two.  The counter m holds (c_0, ..., c_{k-1}) as base-Q digits,
    c_0 most significant, so counting down is the descending lex order."""
    Q = base.order
    for m in range(Q**k - 1, -1, -1):
        coeffs = tuple(m // Q ** (k - 1 - i) % Q for i in range(k)) + (1,)
        if is_irreducible(base, coeffs):
            return coeffs
    raise AssertionError(f"no irreducible of degree {k} over {base!r}")


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
    data = entries(A)
    for row in data[:h]:
        row[:h] = [1 + rng.randrange(q - 1) if rng.random() < 0.5 else 0 for _ in range(h)]
    return (ReprMatroid(LabeledMatrix(A.field, A.rows, A.cols, data)),
            ReprMatroid(LabeledMatrix(A.field, A.rows[:h], A.cols[:h], [r[:h] for r in data[:h]])))


# -- small scopes: every case up to a size --------------------------------------


class Scope(namedtuple("Scope", "field rows cols x_rows x_cols zeroed hows",
                       defaults=(0, 0, True, ()))):
    """Every matrix over `field` with `rows` rows r0, r1, ... and `cols`
    columns c0, c1, ...; X is the first x_rows row labels and the first
    x_cols column labels, and its block is zero in every matrix when
    `zeroed`, else free like every other entry.  `hows` names the minors
    N that `minor_variants` makes from each cut minor of the scope."""

    __slots__ = ()


def scope_matrices(scope):
    """Every matrix of the scope, its free entries in lexicographic
    order: q^(mn - x_rows x_cols) of them when the X block is zeroed,
    else q^(mn)."""
    field, m, n, xr, xc, zeroed, _ = scope
    rows, cols = [f"r{i}" for i in range(m)], [f"c{j}" for j in range(n)]
    free = [(i, j) for i in range(m) for j in range(n) if not (zeroed and i < xr and j < xc)]
    for values in product(range(field.order), repeat=len(free)):
        data = [[0] * n for _ in rows]
        for (i, j), x in zip(free, values):
            data[i][j] = x
        yield LabeledMatrix(field, rows, cols, data)


def scope_x(scope):
    """The scope's X as its row side and its column side."""
    return (frozenset(f"r{i}" for i in range(scope.x_rows)),
            frozenset(f"c{j}" for j in range(scope.x_cols)))


def scope_cases(scope):
    """(M, part) for every matrix of the scope and every side of each of
    its labels, C contracted, D deleted or N kept: 3^(m + n) partitions
    per matrix."""
    for A in scope_matrices(scope):
        M, labels = ReprMatroid(A), A.rows + A.cols
        for sides in product("CDN", repeat=len(labels)):
            yield M, MinorSpec([e for e, s in zip(labels, sides) if s == "C"],
                               [e for e, s in zip(labels, sides) if s == "D"])


def minor_variants(M, part, hows):
    """(how, N) for each N that each of `hows` makes from the cut minor
    N0 = M/C\\D, in this order:
    - "cut": N0;
    - "isolated" and "isolated GF(2)": isolated(B, E(N0)) over M's
      field and over GF(2), with B the first i labels of E(N0) in label
      order, for i = 0, ..., |E(N0)|;
    - "flipped": N0's display with one entry's zero pattern flipped (a
      nonzero entry set to 0, a zero one to 1), for every entry;
    - "scaled": N0's display with one nonzero row or column times 2, for
      every such line: the same matroid, another display;
    - "rebased": N0 re-displayed on each of its bases, in label order;
    - "gf4": N0's display lifted to GF(4) as it is, then with each of its
      nonzero entries set to 2, a root of x^2 + x + 1, in turn."""
    N0 = M.minor(part.contract, part.delete)
    A, field, labels = N0.rep, M.field, sorted(N0.ground)
    data = entries(A)
    cells = [(i, j) for i in range(len(A.rows)) for j in range(len(A.cols))]

    def display(over, edits):
        edited = [row[:] for row in data]
        for i, j, x in edits:
            edited[i][j] = x
        return ReprMatroid(LabeledMatrix(over, A.rows, A.cols, edited))

    for how in hows:
        if how == "cut":
            yield how, N0
        elif how.startswith("isolated"):
            for i in range(len(labels) + 1):
                yield how, isolated(labels[:i], labels, field if how == "isolated" else GF2)
        elif how == "flipped":
            for i, j in cells:
                yield how, display(field, [(i, j, 0 if data[i][j] else 1)])
        elif how == "scaled":
            lines = [[(i, j) for j in range(len(A.cols))] for i in range(len(A.rows))]
            lines += [[(i, j) for i in range(len(A.rows))] for j in range(len(A.cols))]
            for line in lines:
                if any(data[i][j] for i, j in line):
                    yield how, display(field, [(i, j, field.mul_enc(2, data[i][j]))
                                               for i, j in line])
        elif how == "rebased":
            for B in sorted(map(sorted, N0.bases())):
                yield how, N0.rebase(B)
        else:
            yield how, display(GF4, [])
            for i, j in cells:
                if data[i][j]:
                    yield how, display(GF4, [(i, j, 2)])


# Each fast-path differential runs on every case of its scopes, chosen
# against the tier-1 time budget; each test pins the exact count of
# every class of case it reaches.
SCOPES = {
    # fragile_partitions against the table search
    "search": (Scope(GF2, 2, 2, hows=("cut", "isolated", "flipped")),)
    + tuple(Scope(F, m, n, hows=("cut", "isolated", "isolated GF(2)", "flipped"))
            for F, m, n in ((GF3, 2, 1), (GF4, 1, 2), (GF5, 1, 2), (GF3, 0, 2), (GF3, 2, 0))),
    # the leaf's zero-pattern rule against the table search
    "pattern": tuple(Scope(F, m, n, hows=("cut", "scaled", "flipped"))
                     for F, m, n in ((GF3, 2, 2), (GF4, 1, 2), (GF5, 1, 2))),
    # the packed GF(2) search against the generic steps; 2 x 2 misses a
    # contraction that pivots onto a row of N's basis, which 3 x 2 with
    # a zero first row (a coloop) catches
    "packed": (Scope(GF2, 2, 2, hows=("cut", "rebased", "flipped", "isolated", "gf4")),
               Scope(GF2, 3, 2, 1, 2, hows=("cut",))),
    # x_fragile_failure against the tables of the pivoted minors, on
    # every X of every matrix
    "x_fragile": (Scope(GF2, 2, 3), Scope(GF3, 2, 2), Scope(GF4, 2, 2), Scope(GF5, 1, 3),
                  Scope(GF9, 1, 2), Scope(GF2, 0, 2), Scope(GF2, 2, 0)),
    # the one-move witness against the full search
    "one_move": (Scope(GF2, 2, 2), Scope(GF3, 2, 2), Scope(GF4, 1, 2)),
    # the one-move witness against rank queries; the sift and its callers
    "witness": (Scope(GF2, 2, 2), Scope(GF3, 2, 2), Scope(GF4, 1, 2), Scope(GF5, 1, 2),
                Scope(GF8, 1, 2), Scope(GF9, 1, 2), Scope(GF2, 0, 2), Scope(GF3, 2, 0)),
    # rank_table(..., contract=C) against the table of the minor M/C
    "contract": (Scope(GF2, 2, 2), Scope(GF3, 2, 2), Scope(GF4, 1, 2), Scope(GF5, 1, 2),
                 Scope(GF9, 1, 2)),
    # rebase by its own pivots against rank queries, on every subset
    "rebase": (Scope(GF2, 2, 3), Scope(GF3, 2, 2), Scope(GF4, 2, 2), Scope(GF5, 1, 3)),
    # the collapse lemma, on every display with a zero X block, either
    # side of X empty or not over GF(2) and GF(3)
    "collapse": tuple(Scope(F, 2, 2, xr, xc) for F in (GF2, GF3)
                      for xr in range(3) for xc in range(3))
    + (Scope(GF4, 2, 2, 1, 1), Scope(GF5, 2, 2, 1, 1), Scope(GF2, 3, 3, 1, 1),
       Scope(GF3, 2, 3, 1, 2), Scope(GF4, 2, 3, 1, 2)),
    # the zeroing lemma, on every display of the minor on X, either side
    # of X empty or not over GF(2) and GF(3)
    "zeroing": tuple(Scope(F, 2, 2, xr, xc, False) for F in (GF2, GF3)
                     for xr in range(3) for xc in range(3))
    + (Scope(GF4, 2, 2, 1, 1, False), Scope(GF5, 2, 2, 1, 1, False),
       Scope(GF2, 2, 3, 1, 2, False), Scope(GF3, 2, 3, 1, 1, False)),
    # pipeline on every X-fragile matrix, N = isolated(X & rows, X)
    "pipeline": (Scope(GF2, 3, 3, 1, 1), Scope(GF2, 3, 4, 2, 2), Scope(GF3, 3, 3, 1, 1)),
}
