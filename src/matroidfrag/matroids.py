"""Matroids given by a standard representation [I | A] over a finite field.

A ReprMatroid wraps a LabeledMatrix A whose row labels are the
basis-side elements and whose column labels are the rest of the ground
set; the element vector of a row label is the corresponding unit
vector.  A single rank query reduces to |X on the row side| plus the
rank of the complementary block of A, computed by
`matrices.block_rank`, and its result is cached per matroid.  The cache
serves single queries only: no exhaustive sweep goes through it.

Minors are computed by pivoting: contracting a column element first
pivots it onto the row side, deleting a row element first pivots it out
(coloops and loops degenerate to plain drops).  Pivot positions are
chosen as the first nonzero entry in label order, which keeps every
derived representation deterministic.  `rebase` re-displays on a
basis B by the step `_pivot_onto`, which pivots B's elements onto the
rows and so checks B by its own pivots, with no rank query; its mirror
`_pivot_off` pivots B's elements off the rows and so checks that B is
coindependent.  Contracting a column element is `_pivot_onto` on one
element, and deleting a row element is `_pivot_off` on one.  Each step
takes a set `keep` it must not pivot into: the rows of `keep` for a
contraction, its columns for a deletion.  `minor` passes none.  The
partition search `fragility.fragile_partitions` passes N's basis, or
N's cobasis, so that they stay where its root display put them.  Its
nodes are these steps, so the certificate of every input rests on
them.  Duality transposes and negates the representing block.

Two ReprMatroids are `==` when their displays (`rep`) are: the same
field, labels in the same order and entries.  So a pickled or copied
matroid equals its original, and records holding one compare field by
field.  Matroid equality, the same rank function on the same labels,
stays `equals`.

Everything here is exact and exponential where it says it is: `equals`
compares the rank tables of the two matroids (`matrices.rank_table`,
one byte per subset) and `bases` reads one.  Both refuse ground sets of
more than EQUALS_CAP_DEFAULT (16) elements before they start; the cap
cannot be overridden.  They serve `is_relaxation` and the suites'
independent checks; the reduction stages check their contractions on
the entries of their displays instead.
"""

from __future__ import annotations

from typing import Iterable

from .errors import (
    CapExceeded,
    GroundSetMismatch,
    InvalidArgs,
    InvalidMinorSpec,
    UnknownLabel,
)
from .galois import FieldSpec, make_prime_field
from .matrices import LabeledMatrix, block_rank, rank_table
from .records import FrozenRecord

EQUALS_CAP_DEFAULT = 16


class MinorSpec(FrozenRecord):
    """A partition certificate: contract the first set, delete the second."""

    __slots__ = ("contract", "delete")

    def __init__(self, contract: Iterable[str], delete: Iterable[str]):
        contract, delete = frozenset(contract), frozenset(delete)
        if contract & delete:
            raise InvalidMinorSpec(f"contract and delete overlap: {sorted(contract & delete)}")
        object.__setattr__(self, "contract", contract)
        object.__setattr__(self, "delete", delete)

    def validate(self, matroid: "ReprMatroid") -> None:
        outside = (self.contract | self.delete) - matroid.ground
        if outside:
            raise InvalidMinorSpec(f"labels outside the ground set: {sorted(outside)}")


def _pivot_inplace(
    field: FieldSpec,
    rows: list[str],
    cols: list[str],
    data: list[list[int]],
    i: int,
    j: int,
) -> None:
    """Exchange rows[i] and cols[j] in the standard representation.

    Requires data[i][j] != 0.  Rewrites every element vector in the new
    basis (rows - rows[i] + cols[j]) and swaps the two labels.
    """
    mul, sub, neg, inv = field.mul_enc, field.sub_enc, field.neg_enc, field.inv_enc
    ainv = inv(data[i][j])
    old = data[i]
    srow = [mul(x, ainv) for x in old]
    srow[j] = ainv
    for r in range(len(data)):
        if r == i:
            continue
        f = data[r][j]
        if f:
            row = data[r]
            for u in range(len(row)):
                if u != j and srow[u]:
                    row[u] = sub(row[u], mul(f, srow[u]))
            row[j] = neg(mul(f, ainv))
    data[i] = srow
    rows[i], cols[j] = cols[j], rows[i]


class ReprMatroid:
    __slots__ = (
        "rep",
        "ground",
        "_rowset",
        "_colset",
        "_rank_cache",
    )

    def __init__(self, rep: LabeledMatrix):
        self.rep = rep
        self._rowset = frozenset(rep.rows)
        self._colset = frozenset(rep.cols)
        self.ground = self._rowset | self._colset
        self._rank_cache: dict[frozenset[str], int] = {}

    @property
    def field(self) -> FieldSpec:
        return self.rep.field

    @property
    def basis(self) -> frozenset[str]:
        """The displayed basis (the row-label set)."""
        return self._rowset

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ReprMatroid) and self.rep == other.rep

    def __hash__(self) -> int:
        return hash(self.rep)

    def __repr__(self) -> str:
        return (
            f"ReprMatroid(rows={sorted(self._rowset)}, "
            f"cols={sorted(self._colset)}, field={self.field!r})"
        )

    # -- rank ----------------------------------------------------------------

    def rank(self, X: Iterable[str] | None = None) -> int:
        if X is None:
            return len(self.rep.rows)
        Xf = X if isinstance(X, frozenset) else frozenset(X)
        cached = self._rank_cache.get(Xf)
        if cached is not None:
            return cached
        unknown = Xf - self.ground
        if unknown:
            raise UnknownLabel(f"labels not in ground set: {sorted(unknown)}")
        # unit columns of the row-side elements pivot immediately; what
        # remains is the block of A on the other rows against X's columns
        rep = self.rep
        row_pos, col_pos = rep._row_pos, rep._col_pos
        drop = 0
        cols = []
        for v in Xf:
            j = col_pos.get(v)
            if j is None:
                drop |= 1 << row_pos[v]
            else:
                cols.append(j)
        r = len(Xf) - len(cols) + block_rank(rep, drop, cols)
        self._rank_cache[Xf] = r
        return r

    # -- minors ----------------------------------------------------------------

    def minor(
        self,
        contract: Iterable[str] = (),
        delete: Iterable[str] = (),
    ) -> "ReprMatroid":
        spec = MinorSpec(frozenset(contract), frozenset(delete))
        spec.validate(self)
        rows, cols, data = display = self._display_lists()
        field = self.field
        for e in sorted(spec.contract):
            self._contract_one(field, *display, e)
        for e in sorted(spec.delete):
            self._delete_one(field, *display, e)
        return ReprMatroid(LabeledMatrix._of_display(field, rows, cols, data))

    def _display_lists(self) -> tuple[list, list, list]:
        """Fresh lists of the row labels, the column labels and the rows
        of encodings: a display the steps below rewrite in place."""
        return list(self.rep.rows), list(self.rep.cols), [list(r) for r in self.rep._data]

    @staticmethod
    def _contract_one(field, rows, cols, data, e, keep=frozenset()) -> None:
        # pivot a column element onto a row outside keep, then drop e's
        # row; keep lies on the rows, and e's column must be zero or
        # nonzero in a row outside keep
        if e in cols and not ReprMatroid._pivot_onto(field, rows, cols, data, keep | {e}):
            # zero column: contracting a loop is the same as deleting it
            j = cols.index(e)
            del cols[j]
            for row in data:
                del row[j]
            return
        i = rows.index(e)
        del rows[i]
        del data[i]

    @staticmethod
    def _delete_one(field, rows, cols, data, e, keep=frozenset()) -> None:
        # pivot a row element onto a column outside keep, then drop e's
        # column; keep lies on the columns, and e's row must be zero or
        # nonzero in a column outside keep
        if e in rows and not ReprMatroid._pivot_off(field, rows, cols, data, keep | {e}):
            # zero row: e is a coloop, dropping the row deletes it
            i = rows.index(e)
            del rows[i]
            del data[i]
            return
        j = cols.index(e)
        del cols[j]
        for row in data:
            del row[j]

    def minor_of(self, spec: MinorSpec) -> "ReprMatroid":
        return self.minor(spec.contract, spec.delete)

    @staticmethod
    def _pivot_onto(field, rows, cols, data, B: frozenset) -> bool:
        """Pivot each element of B not on the row side onto it, in label
        order, for the least row label outside B whose entry in its
        column is nonzero.  False, part way, when there is no such row:
        that column is then a combination of the unit vectors of B's
        rows, so B is dependent, and an independent B never gets False."""
        for v in sorted(B.difference(rows)):
            j = cols.index(v)
            pick = -1
            best = None
            for i in range(len(rows)):
                if rows[i] not in B and data[i][j] and (best is None or rows[i] < best):
                    pick, best = i, rows[i]
            if pick < 0:
                return False
            _pivot_inplace(field, rows, cols, data, pick, j)
        return True

    @staticmethod
    def _pivot_off(field, rows, cols, data, B: frozenset) -> bool:
        """The mirror of `_pivot_onto`: pivot each element of B on the row
        side off it, in label order, for the least column label outside B
        whose entry in its row is nonzero.  False, part way, when there is
        no such column: that row, negated, is the element's vector in the
        display -A^T of the dual, a combination of the unit vectors of B's
        columns, so B is dependent in M* (codependent), and a
        coindependent B never gets False."""
        for v in sorted(B.intersection(rows)):
            i = rows.index(v)
            pick = -1
            best = None
            for j in range(len(cols)):
                if cols[j] not in B and data[i][j] and (best is None or cols[j] < best):
                    pick, best = j, cols[j]
            if pick < 0:
                return False
            _pivot_inplace(field, rows, cols, data, i, pick)
        return True

    def rebase(self, B: Iterable[str]) -> "ReprMatroid":
        """The same matroid re-displayed with basis B on the row side.
        B is checked by the pivots themselves (`_pivot_onto`): a set of
        r(M) elements is a basis exactly when they all succeed."""
        Bf = frozenset(B)
        unknown = Bf - self.ground
        if unknown:
            raise UnknownLabel(f"labels not in ground set: {sorted(unknown)}")
        rows, cols, data = display = self._display_lists()
        if len(Bf) != len(rows) or not self._pivot_onto(self.field, *display, Bf):
            raise InvalidArgs(f"{sorted(Bf)} is not a basis")
        return ReprMatroid(LabeledMatrix._of_display(self.field, rows, cols, data))

    # -- duality -----------------------------------------------------------------

    def dual(self) -> "ReprMatroid":
        rep = self.rep
        neg = rep.field.neg_enc
        m, n = rep.shape
        data = [[neg(rep._data[i][j]) for i in range(m)] for j in range(n)]
        return ReprMatroid(LabeledMatrix._of_display(rep.field, rep.cols, rep.rows, data))

    # -- matroid predicates ---------------------------------------------------------

    def _table(self, what: str) -> tuple[list[str], bytearray]:
        """The sorted ground set and its rank table, refused above
        EQUALS_CAP_DEFAULT elements before any work."""
        labels = sorted(self.ground)
        if len(labels) > EQUALS_CAP_DEFAULT:
            raise CapExceeded(
                f"|E| = {len(labels)} exceeds {what} cap {EQUALS_CAP_DEFAULT}"
            )
        return labels, rank_table(self.rep, labels)

    def equals(self, other: "ReprMatroid") -> bool:
        """Rank functions agree on every subset of a shared ground set.

        Compares the two rank tables over the sorted ground set, built
        fresh from each representation: no rank query and no rank cache
        is involved."""
        if self.ground != other.ground:
            return False
        labels, table = self._table("equals")
        return table == rank_table(other.rep, labels)

    def bases(self) -> frozenset[frozenset[str]]:
        """Every basis, read off the rank table over the sorted ground
        set: the subsets of full rank and of that size."""
        labels, table = self._table("bases")
        r = self.rank()
        return frozenset(
            frozenset(v for i, v in enumerate(labels) if s >> i & 1)
            for s, t in enumerate(table)
            if t == r and s.bit_count() == r
        )

    def closure(self, X: Iterable[str]) -> frozenset[str]:
        Xf = frozenset(X)
        r = self.rank(Xf)
        return Xf | frozenset(
            e for e in self.ground - Xf if self.rank(Xf | {e}) == r
        )

    def is_circuit(self, X: Iterable[str]) -> bool:
        Xf = frozenset(X)
        if not Xf:
            return False
        k = len(Xf)
        if self.rank(Xf) != k - 1:
            return False
        return all(self.rank(Xf - {e}) == k - 1 for e in Xf)

    def is_circuit_hyperplane(self, H: Iterable[str]) -> bool:
        Hf = frozenset(H)
        return (
            self.is_circuit(Hf)
            and self.rank(Hf) == self.rank() - 1
            and self.closure(Hf) == Hf
        )


def is_relaxation(M1: ReprMatroid, M2: ReprMatroid, H: Iterable[str]) -> bool:
    """True iff M2's bases are exactly M1's bases plus the set H, and H
    is a circuit-hyperplane of M1."""
    if M1.ground != M2.ground:
        raise GroundSetMismatch(
            f"{sorted(M1.ground)} vs {sorted(M2.ground)}"
        )
    Hf = frozenset(H)
    unknown = Hf - M1.ground
    if unknown:
        raise UnknownLabel(f"labels not in ground set: {sorted(unknown)}")
    if not M1.is_circuit_hyperplane(Hf):
        return False
    return M2.bases() == (M1.bases() | {Hf})


def isolated(
    basis: Iterable[str],
    ground: Iterable[str],
    field: FieldSpec | None = None,
) -> ReprMatroid:
    """The matroid on `ground` whose elements are all loops except the
    coloops in `basis`; its unique basis is `basis`.  Rank data does not
    depend on the representing field, so GF(2) is the default."""
    B = frozenset(str(x) for x in basis)
    E = frozenset(str(x) for x in ground)
    if not B <= E:
        raise GroundSetMismatch(f"basis {sorted(B)} not inside ground {sorted(E)}")
    if field is None:
        field = make_prime_field(2)
    rows = sorted(B)
    cols = sorted(E - B)
    zero = [[0] * len(cols) for _ in rows]
    return ReprMatroid(LabeledMatrix(field, rows, cols, zero))


def isolated_rn(r: int, n: int, field: FieldSpec | None = None) -> ReprMatroid:
    """Numeric shorthand: coloops 1..r, loops r+1..n."""
    if not 0 <= r <= n:
        raise InvalidArgs(f"need 0 <= r <= n, got r={r}, n={n}")
    labels = [str(i) for i in range(1, n + 1)]
    return isolated(labels[:r], labels, field)
