"""Matrices over a FieldSpec with opaque string labels on both axes.

Row and column label sets must be disjoint: a LabeledMatrix doubles as
the standard representation [I | A] of a matroid whose basis-side
elements are the row labels, and in that reading every label names one
matroid element.  Entries are stored as integer encodings; the public
accessor hands back FieldElem values.

Rank is exact Gaussian elimination by one step per field kind: a
pivot vector clears its leading coordinate from the vectors after it
(XOR on packed ints over GF(2), field operations on tuples of
encodings elsewhere).  The step has four callers.  `block_rank` answers
single queries, the rank of A with some rows dropped, on some columns:
each nonzero vector in turn becomes a pivot.  Matrix rank,
`submatrix_rank` and the matroid rank oracle call it.  `rank_table`
answers complete sweeps: the rank of every subset of a label list, in
the matroid or a contraction of it, in one depth-first walk that
reduces by the step at each node.
Every exhaustive certificate in the package reads such a table.  The
one-move witness `fragility.one_move_partition` reads closures off one
elimination of element vectors in the matroid and one in its dual
(`_element_vectors`), and `fragility.partition_basis` reads a minor's
least basis off one.  Over GF(2) each column is packed into an int
once per matrix (rows are dropped by masking), and a row of A, a
vector of the dual, when it is needed.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import FieldMismatch, InvalidArgs, LabelCollision, NotASubfield, UnknownLabel
from .galois import FieldElem, FieldSpec, is_tower_prefix


def _check_labels(rows: Sequence[str], cols: Sequence[str]) -> None:
    if len(set(rows)) != len(rows):
        raise LabelCollision(f"duplicate row label in {rows}")
    if len(set(cols)) != len(cols):
        raise LabelCollision(f"duplicate column label in {cols}")
    clash = set(rows) & set(cols)
    if clash:
        raise LabelCollision(f"labels on both sides: {sorted(clash)}")


def _encoding(field: FieldSpec, v: "FieldElem | int") -> int:
    """The encoding of an entry: a FieldElem of `field`, or an int
    encoding in range.  A bool is refused, as the instance parser
    refuses it, so that every matrix round-trips through its JSON."""
    if isinstance(v, FieldElem):
        if v.spec != field:
            raise FieldMismatch(f"entry from {v.spec!r} in {field!r} matrix")
        return v.enc
    if isinstance(v, bool) or not isinstance(v, int):
        raise InvalidArgs(f"entry {v!r} is neither FieldElem nor encoding")
    if not 0 <= v < field.order:
        raise InvalidArgs(f"encoding {v} out of range for {field!r}")
    return v


class LabeledMatrix:
    __slots__ = ("field", "rows", "cols", "_data", "_row_pos", "_col_pos", "_gf2_cols")

    def __init__(
        self,
        field: FieldSpec,
        rows: Sequence[str],
        cols: Sequence[str],
        entries: Sequence[Sequence["FieldElem | int"]],
    ):
        rows = tuple(str(r) for r in rows)
        cols = tuple(str(c) for c in cols)
        _check_labels(rows, cols)
        if len(entries) != len(rows):
            raise InvalidArgs(f"expected {len(rows)} entry rows, got {len(entries)}")
        data = []
        for r, entry_row in zip(rows, entries):
            if len(entry_row) != len(cols):
                raise InvalidArgs(f"row {r!r}: expected {len(cols)} entries")
            data.append(tuple(_encoding(field, v) for v in entry_row))
        self._set(field, rows, cols, tuple(data))

    def _set(self, field: FieldSpec, rows: tuple, cols: tuple, data: tuple) -> None:
        self.field = field
        self.rows = rows
        self.cols = cols
        self._data = data
        self._row_pos = {r: i for i, r in enumerate(rows)}
        self._col_pos = {c: j for j, c in enumerate(cols)}
        self._gf2_cols: tuple[int, ...] | None = None

    @classmethod
    def _of_display(
        cls, field: FieldSpec, rows: Sequence[str], cols: Sequence[str], data: Sequence
    ) -> "LabeledMatrix":
        """A matrix from labels and encodings taken as they are, unchecked:
        those of a checked matrix, pivoted, lifted or rearranged (the
        lists `ReprMatroid` pivots in place), or drawn in range."""
        A = cls.__new__(cls)
        A._set(field, tuple(rows), tuple(cols), tuple(map(tuple, data)))
        return A

    # -- access -----------------------------------------------------------

    def entry(self, row: str, col: str) -> FieldElem:
        return FieldElem(self.field, self.enc(row, col))

    def enc(self, row: str, col: str) -> int:
        try:
            return self._data[self._row_pos[row]][self._col_pos[col]]
        except KeyError as e:
            raise UnknownLabel(f"no entry at ({row!r}, {col!r})") from e

    def column_encs(self, col: str) -> tuple[int, ...]:
        try:
            j = self._col_pos[col]
        except KeyError as e:
            raise UnknownLabel(f"no column {col!r}") from e
        return tuple(row[j] for row in self._data)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    def labels(self) -> frozenset[str]:
        return frozenset(self.rows) | frozenset(self.cols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LabeledMatrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self._data))

    def __repr__(self) -> str:
        return f"LabeledMatrix({self.field!r}, rows={list(self.rows)}, cols={list(self.cols)})"

    # -- structural operations ---------------------------------------------

    def submatrix(self, labels: Iterable[str]) -> "LabeledMatrix":
        """Rows and columns restricted to the given label set, original
        ordering preserved on both axes."""
        want = set(labels)
        unknown = want - set(self.rows) - set(self.cols)
        if unknown:
            raise UnknownLabel(f"labels not in matrix: {sorted(unknown)}")
        keep_rows = [r for r in self.rows if r in want]
        keep_cols = [c for c in self.cols if c in want]
        return self.submatrix_sides(keep_rows, keep_cols)

    def submatrix_sides(self, rows: Sequence[str], cols: Sequence[str]) -> "LabeledMatrix":
        unknown = [r for r in rows if r not in self._row_pos]
        unknown += [c for c in cols if c not in self._col_pos]
        if unknown:
            raise UnknownLabel(f"labels not on their side of the matrix: {unknown}")
        ri = [self._row_pos[r] for r in rows]
        ci = [self._col_pos[c] for c in cols]
        data = [[self._data[i][j] for j in ci] for i in ri]
        return LabeledMatrix(self.field, rows, cols, data)

    def transpose(self) -> "LabeledMatrix":
        data = [
            [self._data[i][j] for i in range(len(self.rows))]
            for j in range(len(self.cols))
        ]
        return LabeledMatrix(self.field, self.cols, self.rows, data)

    def lift(self, target: FieldSpec) -> "LabeledMatrix":
        """Reinterpret every entry in a taller tower.  Encodings of
        subfield elements are unchanged by the canonical embedding, so
        the stored data moves verbatim."""
        if not is_tower_prefix(self.field, target):
            raise NotASubfield(f"{self.field!r} is not a tower prefix of {target!r}")
        return LabeledMatrix._of_display(target, self.rows, self.cols, self._data)

    def set_entry(self, row: str, col: str, value: "FieldElem | int") -> "LabeledMatrix":
        enc = _encoding(self.field, value)
        if row not in self._row_pos:
            raise UnknownLabel(f"no row {row!r}")
        if col not in self._col_pos:
            raise UnknownLabel(f"no column {col!r}")
        i, j = self._row_pos[row], self._col_pos[col]
        data = [list(r) for r in self._data]
        data[i][j] = enc
        return LabeledMatrix._of_display(self.field, self.rows, self.cols, data)

    def with_column(self, label: str, encs: Sequence[int]) -> "LabeledMatrix":
        label = str(label)
        if label in self._row_pos or label in self._col_pos:
            raise LabelCollision(f"label {label!r} already used")
        if len(encs) != len(self.rows):
            raise InvalidArgs("column length does not match row count")
        encs = [_encoding(self.field, e) for e in encs]
        data = [r + (e,) for r, e in zip(self._data, encs)]
        return LabeledMatrix._of_display(self.field, self.rows, self.cols + (label,), data)

    def drop_columns(self, labels: Iterable[str]) -> "LabeledMatrix":
        gone = set(labels)
        unknown = gone - set(self.cols)
        if unknown:
            raise UnknownLabel(f"no columns {sorted(unknown)}")
        keep = [c for c in self.cols if c not in gone]
        return self.submatrix_sides(list(self.rows), keep)

    # -- rank ---------------------------------------------------------------

    def rank(self) -> int:
        return block_rank(self, 0, range(len(self.cols)))


def _gf2_columns(A: LabeledMatrix) -> tuple[int, ...]:
    """The columns of a GF(2) matrix packed once per matrix: column j
    has bit i set iff A[i][j] is one."""
    packed = A._gf2_cols
    if packed is None:
        cols = [0] * len(A.cols)
        bit = 1
        for row in A._data:
            for j, x in enumerate(row):
                if x:
                    cols[j] |= bit
            bit <<= 1
        packed = A._gf2_cols = tuple(cols)
    return packed


def _gf2_row(row: Sequence[int]) -> int:
    """A row of a GF(2) matrix packed into an int: bit j is entry j."""
    packed = 0
    for x in reversed(row):
        packed = packed << 1 | x
    return packed


def block_rank(A: LabeledMatrix, drop: int, cols: Iterable[int]) -> int:
    """Rank of A without the rows whose bits are set in `drop`, on the
    columns at positions `cols`.  The rank kernel for single queries."""
    if A.field.order == 2:
        packed = A._gf2_cols or _gf2_columns(A)
        keep = ~drop
        return rank_gf2(packed[j] & keep for j in cols)
    cols = list(cols)
    rows = [row for i, row in enumerate(A._data) if not drop >> i & 1]
    return _rank_generic(A.field, [[row[j] for j in cols] for row in rows])


def submatrix_rank(A: LabeledMatrix, labels: Iterable[str]) -> int:
    """rank(A[X]) without materialising the submatrix.  The certifiers
    read rank tables; the suites re-check their results subset by
    subset with this query, independently of the tables."""
    want = frozenset(labels)
    unknown = want - A.labels()
    if unknown:
        raise UnknownLabel(f"labels not in matrix: {sorted(unknown)}")
    drop = sum(1 << i for i, r in enumerate(A.rows) if r not in want)
    return block_rank(A, drop, [j for j, c in enumerate(A.cols) if c in want])


def rank_table(
    A: LabeledMatrix, labels: Sequence[str], *, contract: Iterable[str] = ()
) -> bytearray:
    """The rank table of M/S, with M the matroid of [I | A] and S =
    `contract`: r(W | S) - r(S) for every subset W of `labels`, as a
    bytearray indexed by bitmask: bit i stands for labels[i].

    Each nonzero vector of S in turn becomes a pivot that reduces the
    vectors after it, the labels' included (`_eliminate`); a row's unit
    vector only clears its coordinate.  Reducing adds multiples of S's
    vectors, so W's reduced vectors and S span W | S.  Each pivot, and
    every reduced vector, is zero at the leading coordinates of the
    pivots before it; so a nonzero combination of pivots is nonzero at
    the leading coordinate of its first pivot, where W's reduced vectors
    all vanish.  Hence r(W | S) = r(S) + the rank of W's reduced vectors.

    One depth-first walk fills the table.  A node is an independent
    subset; it holds the vectors of the labels after its highest bit,
    reduced modulo its span (a row label's vector is its unit vector).
    A child takes one more label: if its reduced vector is nonzero the
    child is independent, and that vector becomes a pivot the child's
    remaining vectors are reduced by.  If it is zero the label lies in
    the node's span, so every superset ranks as it does without the
    label, and the child's subtree is copied from the node's subtree
    over the later labels, which the walk has filled already since it
    takes children from the last label down.  A child of full rank
    r(E) - r(S) fills its subtree with that rank.  So the walk visits
    only the independent sets that are not spanning; every other entry
    is written by a slice.
    """
    n = len(labels)
    S = list(contract)
    every = S + list(labels)
    if len(set(every)) != len(every):
        raise InvalidArgs(f"a label repeats in contract {S} + labels {list(labels)}")
    unknown = [v for v in every if v not in A._row_pos and v not in A._col_pos]
    if unknown:
        raise UnknownLabel(f"labels not in matrix: {sorted(unknown)}")
    vecs, reduce = _element_vectors(A, every)
    full = len(A.rows) - _eliminate(reduce, vecs, len(S))
    vecs = vecs[len(S):]

    table = bytearray(1 << n)

    def walk(mask: int, r: int, lo: int, red: list) -> None:
        # red[j - lo] is the vector of labels[j], reduced modulo the span
        # of mask; every bit of mask lies below lo, so for x < 2^(j+1),
        # table[x::step] is x joined with each subset of the labels after j
        for j in range(n - 1, lo - 1, -1):
            child, step = mask | 1 << j, 1 << (j + 1)
            v = red[j - lo]
            if not v:
                table[child::step] = table[mask::step]
            elif r + 1 == full:
                table[child::step] = bytes((full,)) * (1 << (n - j - 1))
            else:
                table[child] = r + 1
                walk(child, r + 1, j + 1, reduce(v, red[j - lo + 1 :]))

    walk(0, 0, 0, vecs)
    return table


def _element_vectors(A: LabeledMatrix, labels: Sequence[str], *, dual: bool = False):
    """The vectors of `labels` (checked by the caller) in the matroid of
    [I | A], over A's row coordinates, and the elimination step that
    reduces them: a row label's vector is its unit vector, a column
    label's its column of A.  With `dual`, the vectors in the dual,
    displayed by -A^T, over A's column coordinates: a column label's is
    its unit vector, a row label's its row of A, as no span depends on
    the sign.  Over GF(2) a vector is an int with bit i for coordinate i,
    elsewhere a tuple of encodings, and () when it is zero."""
    unit, other = (A._col_pos, A._row_pos) if dual else (A._row_pos, A._col_pos)
    if A.field.order == 2:
        if dual:
            vecs = [1 << unit[v] if v in unit else _gf2_row(A._data[other[v]])
                    for v in labels]
        else:
            packed = _gf2_columns(A)
            vecs = [1 << unit[v] if v in unit else packed[other[v]] for v in labels]
        return vecs, _reduce_gf2
    vecs = _nonzero_or_empty(
        tuple(int(i == unit[v]) for i in range(len(unit))) if v in unit
        else A._data[other[v]] if dual else A.column_encs(v)
        for v in labels
    )
    return vecs, _generic_reducer(A.field)


def _reduce_gf2(pivot: int, rest: list) -> list:
    """The elimination step over GF(2), on ints with bit i for coordinate
    i: `rest` with the leading coordinate of the nonzero `pivot` cleared."""
    h = pivot.bit_length() - 1
    return [w ^ pivot if w >> h & 1 else w for w in rest]


def _generic_reducer(field: FieldSpec):
    """The elimination step over `field`: `reduce(pivot, rest)` is `rest`
    with the leading coordinate of the nonzero `pivot` cleared from each
    vector.  A vector is a tuple of encodings, and () when it is zero."""
    mul, sub, inv = field.mul_enc, field.sub_enc, field.inv_enc

    def reduce(pivot: tuple, rest: list) -> list:
        support = [(i, x) for i, x in enumerate(pivot) if x]
        h, lead = support[0]
        lead = inv(lead)
        out = []
        for w in rest:
            if w and w[h]:
                f = mul(w[h], lead)
                w = list(w)
                for i, x in support:
                    w[i] = sub(w[i], mul(f, x))
                w = tuple(w) if any(w) else ()
            out.append(w)
        return out

    return reduce


def _nonzero_or_empty(vectors: Iterable[Sequence[int]]) -> list:
    return [tuple(v) if any(v) else () for v in vectors]


def _eliminate(reduce, vecs: list, stop: int | None = None) -> int:
    """Rank of `vecs[:stop]`, in place: each nonzero vector there in turn
    becomes a pivot, and every vector after it, up to the end of the
    list, is reduced by it."""
    rank = 0
    for i in range(len(vecs) if stop is None else stop):
        if vecs[i]:
            rank += 1
            vecs[i + 1 :] = reduce(vecs[i], vecs[i + 1 :])
    return rank


def rank_gf2(masks: Iterable[int]) -> int:
    """Rank of GF(2) vectors packed as ints."""
    return _eliminate(_reduce_gf2, list(masks))


def _rank_generic(field: FieldSpec, vectors: Iterable[Sequence[int]]) -> int:
    """Rank of vectors of encodings over `field`."""
    return _eliminate(_generic_reducer(field), _nonzero_or_empty(vectors))
