"""Matrices over a FieldSpec with opaque string labels on both axes.

Row and column label sets must be disjoint: a LabeledMatrix doubles as
the standard representation [I | A] of a matroid whose basis-side
elements are the row labels, and in that reading every label names one
matroid element.  Entries are stored as integer encodings, and `enc`
reads one back by its labels.

Rank is exact Gaussian elimination in insertion form: each vector in
turn is reduced by the pivots kept so far, each clearing its leading
coordinate, and a nonzero one among the first k becomes the next pivot
(XOR on packed ints over GF(2), field operations on lists of encodings
elsewhere).  It computes the same reduced vectors, in the same order, as
letting each pivot reduce every vector after it, and it allocates no
list per pivot.

Element vectors go through `_sift`, one plain loop per field kind
(`_sift_gf2`, `_sift_enc`), on a display given as its position maps and
its rows.  The loop reads a label's vector off the display when it
reaches the label (a unit vector, a column, or in the dual the row
itself, each packed into an int over GF(2)), so a sift stopped at its
first zero vector builds no vector after it.  It has three callers: the
one-move witness `fragility._one_move`, one sift in the matroid and one
in its dual, each stopped at its first zero vector, which the generator
runs on drawn rows before any matrix is built;
`fragility.partition_basis`, which reads a minor's least basis off one;
and `rank_table`, which sifts the contracted set's vectors and then the
labels' once to set up.

`block_rank` answers single queries, the rank of A with some rows
dropped, on some columns; matrix rank, `submatrix_rank` and the matroid
rank oracle call it.  It cuts the block from the stored rows, the kept
rows on the query's columns, and counts with its own loops: `rank_gf2`
on the block's rows packed into ints over GF(2), `_rank_generic` on
lists of encodings elsewhere.  `rank_table` answers complete sweeps,
the rank of every subset of a label list in the matroid or a
contraction of it.  Its depth-first walk keeps the batch step
(`_reduce_gf2`, `_generic_reducer`): a child reduces its parent's list
of vectors by its one new pivot, and that list is shared by the child's
whole subtree, where a sift would reduce each vector again by every
pivot of the node.  Every exhaustive certificate in the package reads
such a table.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import FieldMismatch, InvalidArgs, LabelCollision, UnknownLabel
from .galois import FieldElem, FieldSpec


def _check_labels(rows: Sequence[str], cols: Sequence[str]) -> None:
    if len(set(rows)) != len(rows):
        raise LabelCollision(f"duplicate row label in {rows}")
    if len(set(cols)) != len(cols):
        raise LabelCollision(f"duplicate column label in {cols}")
    clash = set(rows) & set(cols)
    if clash:
        raise LabelCollision(f"labels on both sides: {sorted(clash)}")


def _encoding(field: FieldSpec, row: str, col: str, v: "FieldElem | int") -> int:
    """The encoding of the entry at (row, col): a FieldElem of `field`,
    or an int encoding in range.  A bool is refused, as JSON's true and
    false are not numbers, so that every matrix round-trips through its
    JSON.  A refusal names the entry by its labels."""
    if isinstance(v, FieldElem):
        if v.spec != field:
            raise FieldMismatch(f"entry ({row!r}, {col!r}): an element of {v.spec!r} "
                                f"in a {field!r} matrix")
        return v.enc
    if isinstance(v, bool) or not isinstance(v, int):
        raise InvalidArgs(f"entry ({row!r}, {col!r}): {v!r} is neither FieldElem nor encoding")
    if not 0 <= v < field.order:
        raise InvalidArgs(f"entry ({row!r}, {col!r}): encoding {v} out of range for {field!r}")
    return v


class LabeledMatrix:
    __slots__ = ("field", "rows", "cols", "_data", "_row_pos", "_col_pos")

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
                raise InvalidArgs(f"row {r!r}: expected {len(cols)} entries, got {len(entry_row)}")
            data.append(tuple(_encoding(field, r, c, v) for c, v in zip(cols, entry_row)))
        self._set(field, rows, cols, tuple(data))

    def _set(self, field: FieldSpec, rows: tuple, cols: tuple, data: tuple) -> None:
        self.field = field
        self.rows = rows
        self.cols = cols
        self._data = data
        self._row_pos = {r: i for i, r in enumerate(rows)}
        self._col_pos = {c: j for j, c in enumerate(cols)}

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

    @classmethod
    def _without_columns(cls, F, rows, cols, data, drop) -> "LabeledMatrix":
        """`_of_display` over the field F on the columns whose labels are
        not in `drop`: a display with some of its columns cut out."""
        js = [j for j, c in enumerate(cols) if c not in drop]
        return cls._of_display(F, rows, [cols[j] for j in js], [[x[j] for j in js] for x in data])

    # -- access -----------------------------------------------------------

    def enc(self, row: str, col: str) -> int:
        try:
            return self._data[self._row_pos[row]][self._col_pos[col]]
        except KeyError as e:
            raise UnknownLabel(f"no entry at ({row!r}, {col!r})") from e

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

    def transpose(self) -> "LabeledMatrix":
        """A^T: the columns, read off by `zip`, become rows.  The labels
        and encodings are this matrix's, already checked, so nothing is
        re-validated."""
        data = list(zip(*self._data)) if self.rows else [()] * len(self.cols)
        return LabeledMatrix._of_display(self.field, self.cols, self.rows, data)


def _gf2_row(row: Sequence[int]) -> int:
    """A row of a GF(2) matrix packed into an int: bit j is entry j."""
    packed = 0
    for x in reversed(row):
        packed = packed << 1 | x
    return packed


def block_rank(A: LabeledMatrix, drop: int, cols: Iterable[int]) -> int:
    """Rank of A without the rows whose bits are set in `drop`, on the
    columns at positions `cols`.  The rank kernel for single queries:
    the block is cut from the stored rows, and over GF(2) each of its
    rows is packed into an int (`_gf2_row`) for `rank_gf2`."""
    cols = list(cols)
    block = [[row[j] for j in cols] for i, row in enumerate(A._data) if not drop >> i & 1]
    if A.field.order == 2:
        return rank_gf2(map(_gf2_row, block))
    return _rank_generic(A.field, block)


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

    One sift (`_sift`) of S's vectors and then the labels', with only
    S's vectors as pivots, reads each vector off the display and reduces
    each label's vector by S's pivots; a row's unit vector only clears
    its coordinate.  Reducing adds
    multiples of S's vectors, so W's reduced vectors and S span W | S.
    Each pivot, and every reduced vector, is zero at the leading
    coordinates of the pivots before it; so a nonzero combination of
    pivots is nonzero at the leading coordinate of its first pivot,
    where W's reduced vectors all vanish.  Hence r(W | S) = r(S) + the
    rank of W's reduced vectors.

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
    field = A.field
    vecs = _sift(field, A._row_pos, A._col_pos, A._data, every, len(S))
    full = len(A.rows) - sum(1 for w in vecs[:len(S)] if w)
    vecs = vecs[len(S):]
    reduce = _reduce_gf2 if field.order == 2 else _generic_reducer(field)

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
    del walk  # its cell refers to it: a cycle that reference counting cannot free
    return table


def _sift(field: FieldSpec, row_pos: dict, col_pos: dict, data: Sequence, labels: Sequence[str],
          k: int, *, dual: bool = False, stop: bool = False) -> list:
    """The elimination of the element vectors of `labels` (checked by
    the caller) in the matroid of the display [I | A], given as its
    position maps and its rows of encodings, in insertion form: each
    vector in turn is reduced by the pivots kept so far, in the order
    they were kept, each clearing its leading coordinate, and a nonzero
    one among the first k is kept as the next pivot.  Returns the
    reduced vectors in label order; with `stop`, it returns as soon as
    one is zero, which is then the last.

    A label's vector is read off the display when the loop reaches it,
    over A's row coordinates: a row label's is its unit vector, a column
    label's its column of A.  With `dual`, it is the vector in the dual,
    displayed by -A^T, over A's column coordinates: a column label's is
    its unit vector, a row label's its row of A, as no span depends on
    the sign.  Over GF(2) (`_sift_gf2`) a vector is an int with bit i
    for coordinate i, reduced by XOR; elsewhere (`_sift_enc`) a list of
    encodings, and () when it is zero."""
    unit, other = (col_pos, row_pos) if dual else (row_pos, col_pos)
    if field.order == 2:
        return _sift_gf2(unit, other, data, labels, k, dual, stop)
    return _sift_enc(field, unit, other, data, labels, k, dual, stop)


def _sift_gf2(unit: dict, other: dict, data: Sequence, labels: Sequence[str], k: int,
              dual: bool, stop: bool) -> list:
    out, pivots = [], []
    for i, e in enumerate(labels):
        if e in unit:
            w = 1 << unit[e]
        elif dual:
            w = _gf2_row(data[other[e]])
        else:
            j, w = other[e], 0
            for row in reversed(data):
                w = w << 1 | row[j]
        for top, p in pivots:
            if w & top:
                w ^= p
        if w and i < k:
            pivots.append((1 << w.bit_length() - 1, w))
        out.append(w)
        if stop and not w:
            return out
    return out


def _sift_enc(field: FieldSpec, unit: dict, other: dict, data: Sequence, labels: Sequence[str],
              k: int, dual: bool, stop: bool) -> list:
    mul, sub, inv = field.mul_enc, field.sub_enc, field.inv_enc
    out, pivots = [], []
    for i, e in enumerate(labels):
        if e in unit:
            w = [0] * len(unit)
            w[unit[e]] = 1
        elif dual:
            w = list(data[other[e]])
        else:
            j = other[e]
            w = [row[j] for row in data]
        for h, lead, support in pivots:
            if w[h]:
                f = mul(w[h], lead)
                for j, x in support:
                    w[j] = sub(w[j], mul(f, x))
        if not any(w):
            w = ()
        elif i < k:
            support = [(j, x) for j, x in enumerate(w) if x]
            pivots.append((support[0][0], inv(support[0][1]), support))
        out.append(w)
        if stop and not w:
            return out
    return out


def _reduce_gf2(pivot: int, rest: list) -> list:
    """The batch step of `rank_table`'s walk over GF(2), on ints with
    bit i for coordinate i: `rest` with the leading coordinate of the
    nonzero `pivot` cleared."""
    h = pivot.bit_length() - 1
    return [w ^ pivot if w >> h & 1 else w for w in rest]


def _generic_reducer(field: FieldSpec):
    """The batch step of `rank_table`'s walk over `field`:
    `reduce(pivot, rest)` is `rest` with the leading coordinate of the
    nonzero `pivot` cleared from each vector.  A vector is a sequence of
    encodings, and () when it is zero."""
    mul, sub, inv = field.mul_enc, field.sub_enc, field.inv_enc

    def reduce(pivot: Sequence[int], rest: list) -> list:
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


def rank_gf2(masks: Iterable[int]) -> int:
    """Rank of GF(2) vectors packed as ints: each is reduced by the
    pivots kept so far, as in `_sift_gf2`, and kept if it is nonzero."""
    pivots = []
    for w in masks:
        for top, p in pivots:
            if w & top:
                w ^= p
        if w:
            pivots.append((1 << w.bit_length() - 1, w))
    return len(pivots)


def _rank_generic(field: FieldSpec, vectors: Iterable[Sequence[int]]) -> int:
    """Rank of vectors of encodings over `field`: each is reduced by the
    pivots kept so far, as in `_sift_enc`, and kept if it is nonzero."""
    mul, sub, inv = field.mul_enc, field.sub_enc, field.inv_enc
    pivots = []
    for w in vectors:
        w = list(w)
        for h, lead, support in pivots:
            if w[h]:
                f = mul(w[h], lead)
                for j, x in support:
                    w[j] = sub(w[j], mul(f, x))
        support = [(j, x) for j, x in enumerate(w) if x]
        if support:
            pivots.append((support[0][0], inv(support[0][1]), support))
    return len(pivots)
