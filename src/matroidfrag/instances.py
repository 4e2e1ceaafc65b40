"""JSON instance files and seeded random instance generation.

An instance file is a JSON object with a field block, a matrix block
over that field, an optional task block, and an optional seed:

    {"field": {"p": 2, "tower": [{"deg": 2, "modulus": [1, 1, 1]}]},
     "matrix": {"rows": ["r0"], "cols": ["c0", "c1"], "entries": [[0, 1]]},
     "task": {"kind": "xfragile", "x": ["r0", "c0"]},
     "seed": 7}

Modulus coefficients are integer encodings in the field below the
extension step, constant term first, all deg+1 of them (so the leading
coefficient, always 1, is the last entry).
Matrix entries are integer encodings, row-major.  The matrix is read as
a standard representation: row labels are a basis, the ground set is
rows + cols.  Task kinds are "xfragile" {x}, "nfragile" {minor},
"pipeline" {minor}, and "relax" {contract, delete}.  Each kind is one
task class, and its block's keys are "kind" and the class's slots, read
and written in slot order: a minor is another matrix block over the
same field, any other slot a set of labels, written sorted.  Parsing
reports the JSON path of the first offending value, so a bad entry in a
large file is located exactly.

`gen_random` draws seeded instances by rejection sampling in two
loops: one cuts a minor out of a random matroid ("nfragile",
"pipeline"), the other zeroes a block X ("xfragile", and "relax" with
X = {r0, c0}).  Both know one realising partition of every draw, so
most rejections are proved by the two eliminations of
`fragility.one_move_partition`, run on the drawn matrix alone; a draw
is accepted only by the full partition search, or by
`fragility.x_fragile_failure`, which decides the same.
"""

from __future__ import annotations

import json
import random
import sys
from itertools import islice, repeat
from typing import Iterable, NamedTuple, Union

from .errors import (
    CapExceeded,
    DegreeCap,
    Exhausted,
    FieldMismatch,
    InvalidArgs,
    InvalidField,
    LabelCollision,
    MalformedJson,
    SchemaViolation,
    UnknownLabel,
)
from .fragility import PARTITION_CAP_DEFAULT, _one_move, is_N_fragile, x_fragile_failure
from .galois import FieldSpec, field_from_tower, field_of_order
from .matrices import LabeledMatrix
from .matroids import MinorSpec, ReprMatroid
from .records import FrozenRecord


class XFragileTask(FrozenRecord):
    kind = "xfragile"
    __slots__ = ("x",)

    def __init__(self, x: Iterable[str]):
        super().__init__(frozenset(x))


class NFragileTask(FrozenRecord):
    kind = "nfragile"
    __slots__ = ("minor",)


class RelaxTask(FrozenRecord):
    kind = "relax"
    __slots__ = ("contract", "delete")

    def __init__(self, contract: Iterable[str], delete: Iterable[str]):
        # frozensets, and an overlap refused, as a partition certificate's
        spec = MinorSpec(contract, delete)
        super().__init__(spec.contract, spec.delete)


class PipelineTask(FrozenRecord):
    kind = "pipeline"
    __slots__ = ("minor",)


Task = Union[XFragileTask, NFragileTask, RelaxTask, PipelineTask]
# a task block is {"kind": cls.kind} plus one key per slot of cls
_TASKS = {cls.kind: cls for cls in (XFragileTask, NFragileTask, RelaxTask, PipelineTask)}


def _check_int(name: str, value) -> None:
    """Refuse an argument that is not an int, or is a bool, which would
    pass for 0 or 1 and serialize as JSON true or false."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidArgs(f"{name} must be an int, got {value!r}")


def _check_seed(seed) -> None:
    """A seed is written to the instance document, so it is an int with
    no more digits than the interpreter converts to and from a string
    (`sys.get_int_max_str_digits()`, when that limit is set)."""
    _check_int("seed", seed)
    limit = sys.get_int_max_str_digits()
    # |seed| < 2^(3 limit) < 10^limit needs no power of ten
    if limit and seed.bit_length() > 3 * limit and abs(seed) >= 10 ** limit:
        raise InvalidArgs(f"seed has more than {limit} digits")


class InstanceFile(FrozenRecord):
    """An instance as `serialize_instance` writes it: a task's minor is
    over the instance's field, and its labels are the matrix's, so each
    record is one that `parse_instance` reads back."""

    __slots__ = ("field", "matrix", "task", "seed")

    def __init__(
        self,
        field: FieldSpec,
        matrix: LabeledMatrix,
        task: Task | None = None,
        seed: int | None = None,
    ):
        if matrix.field != field:
            raise FieldMismatch(f"matrix over {matrix.field!r} in a {field!r} instance")
        if task is not None:
            if not isinstance(task, tuple(_TASKS.values())):
                raise InvalidArgs(f"not a task object: {task!r}")
            ground = frozenset(matrix.rows) | frozenset(matrix.cols)
            for slot in task.__slots__:
                labels = getattr(task, slot)
                if isinstance(labels, ReprMatroid):
                    if labels.field != field:
                        raise FieldMismatch(
                            f"task minor over {labels.field!r} in a {field!r} instance")
                    labels = labels.ground
                if not labels <= ground:
                    raise UnknownLabel(
                        f"task {slot}: label {sorted(labels - ground)[0]!r} not in the matrix")
        if seed is not None:
            _check_seed(seed)
        super().__init__(field, matrix, task, seed)


# ---------------------------------------------------------------------------
# schema walking


def _expect(obj, types, path: str, what: str):
    if not isinstance(obj, types) or (isinstance(obj, bool) and types is int):
        raise SchemaViolation(f"{path}: expected {what}, got {type(obj).__name__}")
    return obj


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaViolation(f"{path}: missing key {key!r}")
    return obj[key]


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise SchemaViolation(f"{path}: unexpected key {sorted(extra)[0]!r}")


def _field_from_json(obj, path: str) -> FieldSpec:
    _expect(obj, dict, path, "object")
    _check_keys(obj, {"p", "tower"}, path)
    p = _expect(_get(obj, "p", path), int, f"{path}.p", "integer")
    tower_json = _expect(_get(obj, "tower", path), list, f"{path}.tower", "array")
    tower = []
    for i, step in enumerate(tower_json):
        sp = f"{path}.tower[{i}]"
        _expect(step, dict, sp, "object")
        _check_keys(step, {"deg", "modulus"}, sp)
        deg = _expect(_get(step, "deg", sp), int, f"{sp}.deg", "integer")
        mod = _expect(_get(step, "modulus", sp), list, f"{sp}.modulus", "array")
        coeffs = []
        for j, c in enumerate(mod):
            coeffs.append(_expect(c, int, f"{sp}.modulus[{j}]", "integer"))
        tower.append((deg, tuple(coeffs)))
    try:
        return field_from_tower(p, tower)
    except (InvalidField, DegreeCap) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def field_to_json(spec: FieldSpec) -> dict:
    return {
        "p": spec.p,
        "tower": [{"deg": d, "modulus": list(coeffs)} for d, coeffs in spec.steps],
    }


def _labels_from_json(obj, path: str) -> list[str]:
    _expect(obj, list, path, "array")
    out = []
    for i, lab in enumerate(obj):
        out.append(_expect(lab, str, f"{path}[{i}]", "string"))
    return out


def _matrix_from_json(obj, path: str, field: FieldSpec) -> LabeledMatrix:
    _expect(obj, dict, path, "object")
    _check_keys(obj, {"rows", "cols", "entries"}, path)
    rows = _labels_from_json(_get(obj, "rows", path), f"{path}.rows")
    cols = _labels_from_json(_get(obj, "cols", path), f"{path}.cols")
    entries = _expect(_get(obj, "entries", path), list, f"{path}.entries", "array")
    if len(entries) != len(rows):
        raise SchemaViolation(
            f"{path}.entries: {len(entries)} rows of entries for {len(rows)} row labels"
        )
    data = []
    for i, row in enumerate(entries):
        rp = f"{path}.entries[{i}]"
        _expect(row, list, rp, "array")
        if len(row) != len(cols):
            raise SchemaViolation(
                f"{rp}: {len(row)} entries for {len(cols)} column labels"
            )
        vals = []
        for j, v in enumerate(row):
            v = _expect(v, int, f"{rp}[{j}]", "integer")
            if not 0 <= v < field.order:
                raise SchemaViolation(
                    f"{rp}[{j}]: encoding {v} out of range for a field of order {field.order}"
                )
            vals.append(v)
        data.append(vals)
    try:
        return LabeledMatrix(field, rows, cols, data)
    except (InvalidArgs, LabelCollision) as exc:
        raise SchemaViolation(f"{path}: {exc}") from None


def matrix_to_json(A: LabeledMatrix) -> dict:
    return {
        "rows": list(A.rows),
        "cols": list(A.cols),
        "entries": [list(row) for row in A._data],
    }


def _label_set(obj, path: str, known: frozenset[str]) -> frozenset[str]:
    labs = _labels_from_json(obj, path)
    for i, lab in enumerate(labs):
        if lab not in known:
            raise SchemaViolation(f"{path}[{i}]: label {lab!r} not in the matrix")
    return frozenset(labs)


def _task_from_json(obj, path: str, field: FieldSpec, matrix: LabeledMatrix) -> Task:
    """A task block: "kind" names the task class, whose slots are read
    in order, a `minor` as a matrix block over the instance's field and
    inside its ground set, any other slot as a set of its labels."""
    _expect(obj, dict, path, "object")
    kind = _expect(_get(obj, "kind", path), str, f"{path}.kind", "string")
    cls = _TASKS.get(kind)
    if cls is None:
        raise SchemaViolation(f"{path}.kind: unknown kind {kind!r}")
    _check_keys(obj, {"kind", *cls.__slots__}, path)
    ground = frozenset(matrix.rows) | frozenset(matrix.cols)
    values = []
    for slot in cls.__slots__:
        sp, value = f"{path}.{slot}", _get(obj, slot, path)
        if slot != "minor":
            values.append(_label_set(value, sp, ground))
            continue
        mm = _matrix_from_json(value, sp, field)
        off = (frozenset(mm.rows) | frozenset(mm.cols)) - ground
        if off:
            raise SchemaViolation(f"{sp}: label {sorted(off)[0]!r} not in the matrix")
        values.append(ReprMatroid(mm))
    if cls is RelaxTask and values[0] & values[1]:
        raise SchemaViolation(
            f"{path}.delete: label {sorted(values[0] & values[1])[0]!r} "
            f"also appears in {path}.contract"
        )
    return cls(*values)


# ---------------------------------------------------------------------------
# parse / serialize


def parse_instance(text: str) -> InstanceFile:
    """Parse a JSON instance file.

    Raises MalformedJson when `json.loads` refuses the text, SchemaViolation
    (with a $.path diagnostic) when the shape is wrong, and InvalidField
    when the field description does not define a field, or DegreeCap
    when its tower exceeds the degree cap (both with the $.field path).
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedJson(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except (RecursionError, ValueError) as exc:  # too deep, or too many digits
        raise MalformedJson(str(exc)) from None
    _expect(obj, dict, "$", "object")
    _check_keys(obj, {"field", "matrix", "task", "seed"}, "$")
    field = _field_from_json(_get(obj, "field", "$"), "$.field")
    matrix = _matrix_from_json(_get(obj, "matrix", "$"), "$.matrix", field)
    task = None
    if "task" in obj:
        task = _task_from_json(obj["task"], "$.task", field, matrix)
    seed = None
    if "seed" in obj:
        seed = _expect(obj["seed"], int, "$.seed", "integer")
    return InstanceFile(field, matrix, task, seed)


def serialize_instance(inst: InstanceFile) -> dict:
    """Turn an InstanceFile back into the JSON object parse_instance
    accepts.  parse(serialize(x)) reproduces x's canonical form."""
    out: dict = {
        "field": field_to_json(inst.field),
        "matrix": matrix_to_json(inst.matrix),
    }
    t = inst.task
    if t is not None:
        out["task"] = {"kind": t.kind}
        for slot in t.__slots__:
            value = getattr(t, slot)
            out["task"][slot] = (
                matrix_to_json(value.rep) if isinstance(value, ReprMatroid) else sorted(value)
            )
    if inst.seed is not None:
        out["seed"] = inst.seed
    return out


# ---------------------------------------------------------------------------
# random generation


class GeneratedInstance(NamedTuple):
    instance: InstanceFile
    rejections: int


def _draw_rows(rng: random.Random, q: int, m: int, n: int, x_rows: int = 0,
               x_cols: int = 0) -> list[list[int]]:
    """The rows of a drawn m x n matrix over the field of order q, its
    block on the first x_rows rows and x_cols columns then set to zero:
    every entry is drawn either way.

    The entries are drawn in row-major order as `rng.randrange(q)` draws
    them (CPython's `_randbelow_with_getrandbits`): getrandbits of q's
    bit length, drawn again while it is q or more.  So the entries, and
    the generator's state after them, are those of one randrange(q) per
    entry, which `PINNED_DRAWS` in the tests depends on; the loop runs
    in C, with no Python call per entry."""
    draws = filter(q.__gt__, map(rng.getrandbits, repeat(q.bit_length())))
    flat = list(islice(draws, m * n))
    data = [flat[i * n:(i + 1) * n] for i in range(m)]
    for row in data[:x_rows]:
        row[:x_cols] = [0] * x_cols
    return data


def _random_matrix(rng: random.Random, field: FieldSpec, rows: list[str], cols: list[str],
                   x_rows: int = 0, x_cols: int = 0) -> LabeledMatrix:
    """A drawn matrix with labels `rows` and `cols`: `_draw_rows`."""
    data = _draw_rows(rng, field.order, len(rows), len(cols), x_rows, x_cols)
    return LabeledMatrix._of_display(field, rows, cols, data)


def gen_random(
    kind: str,
    *,
    seed: int,
    q: int = 2,
    rows: int = 3,
    cols: int = 3,
    x_rows: int = 1,
    x_cols: int = 1,
    minor_size: int = 2,
    max_attempts: int = 10000,
) -> GeneratedInstance:
    """Generate a random instance of the given kind by rejection
    sampling with the seeded generator random.Random(seed).

    Matrices are rows x cols over the field of order q with labels
    r0..r{rows-1} and c0..c{cols-1}.  For "xfragile" the distinguished
    set X is the first x_rows row labels plus the first x_cols column
    labels and the X block is forced to zero before testing.  For
    "nfragile" and "pipeline" a minor of size minor_size is cut out of a
    random matroid by a random partition; minor_size 0 on a nonempty
    ground set raises InvalidArgs before any draw, as every partition
    realises the empty minor.  "relax" is "xfragile" with
    x_rows = x_cols = 1: a matroid fragile for the displayed coloop/loop
    pair (r0, c0), returned as the task (rows - r0, cols - c0).

    Every draw comes with one partition realising its minor: the
    sampled one, or (rows - X, cols - X), which realises the isolated
    minor on X as its block is zero.  A second realising partition one
    move from it (`fragility._one_move`, the two eliminations of
    `one_move_partition`, run on the drawn rows with label positions
    computed once per call) proves the draw is not fragile.  A rejected
    draw costs its entries, its partition draw and one sift (two when
    the first finds no move), which reads each element vector off the
    drawn rows when it reaches it and stops at the first zero one: it
    builds no vector list, no generator, no LabeledMatrix, no matroid,
    no minor and no rank table.  The witness only rejects: a draw is
    accepted only when the full search `is_N_fragile` finds a unique
    partition, or when `x_fragile_failure` passes, which holds exactly
    when (rows - X, cols - X) is the only one.  So the accepted
    instances and rejection counts are those of the full search alone.

    seed, rows, cols, x_rows, x_cols, minor_size and max_attempts must
    be ints, and not bools, and the seed no longer than the interpreter
    writes as a string; anything else raises InvalidArgs before any
    draw, so every returned instance serializes to a document that
    `parse_instance` reads back.

    Returns the instance plus the number of rejected draws.  Raises
    Exhausted when max_attempts samples all fail the acceptance oracle,
    which signals improbable parameters rather than a bug.
    """
    if kind not in _TASKS:
        raise InvalidArgs(f"unknown instance kind {kind!r}")
    _check_seed(seed)
    for name, value in (("rows", rows), ("cols", cols), ("x_rows", x_rows), ("x_cols", x_cols),
                        ("minor_size", minor_size), ("max_attempts", max_attempts)):
        _check_int(name, value)
    if rows < 0 or cols < 0:
        raise InvalidArgs("matrix sizes must be nonnegative")
    if max_attempts < 1:
        raise InvalidArgs("max_attempts must be positive")
    field = field_of_order(q)
    row_labels = [f"r{i}" for i in range(rows)]
    col_labels = [f"c{j}" for j in range(cols)]
    row_pos = {r: i for i, r in enumerate(row_labels)}
    col_pos = {c: j for j, c in enumerate(col_labels)}
    rng = random.Random(seed)

    if kind in ("nfragile", "pipeline"):
        if not 0 <= minor_size <= rows + cols:
            raise InvalidArgs("minor_size out of range for the ground set")
        if minor_size == 0 < rows + cols:
            raise InvalidArgs("an empty minor of a nonempty ground set is never fragile")
        rest = rows + cols - minor_size
        if rest > PARTITION_CAP_DEFAULT:
            raise CapExceeded(
                f"{rest} elements outside the minor exceeds the partition cap "
                f"{PARTITION_CAP_DEFAULT}"
            )
        ground = sorted(row_labels + col_labels)
        for attempt in range(max_attempts):
            data = _draw_rows(rng, field.order, rows, cols)
            keep = frozenset(rng.sample(ground, minor_size))
            outside = [e for e in ground if e not in keep]
            contract = [e for e in outside if rng.random() < 0.5]
            delete = [e for e in outside if e not in contract]
            if _one_move(field, row_pos, col_pos, data, contract, delete) is not None:
                continue
            A = LabeledMatrix._of_display(field, row_labels, col_labels, data)
            M = ReprMatroid(A)
            N = M.minor(contract, delete)
            if is_N_fragile(M, N):
                inst = InstanceFile(field, A, _TASKS[kind](N), seed)
                return GeneratedInstance(inst, attempt)
        raise Exhausted(f"no fragile pair in {max_attempts} attempts")

    # xfragile, and relax as X = {r0, c0}: the displayed coloop/loop pair
    if kind == "relax":
        if rows < 1 or cols < 1:
            raise InvalidArgs("relax instances need at least one row and one column")
        x_rows = x_cols = 1
    if not 0 <= x_rows <= rows or not 0 <= x_cols <= cols:
        raise InvalidArgs("x_rows/x_cols out of range for the matrix shape")
    rest = rows + cols - x_rows - x_cols
    if rest > PARTITION_CAP_DEFAULT:
        raise CapExceeded(
            f"{rest} elements outside X exceeds the partition cap {PARTITION_CAP_DEFAULT}"
        )
    x = frozenset(row_labels[:x_rows]) | frozenset(col_labels[:x_cols])
    # with the X block zero this partition realises the isolated minor on X
    part = MinorSpec(row_labels[x_rows:], col_labels[x_cols:])
    sides = sorted(part.contract), sorted(part.delete)
    for attempt in range(max_attempts):
        data = _draw_rows(rng, field.order, rows, cols, x_rows, x_cols)
        if _one_move(field, row_pos, col_pos, data, *sides) is not None:
            continue
        A = LabeledMatrix._of_display(field, row_labels, col_labels, data)
        if x_fragile_failure(A, x) is None:
            task = XFragileTask(x) if kind == "xfragile" else RelaxTask(part.contract, part.delete)
            return GeneratedInstance(InstanceFile(field, A, task, seed), attempt)
    what = "X-fragile matrix" if kind == "xfragile" else "relaxable pair"
    raise Exhausted(f"no {what} in {max_attempts} attempts")
