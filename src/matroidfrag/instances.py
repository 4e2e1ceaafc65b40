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
"pipeline" {minor}, and "relax" {contract, delete}; a minor is another
matrix block over the same field.  Parsing reports the JSON path of the
first offending value, so a bad entry in a large file is located
exactly.

`gen_random` draws seeded instances by rejection sampling in two
loops: one cuts a minor out of a random matroid ("nfragile",
"pipeline"), the other zeroes a block X ("xfragile", and "relax" with
X = {r0, c0}).  Both know one realising partition of every draw, so
most rejections are proved by `fragility.one_move_partition` with at
most two eliminations and no rank query; a draw is accepted only by
the full partition search, or by `fragility.x_fragile_failure`, which
decides the same.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple, Union

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
)
from .fragility import (
    PARTITION_CAP_DEFAULT,
    is_N_fragile,
    one_move_partition,
    x_fragile_failure,
)
from .galois import FieldSpec, field_from_tower, field_of_order
from .matrices import LabeledMatrix
from .matroids import MinorSpec, ReprMatroid
from .records import FrozenRecord


class XFragileTask(FrozenRecord):
    kind = "xfragile"
    __slots__ = ("x",)

    def __init__(self, x: frozenset[str]):
        object.__setattr__(self, "x", x)


class NFragileTask(FrozenRecord):
    kind = "nfragile"
    __slots__ = ("minor",)

    def __init__(self, minor: ReprMatroid):
        object.__setattr__(self, "minor", minor)


class RelaxTask(FrozenRecord):
    kind = "relax"
    __slots__ = ("contract", "delete")

    def __init__(self, contract: frozenset[str], delete: frozenset[str]):
        object.__setattr__(self, "contract", contract)
        object.__setattr__(self, "delete", delete)


class PipelineTask(FrozenRecord):
    kind = "pipeline"
    __slots__ = ("minor",)

    def __init__(self, minor: ReprMatroid):
        object.__setattr__(self, "minor", minor)


Task = Union[XFragileTask, NFragileTask, RelaxTask, PipelineTask]


class InstanceFile(FrozenRecord):
    __slots__ = ("field", "matrix", "task", "seed")

    def __init__(
        self,
        field: FieldSpec,
        matrix: LabeledMatrix,
        task: Task | None = None,
        seed: int | None = None,
    ):
        for what, part in (("matrix", matrix), ("task minor", getattr(task, "minor", None))):
            if part is not None and part.field != field:
                raise FieldMismatch(f"{what} over {part.field!r} in a {field!r} instance")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "task", task)
        object.__setattr__(self, "seed", seed)


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
    _expect(obj, dict, path, "object")
    kind = _expect(_get(obj, "kind", path), str, f"{path}.kind", "string")
    ground = frozenset(matrix.rows) | frozenset(matrix.cols)

    if kind == "xfragile":
        _check_keys(obj, {"kind", "x"}, path)
        return XFragileTask(_label_set(_get(obj, "x", path), f"{path}.x", ground))

    if kind in ("nfragile", "pipeline"):
        _check_keys(obj, {"kind", "minor"}, path)
        mm = _matrix_from_json(_get(obj, "minor", path), f"{path}.minor", field)
        off = (frozenset(mm.rows) | frozenset(mm.cols)) - ground
        if off:
            raise SchemaViolation(
                f"{path}.minor: label {sorted(off)[0]!r} not in the matrix"
            )
        minor = ReprMatroid(mm)
        return NFragileTask(minor) if kind == "nfragile" else PipelineTask(minor)

    if kind == "relax":
        _check_keys(obj, {"kind", "contract", "delete"}, path)
        contract = _label_set(_get(obj, "contract", path), f"{path}.contract", ground)
        delete = _label_set(_get(obj, "delete", path), f"{path}.delete", ground)
        both = contract & delete
        if both:
            raise SchemaViolation(
                f"{path}.delete: label {sorted(both)[0]!r} also appears in {path}.contract"
            )
        return RelaxTask(contract, delete)

    raise SchemaViolation(f"{path}.kind: unknown kind {kind!r}")


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
    if isinstance(t, XFragileTask):
        out["task"] = {"kind": "xfragile", "x": sorted(t.x)}
    elif isinstance(t, NFragileTask):
        out["task"] = {"kind": "nfragile", "minor": matrix_to_json(t.minor.rep)}
    elif isinstance(t, PipelineTask):
        out["task"] = {"kind": "pipeline", "minor": matrix_to_json(t.minor.rep)}
    elif isinstance(t, RelaxTask):
        out["task"] = {
            "kind": "relax",
            "contract": sorted(t.contract),
            "delete": sorted(t.delete),
        }
    elif t is not None:
        raise InvalidArgs(f"not a task object: {t!r}")
    if inst.seed is not None:
        out["seed"] = inst.seed
    return out


# ---------------------------------------------------------------------------
# random generation


class GeneratedInstance(NamedTuple):
    instance: InstanceFile
    rejections: int


def _random_matrix(
    rng: random.Random, field: FieldSpec, rows: list[str], cols: list[str],
    x_rows: int = 0, x_cols: int = 0,
) -> LabeledMatrix:
    """A drawn matrix, its block on the first x_rows rows and x_cols
    columns then set to zero: every entry is drawn either way."""
    data = [[rng.randrange(field.order) for _ in cols] for _ in rows]
    for row in data[:x_rows]:
        row[:x_cols] = [0] * x_cols
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
    move from it (`one_move_partition`, two eliminations at most)
    proves the draw is not fragile, so it is rejected before the minor
    is built or any rank table is read.  The witness only rejects: a draw is accepted only when the
    full search `is_N_fragile` finds a unique partition, or when
    `x_fragile_failure` passes, which holds exactly when (rows - X,
    cols - X) is the only one.  So the accepted instances and rejection
    counts are those of the full search alone.

    Returns the instance plus the number of rejected draws.  Raises
    Exhausted when max_attempts samples all fail the acceptance oracle,
    which signals improbable parameters rather than a bug.
    """
    if kind not in ("xfragile", "nfragile", "relax", "pipeline"):
        raise InvalidArgs(f"unknown instance kind {kind!r}")
    if rows < 0 or cols < 0:
        raise InvalidArgs("matrix sizes must be nonnegative")
    if max_attempts < 1:
        raise InvalidArgs("max_attempts must be positive")
    field = field_of_order(q)
    row_labels = [f"r{i}" for i in range(rows)]
    col_labels = [f"c{j}" for j in range(cols)]
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
            A = _random_matrix(rng, field, row_labels, col_labels)
            M = ReprMatroid(A)
            keep = frozenset(rng.sample(ground, minor_size))
            outside = sorted(M.ground - keep)
            contract = frozenset(e for e in outside if rng.random() < 0.5)
            part = MinorSpec(contract, frozenset(outside) - contract)
            if one_move_partition(M, part) is not None:
                continue
            N = M.minor_of(part)
            if is_N_fragile(M, N):
                task = NFragileTask(N) if kind == "nfragile" else PipelineTask(N)
                inst = InstanceFile(field, A, task, seed)
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
    for attempt in range(max_attempts):
        A = _random_matrix(rng, field, row_labels, col_labels, x_rows, x_cols)
        if one_move_partition(ReprMatroid(A), part) is None and x_fragile_failure(A, x) is None:
            task = XFragileTask(x) if kind == "xfragile" else RelaxTask(part.contract, part.delete)
            return GeneratedInstance(InstanceFile(field, A, task, seed), attempt)
    what = "X-fragile matrix" if kind == "xfragile" else "relaxable pair"
    raise Exhausted(f"no {what} in {max_attempts} attempts")
