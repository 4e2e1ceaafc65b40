"""Exact toolkit for fragile represented matroids over finite fields.

Build towers of finite fields, represent matroids by labelled matrices
over them, certify fragility of a matroid with respect to a minor, and
run the reduction chain that turns a fragile pair into a circuit-
hyperplane relaxation over a controlled field extension.  Everything is
exact (no floating point) and every reduction stage certifies its own
output before returning: fragility by the exact partition search or by
rank tables read off the stage's display, free placement and the
relaxation by the proofs in their docstrings, from polynomial checks.
"""

from .errors import (
    CapExceeded,
    DegreeCap,
    DivisionByZero,
    Exhausted,
    FieldMismatch,
    GroundSetMismatch,
    InvalidArgs,
    InvalidField,
    InvalidMinorSpec,
    LabelCollision,
    MalformedJson,
    NotASubfield,
    NotFragile,
    PostconditionViolation,
    SchemaViolation,
    ToolkitError,
    UnknownLabel,
)
from .galois import (
    FieldElem,
    FieldSpec,
    embed,
    extend_field,
    field_from_tower,
    field_of_order,
    is_in_subfield,
    is_irreducible,
    is_tower_prefix,
    make_prime_field,
    subfield_basis,
)
from .matrices import LabeledMatrix, submatrix_rank
from .subsets import partitions_of, subsets_by_size
from .matroids import (
    MinorSpec,
    ReprMatroid,
    is_relaxation,
    isolated,
    isolated_rn,
)
from .fragility import (
    display_basis,
    fragile_partitions,
    is_N_fragile,
    is_X_fragile_matrix,
    one_move_partition,
    x_fragile_failure,
)
from .reductions import (
    ReductionTrace,
    StageRecord,
    collapse_side,
    free_extension,
    pipeline,
    reduce_to_two,
    relax_entry,
    zero_out,
)
from .instances import (
    GeneratedInstance,
    InstanceFile,
    NFragileTask,
    PipelineTask,
    RelaxTask,
    XFragileTask,
    gen_random,
    parse_instance,
    serialize_instance,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "DegreeCap",
    "DivisionByZero",
    "Exhausted",
    "FieldMismatch",
    "GroundSetMismatch",
    "InvalidArgs",
    "InvalidField",
    "InvalidMinorSpec",
    "LabelCollision",
    "MalformedJson",
    "NotASubfield",
    "NotFragile",
    "PostconditionViolation",
    "SchemaViolation",
    "ToolkitError",
    "UnknownLabel",
    "FieldElem",
    "FieldSpec",
    "embed",
    "extend_field",
    "field_from_tower",
    "field_of_order",
    "is_in_subfield",
    "is_irreducible",
    "is_tower_prefix",
    "make_prime_field",
    "subfield_basis",
    "LabeledMatrix",
    "submatrix_rank",
    "partitions_of",
    "subsets_by_size",
    "MinorSpec",
    "ReprMatroid",
    "is_relaxation",
    "isolated",
    "isolated_rn",
    "display_basis",
    "fragile_partitions",
    "is_N_fragile",
    "is_X_fragile_matrix",
    "one_move_partition",
    "x_fragile_failure",
    "ReductionTrace",
    "StageRecord",
    "collapse_side",
    "free_extension",
    "pipeline",
    "reduce_to_two",
    "relax_entry",
    "zero_out",
    "GeneratedInstance",
    "InstanceFile",
    "NFragileTask",
    "PipelineTask",
    "RelaxTask",
    "XFragileTask",
    "gen_random",
    "parse_instance",
    "serialize_instance",
    "__version__",
]
