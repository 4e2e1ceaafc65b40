"""One table of the library's refusals.

Each `raise` in `src/matroidfrag` is the one that refuses some row of
API_REFUSALS, unless it lies in the scope of one of the three other
tables, each with its own completeness test: the stage checks of
`reductions` (STAGE_FAULTS in test_reductions.py), the instance reader
(READER_REFUSALS in test_instances.py) and the front end's `run`
(CLI_REFUSALS in test_cli.py); or it is listed in UNREACHABLE, with the
reason no call reaches it.  Tests that pin when a refusal happens
(before any draw, before any table, checked once) stay beside the code
they test.
"""

import operator
import sys
import traceback
from functools import partial
from pathlib import Path
from random import Random

import pytest

from matroidfrag import (
    CapExceeded, DegreeCap, DivisionByZero, Exhausted, FieldElem, FieldMismatch,
    GroundSetMismatch, InstanceFile, InvalidArgs, InvalidField, InvalidMinorSpec, LabelCollision,
    LabeledMatrix, MinorSpec, NFragileTask, NotASubfield, NotFragile, PipelineTask,
    ReductionTrace, RelaxTask, ReprMatroid, StageRecord, UnknownLabel, XFragileTask,
    collapse_side, display_basis, embed, extend_field, field_from_tower, field_of_order,
    fragile_partitions, free_extension, gen_random, is_in_subfield, is_irreducible,
    is_relaxation, isolated, make_prime_field, one_move_partition, pipeline, relax_entry,
    submatrix_rank, suites, x_fragile_failure, zero_out,
)
from matroidfrag.galois import PRIME_LIMIT, subfield_basis
from matroidfrag.matrices import rank_table
from reference import GF2, GF3, GF4, GF5, GF8, GF9, GF16_OVER_GF4
from watch import raise_sites

SRC = Path(suites.__file__).parent

# a display of (c, d, e): c a coloop-side row, d a loop, e parallel to c
PAIR = ReprMatroid(LabeledMatrix(GF2, ["c"], ["d", "e"], [[0, 1]]))
# the running example, rank 2 on {a, b, c, d}; {a, d} is dependent
RUNNING = ReprMatroid(LabeledMatrix(GF2, ["a", "b"], ["c", "d"], [[1, 1], [1, 0]]))
AB = LabeledMatrix(GF2, ["a"], ["b"], [[1]])
R1A = LabeledMatrix(GF2, ["r1"], ["a"], [[1]])
AX3 = LabeledMatrix(GF3, ["a", "b"], ["x", "y"], [[1, 2], [0, 1]])
SIDES = LabeledMatrix(GF3, ["r0", "r1"], ["c0", "c1", "c2"], [[0, 1, 2], [1, 1, 0]])
ON_ZZ = ReprMatroid(LabeledMatrix(GF2, ["a"], ["zz"], [[1]]))
OVER_GF3 = LabeledMatrix(GF3, ["c"], ["d"], [[2]])
SEVENTEEN = isolated({1}, range(1, 18))
# the pair (c, d) with fifteen copies of c: fragile, 15 labels outside it
ES = [f"e{j:02d}" for j in range(1, 16)]
COPIES = ReprMatroid(LabeledMatrix(GF2, ["c"], ["d"] + ES, [[0] + [1] * 15]))
DIGITS = sys.get_int_max_str_digits()
OPERATORS = dict(add=operator.add, sub=operator.sub, mul=operator.mul, div=operator.truediv)
RECORDS = {"stage": (StageRecord("s", 1, ReprMatroid(AB), {"skipped": True}), "name"),
           "trace": (pipeline(PAIR, isolated({"c"}, {"c", "d"})), "c_label")}
# the irreducible quadratics (1, 3, 1) and (1, 5, 1) over GF(16): their
# product has no root, so only the gcd at i = 2 shows it reducible
GF16_STEP = (4, (1, 0, 0, 1, 1))
NOT_FRAGILE = "the matroid is not fragile for the pair, or (C, D) is not its partition"

# (kind, arguments, class, message): gen_random(kind, seed=0,
# **arguments) is refused before its first draw; test_instances.py
# checks that no draw is made
SHAPE_REFUSALS = [
    ("xfragile", {"rows": -1}, InvalidArgs, "matrix sizes must be nonnegative"),
    ("nfragile", {"cols": -1}, InvalidArgs, "matrix sizes must be nonnegative"),
    ("relax", {"max_attempts": 0}, InvalidArgs, "max_attempts must be positive"),
    ("nfragile", {"minor_size": 7}, InvalidArgs, "minor_size out of range for the ground set"),
    ("pipeline", {"minor_size": -1}, InvalidArgs, "minor_size out of range for the ground set"),
    ("relax", {"rows": 0}, InvalidArgs, "relax instances need at least one row and one column"),
    ("relax", {"cols": 0}, InvalidArgs, "relax instances need at least one row and one column"),
    ("xfragile", {"x_rows": 4}, InvalidArgs, "x_rows/x_cols out of range for the matrix shape"),
    ("xfragile", {"x_cols": -1}, InvalidArgs, "x_rows/x_cols out of range for the matrix shape"),
    ("xfragile", {"rows": 7, "cols": 7, "x_cols": 0}, CapExceeded,
     "13 elements outside X exceeds the partition cap 12"),
]

# case -> (call, error class, message): `call()` is refused with an
# error of exactly that class and exactly that message
API_REFUSALS = {
    # -- galois ----------------------------------------------------------
    "prime-generator": (lambda: GF3.gen, InvalidArgs, "a prime field has no extension generator"),
    "inverse-of-zero": (partial(GF4.inv_enc, 0), DivisionByZero, "inverse of zero in GF(2^2)"),
    "divide-by-zero": (partial(operator.truediv, GF4.one, GF4.elem(0)), DivisionByZero,
                       "inverse of zero in GF(2^2)"),
    **{f"element-{enc!r}-in-{F!r}": (partial(build, enc), InvalidArgs,
                                     f"encoding {enc} out of range for {F!r}")
       for F, build, encs in ((GF4, GF4.elem, (4, -1, True, False)),
                              (GF3, partial(FieldElem, GF3), (True, False, 1.0)))
       for enc in encs},
    # an element of another field on either side of an operator: the
    # message names the left operand's field first
    **{f"mismatch-{F!r}-{name}-{side}": (
        partial(op, *((a, GF5.one) if side == "left" else (GF5.one, a))), FieldMismatch,
        f"{F!r} vs GF(5)" if side == "left" else f"GF(5) vs {F!r}",
    ) for F in (GF2, GF3, GF4, GF9) for a in [F.gen if F.steps else F.one]
        for name, op in OPERATORS.items() for side in ("left", "right")},
    "mismatch-gf9-plus-gf3": (partial(operator.add, GF9.elem(5), GF3.one), FieldMismatch,
                              "GF(3^2) vs GF(3)"),
    # the flat GF(16) and the tower GF(2) -> 4 -> 16 print apart
    "mismatch-flat-and-tower": (partial(operator.add, field_of_order(16).one, GF16_OVER_GF4.one),
                                FieldMismatch, "GF(2^4) vs GF(2^(2*2))"),
    # a coefficient that is not an encoding in the base field is refused,
    # as field_from_tower refuses it, not read as some other polynomial
    **{f"irreducible-coefficients-{base!r}-{coeffs}": (
        partial(is_irreducible, base, coeffs), InvalidArgs,
        f"coefficients {list(coeffs)!r} are not encodings in {base!r}",
    ) for base, coeffs in [(GF2, (1, 3, 1)), (GF2, (-1, 1, 1)), (GF2, (1, 1, True)),
                           (GF2, (True, 1)), (GF2, (1, 1.0, 1)), (GF2, (1, "1", 1)),
                           (GF4, (1, 7, 1)), (GF4, (1, 4, 1)), (GF3, (1, 3))]},
    **{f"irreducible-{name}": (partial(is_irreducible, base, coeffs), InvalidArgs,
                               "expected a monic polynomial of degree >= 1")
       for name, base, coeffs in (("constant", GF2, (1,)), ("not-monic", GF3, (1, 1, 2)))},
    **{f"characteristic-{p!r}": (partial(make_prime_field, p), InvalidField,
                                 f"characteristic {p!r} is not an int in 2 .. 65536")
       for p in (1, PRIME_LIMIT + 1, "2", True)},
    # 65535 = 3 * 5 * 17 * 257
    **{f"composite-{n}": (partial(make_prime_field, n), InvalidField, f"{n} is not prime")
       for n in (4, 9, 15, 65535)},
    **{f"extension-degree-{k!r}": (partial(extend_field, GF3, k), InvalidArgs,
                                   f"extension degree must be a positive int, got {k!r}")
       for k in (0, True, False, 2.0)},
    "extension-characteristic-cap": (partial(extend_field, make_prime_field(17), 2), DegreeCap,
                                     "characteristic 17 exceeds cap 13 for extensions"),
    "extension-degree-cap": (partial(extend_field, GF2, 17), DegreeCap,
                             "total degree 17 exceeds cap 16"),
    "order-degree-cap": (partial(field_of_order, 2**17), DegreeCap,
                         "total degree 17 exceeds cap 16"),
    # a degree-1 step would give its level a second, unequal presentation
    **{f"tower-degree-{name}": (
        partial(field_from_tower, 3, tower), InvalidField,
        f"tower step {len(tower) - 1}: degree {tower[-1][0]!r} invalid, must be an int >= 2",
    ) for name, tower in (("one", [(1, (1, 1))]), ("one-root", [(1, (0, 1))]),
                          ("one-second", [(2, (1, 0, 1)), (1, (1, 1))]),
                          ("true", [(2, (1, 0, 1)), (True, (0, 1))]),
                          ("false", [(2, (1, 0, 1)), (False, (0, 1))]))},
    **{f"tower-coefficient-{c}": (partial(field_from_tower, 3, [(2, (c, 0, 1))]), InvalidField,
                                  f"tower step 0: modulus[0] = {c} is not an encoding in GF(3)")
       for c in (True, False)},
    **{f"tower-{name}": (partial(field_from_tower, p, tower, degree_cap=cap), cls,
                         f"tower step {len(tower) - 1}: {message}")
       for name, p, tower, cap, cls, message in (
        ("too-few-coefficients", 2, [(2, (1, 1))], 16, InvalidField,
         "modulus needs 3 coefficients, got 2"),
        ("not-monic", 2, [(2, (1, 1, 0))], 16, InvalidField, "modulus [1, 1, 0] is not monic"),
        # GF(2^4) then a degree-5 step over it: total degree 20 > 16
        ("degree-cap", 2, [GF16_STEP, (5, (1, 0, 0, 0, 0, 1))], 16, DegreeCap,
         "total degree exceeds cap 16"),
        ("reducible", 2, [(2, (0, 0, 1))], 16, InvalidField, "modulus [0, 0, 1] is reducible"),
        ("product-of-quadratics", 2, [GF16_STEP, (4, (1, 6, 15, 6, 1))], 32, InvalidField,
         "modulus [1, 6, 15, 6, 1] is reducible"))},
    **{f"order-{q!r}": (partial(field_of_order, q), InvalidField,
                        f"field order {q!r} is not a prime power")
       for q in (0, 1, 2.0, True, None, "2", 6, 12)},
    # 2^61 - 1 is prime, so its double has a factor below the prime limit
    "order-twice-a-large-prime": (partial(field_of_order, 2 * (2**61 - 1)), InvalidField,
                                  f"field order {2 * (2**61 - 1)} is not a prime power"),
    "order-above-the-prime-limit": (partial(field_of_order, PRIME_LIMIT + 1), InvalidField,
                                    "field order 65537 has no prime factor up to 65536"),
    **{f"{name}-off-the-tower": (call, NotASubfield, "GF(2^2) is not a tower prefix of GF(2^3)")
       for name, call in (("embed", partial(embed, GF4.one, GF8)),
                          ("subfield", partial(is_in_subfield, GF8.gen, GF4)))},
    "subfield-basis-two-steps-down": (partial(subfield_basis, GF16_OVER_GF4, GF2), NotASubfield,
                                      "GF(2) is not the immediate tower base of GF(2^(2*2))"),
    # -- matrices --------------------------------------------------------
    **{f"matrix-{name}": (partial(LabeledMatrix, GF2, rows, cols, entries), cls, message)
       for name, rows, cols, entries, cls, message in (
        ("duplicate-row", ["a", "a"], ["c"], [[1], [0]], LabelCollision,
         "duplicate row label in ('a', 'a')"),
        ("duplicate-column", ["a"], ["c", "d", "c"], [[1, 0, 1]], LabelCollision,
         "duplicate column label in ('c', 'd', 'c')"),
        ("both-sides", ["a"], ["a"], [[1]], LabelCollision, "labels on both sides: ['a']"),
        # labels become strings, so the int 1 collides with the str "1"
        ("int-label-on-both-sides", [1], [2, 5, 1], [[1, 1, 0]], LabelCollision,
         "labels on both sides: ['1']"),
        ("element-of-another-field", ["a"], ["c"], [[GF3.one]], FieldMismatch,
         "entry ('a', 'c'): an element of GF(3) in a GF(2) matrix"),
        ("entry-out-of-range", ["a"], ["c"], [[2]], InvalidArgs,
         "entry ('a', 'c'): encoding 2 out of range for GF(2)"),
        ("too-many-rows", ["a"], ["c"], [[1], [0]], InvalidArgs, "expected 1 entry rows, got 2"),
        ("ragged", ["a"], ["c", "d"], [[1]], InvalidArgs, "row 'a': expected 2 entries, got 1"))},
    **{f"matrix-entry-{v}": (partial(LabeledMatrix, GF2, ["a"], ["b"], [[v]]), InvalidArgs,
                             f"entry ('a', 'b'): {v} is neither FieldElem nor encoding")
       for v in (True, False)},
    **{f"entry-{row}-{col}": (partial(AX3.enc, row, col), UnknownLabel,
                              f"no entry at ({row!r}, {col!r})")
       for row, col in (("a", "e"), ("x", "a"))},
    "submatrix-rank-unknown-labels": (partial(submatrix_rank, AX3, ["a", "z", "x", "q"]),
                                      UnknownLabel, "labels not in matrix: ['q', 'z']"),
    **{f"rank-table-{name}": (partial(rank_table, A, labels, contract=contract), cls, message)
       for name, A, labels, contract, cls, message in (
        ("repeated-label", AB, ["a", "a"], (), InvalidArgs,
         "a label repeats in contract [] + labels ['a', 'a']"),
        ("label-also-contracted", AX3, ["a", "x"], ["x"], InvalidArgs,
         "a label repeats in contract ['x'] + labels ['a', 'x']"),
        ("repeated-contraction", AX3, ["a"], ["x", "x"], InvalidArgs,
         "a label repeats in contract ['x', 'x'] + labels ['a']"),
        ("unknown-label", AB, ["a", "q"], (), UnknownLabel, "labels not in matrix: ['q']"),
        ("unknown-contraction", AX3, ["a"], ["q"], UnknownLabel, "labels not in matrix: ['q']"))},
    # -- matroids --------------------------------------------------------
    **{f"overlap-{name}": (partial(cls, *sides), InvalidMinorSpec,
                           "contract and delete overlap: ['a']")
       for name, cls, sides in (("minor-spec", MinorSpec, ({"a"}, {"a"})),
                                ("minor-spec-two-sides", MinorSpec, ({"a", "c"}, {"a", "b"})),
                                ("relax-task", RelaxTask, ({"a"}, {"a"})))},
    "outside-the-ground-set-minor": (partial(RUNNING.minor, contract={"q"}), InvalidMinorSpec,
                                     "labels outside the ground set: ['q']"),
    # the public witness checks its partition before its eliminations
    **{f"outside-the-ground-set-one-move-{name}": (
        partial(one_move_partition, isolated({"c"}, {"c", "d"}), part), InvalidMinorSpec,
        "labels outside the ground set: ['x']",
    ) for name, part in (("contract", MinorSpec({"x"}, ())), ("delete", MinorSpec({"c"}, "dx")))},
    **{f"{name}-unknown-label": (call, UnknownLabel, "labels not in ground set: ['q']")
       for name, call in (("rank", partial(RUNNING.rank, {"q"})),
                          ("relaxation", partial(is_relaxation, RUNNING, RUNNING, {"q"})),
                          ("rebase", partial(RUNNING.rebase, {"a", "q"})))},
    **{f"rebase-{name}": (partial(RUNNING.rebase, B), InvalidArgs, f"{sorted(B)} is not a basis")
       for name, B in (("dependent", {"a", "d"}), ("wrong-size", {"a"}))},
    "equals-cap": (partial(SEVENTEEN.equals, SEVENTEEN), CapExceeded,
                   "|E| = 17 exceeds equals cap 16"),
    "bases-cap": (SEVENTEEN.bases, CapExceeded, "|E| = 17 exceeds bases cap 16"),
    "relaxation-ground-sets": (partial(is_relaxation, RUNNING, RUNNING.minor(delete={"d"}), {"a"}),
                               GroundSetMismatch, "['a', 'b', 'c', 'd'] vs ['a', 'b', 'c']"),
    "isolated-basis-off-the-ground": (partial(isolated, {"c"}, {"d"}), GroundSetMismatch,
                                      "basis ['c'] not inside ground ['d']"),
    # -- fragility -------------------------------------------------------
    **{f"{name}-{what}": (partial(fn, M, N), cls, message)
       for name, fn in (("partitions", fragile_partitions), ("display-basis", display_basis))
       for what, M, N, cls, message in (
        ("minor-off-the-ground", PAIR, isolated({"q"}, {"q"}), GroundSetMismatch,
         "minor ground ['q'] not inside ['c', 'd', 'e']"),
        # 13 elements outside the minor: refused before any basis is tried
        ("cap", isolated({1}, range(1, 16)), isolated({1}, range(1, 3)), CapExceeded,
         "|E(M)-E(N)| = 13 exceeds partition cap 12"))},
    "x-fragile-unknown-label": (partial(x_fragile_failure, PAIR.rep, {"c", "q"}), UnknownLabel,
                                "labels not in matrix: ['q']"),
    "x-fragile-cap": (partial(x_fragile_failure, COPIES.rep, {"c", "d"}), CapExceeded,
                      "|labels - X| = 15 exceeds partition cap 12"),
    # -- reductions ------------------------------------------------------
    **{f"{name}-partitions": (partial(fn, M, isolated(*N)), NotFragile,
                              f"{count} partitions realise the minor; need exactly one")
       for name, fn, M, N, count in (
        ("zero-out-two", zero_out, isolated({"c"}, {"c", "d", "e"}), ({"c"}, {"c", "d"}), 2),
        ("pipeline-no", pipeline, ReprMatroid(LabeledMatrix(GF2, ["a"], ["b", "c"], [[1, 1]])),
         ({"a"}, {"a", "b"}), 0))},
    "pipeline-cap": (partial(pipeline, PAIR, isolated({"c"}, {"c", "d"}), cap=0), CapExceeded,
                     "|E(M)-E(N)| = 1 exceeds partition cap 0"),
    "pipeline-conformance-empty-minor": (
        partial(pipeline, ReprMatroid(LabeledMatrix(GF2, [], [], [])), isolated((), ()),
                conformance=True), InvalidArgs, "conformance mode needs a nonempty minor"),
    **{f"free-extension-{name}": (partial(free_extension, A, X, e, degree=d), cls, message)
       for name, A, X, e, d, cls, message in (
        # the rows are not a flat of the columns
        ("rows-as-x", R1A, {"r1"}, "e", None, UnknownLabel,
         "not column labels of the matrix: ['r1']"),
        ("used-label", R1A, {"a"}, "a", None, LabelCollision, "label 'a' already used"),
        # a new label is made a str before the collision check
        ("used-int-label", LabeledMatrix(GF2, ["r1"], ["a", "5"], [[1, 0]]), ["a"], 5, None,
         LabelCollision, "label '5' already used"),
        ("degree-zero", R1A, {"a"}, "e", 0, InvalidArgs,
         "degree 0 below the minimum 1 for |X| = 1"),
        ("degree-below-the-flat", AX3, {"x", "y"}, "e", 1, InvalidArgs,
         "degree 1 below the minimum 2 for |X| = 2"))},
    **{f"collapse-{name}": (partial(collapse_side, A, X1, X2, d), cls, message)
       for name, A, X1, X2, d, cls, message in (
        ("sides-overlap", SIDES, {"r0"}, {"c0", "r0"}, "d", InvalidArgs, "sides overlap: ['r0']"),
        ("column-in-x1", SIDES, {"r0", "c1"}, {"c0"}, "d", UnknownLabel,
         "not row labels of the matrix: ['c1']"),
        ("label-of-neither-in-x1", SIDES, {"r0", "q"}, {"c0"}, "d", UnknownLabel,
         "not row labels of the matrix: ['q']"),
        ("row-in-x2", SIDES, {"r0"}, {"c0", "r1"}, "d", UnknownLabel,
         "not column labels of the matrix: ['r1']"),
        ("label-of-neither-in-x2", SIDES, {"r0"}, {"c0", "q"}, "d", UnknownLabel,
         "not column labels of the matrix: ['q']"),
        ("d-a-column", SIDES, {"r0"}, {"c0"}, "c2", LabelCollision, "label 'c2' already used"),
        ("d-a-row", SIDES, {"r0"}, {"c0"}, "r1", LabelCollision, "label 'r1' already used"),
        ("used-int-label", LabeledMatrix(GF2, ["c"], ["d", "7"], [[0, 1]]), {"c"}, {"d"}, 7,
         LabelCollision, "label '7' already used"))},
    **{f"relax-{name}": (partial(relax_entry, M, C, D, cap=12), cls, message)
       for name, M, C, D, cls, message in (
        ("sides-overlap", PAIR, {"e"}, {"e"}, InvalidArgs,
         "contract and delete sets must be disjoint subsets of the ground set"),
        ("three-left", PAIR, (), (), NotFragile, "displayed minor has 3 elements; need exactly 2"),
        ("two-loops-left", PAIR, {"e"}, (), NotFragile,
         "minor is not one coloop plus one loop: ranks {'c': 0, 'd': 0}"),
        ("two-partitions", isolated({"c"}, "cde"), (), {"e"}, NotFragile, NOT_FRAGILE),
        # C + {c} is no basis, too large or of the right size with C a
        # loop: `rebase` refuses both, and relax_entry says NotFragile
        ("basis-too-large", isolated({"c"}, "cde"), {"e"}, (), NotFragile, NOT_FRAGILE),
        ("contracted-loop", isolated("cx", "cdex"), {"e"}, {"x"}, NotFragile, NOT_FRAGILE),
        # bounded only by its partition cap on the labels outside the pair
        ("cap", COPIES, (), ES, CapExceeded, "|labels - X| = 15 exceeds partition cap 12"))},
    # -- records and instances -------------------------------------------
    **{f"record-{kind}-{change.__name__}": (partial(change, record, *args), AttributeError,
                                            f"cannot {verb} field {field!r}")
       for kind, (record, field) in RECORDS.items()
       for verb, change, args in (("assign to", setattr, (field, "x")),
                                  ("delete", delattr, (field,)))},
    # fields bind by position only: a wrong count names the class
    **{f"record-{cls.__name__}-{n}-values": (partial(cls, *[None] * n), TypeError,
                                             f"{cls.__name__}: {n} values for {size} fields")
       for cls in (PipelineTask, ReductionTrace) for size in [len(cls.__slots__)]
       for n in sorted({0, size - 1, size + 1})},
    "instance-matrix-over-another-field": (partial(InstanceFile, GF2, OVER_GF3), FieldMismatch,
                                           "matrix over GF(3) in a GF(2) instance"),
    "instance-not-a-task": (
        partial(InstanceFile, GF2, AB, MinorSpec({"a"}, ())), InvalidArgs,
        "not a task object: MinorSpec(contract=frozenset({'a'}), delete=frozenset())"),
    "instance-task-minor-over-another-field": (
        partial(InstanceFile, GF2, AB, PipelineTask(ReprMatroid(OVER_GF3))), FieldMismatch,
        "task minor over GF(3) in a GF(2) instance"),
    **{f"instance-task-{slot}-off-the-matrix-{task.kind}": (
        partial(InstanceFile, GF2, LabeledMatrix(GF2, ["a", "b"], ["c"], [[1], [0]]), task),
        UnknownLabel, f"task {slot}: label 'zz' not in the matrix",
    ) for task, slot in ((XFragileTask({"zz"}), "x"), (RelaxTask({"a"}, {"zz"}), "delete"),
                         (NFragileTask(ON_ZZ), "minor"), (PipelineTask(ON_ZZ), "minor"))},
    **{f"instance-seed-{seed!r}": (partial(InstanceFile, GF2, AB, None, seed), InvalidArgs,
                                   f"seed must be an int, got {seed!r}")
       for seed in ("a", True, False, 1.5, 2.0)},
    # one digit more than the interpreter converts: the document could
    # be neither written nor parsed
    **{f"seed-digits-{name}{mark}": (partial(build, sign * 10 ** DIGITS), InvalidArgs,
                                     f"seed has more than {DIGITS} digits")
       for mark, sign in (("+", 1), ("-", -1))
       for name, build in (("gen", lambda seed: gen_random("relax", seed=seed)),
                           ("instance", partial(InstanceFile, GF2, AB, None)))},
    "gen-unknown-kind": (partial(gen_random, "nope", seed=0), InvalidArgs,
                         "unknown instance kind 'nope'"),
    "gen-rows-not-an-int": (partial(gen_random, "nfragile", seed=0, rows=2.0), InvalidArgs,
                            "rows must be an int, got 2.0"),
    **{f"gen-{kind}-" + "-".join(f"{k}={v}" for k, v in args.items()): (
        partial(gen_random, kind, seed=0, **args), cls, message,
    ) for kind, args, cls, message in SHAPE_REFUSALS + [
        # every partition realises the empty minor, so no draw succeeds
        ("pipeline", {"rows": 3, "cols": 4, "minor_size": 0}, InvalidArgs,
         "an empty minor of a nonempty ground set is never fragile"),
        ("nfragile", {"rows": 8, "cols": 8, "minor_size": 2}, CapExceeded,
         "14 elements outside the minor exceeds the partition cap 12"),
        # a one-element minor of a 2 x 2 binary matroid: each of these
        # three draws has a second realising partition
        ("nfragile", {"rows": 2, "cols": 2, "minor_size": 1, "max_attempts": 3}, Exhausted,
         "no fragile pair in 3 attempts"),
        # an all-column X with a column outside it can never gain rank
        # from a pure-column Y, so this shape has no fragile instances
        ("xfragile", {"rows": 1, "cols": 2, "x_rows": 0, "x_cols": 1, "max_attempts": 200},
         Exhausted, "no X-fragile matrix in 200 attempts")]},
    # -- suites ----------------------------------------------------------
    # a shape with no X-fragile matrix, so each of the forty draws is
    # refused and the last refusal is raised again
    "suite-shapes-exhausted": (
        partial(suites._gen_with_retry, "xfragile", Random(0),
                lambda master: {"q": 2, "rows": 0, "cols": 1, "x_rows": 0, "x_cols": 0}),
        Exhausted, "no X-fragile matrix in 3000 attempts"),
    "unknown-suite": (partial(suites.run_suite, "nope"), InvalidArgs,
                      f"unknown suite 'nope'; choose from {', '.join(suites.SUITES)} or all"),
}

# (module, function, class raised) -> why no call reaches that raise
UNREACHABLE = {("galois.py", "_canonical_modulus", "InvalidField"): (
    "by Gauss's count there is a monic irreducible of every degree over every finite field, "
    "so the walk over the candidates returns before its end")}


def sites(module, functions=None, raised=None):
    """The raises of `module` in `raise_sites`'s scope, as (file, line),
    those of class `raised` alone when it is given."""
    path = str(SRC / module)
    return {(path, line) for line, name in raise_sites(path, functions).items()
            if raised in (None, name)}


SITES = set().union(*(sites(path.name) for path in SRC.glob("*.py")))
# the raises in the scopes of STAGE_FAULTS, READER_REFUSALS and CLI_REFUSALS
ELSEWHERE = (sites("reductions.py", raised="PostconditionViolation")
             | sites("instances.py", {"parse_instance"}) | sites("cli.py", {"run"}))


def api_refusal(case):
    """Make the case's call, which must be refused with exactly the
    case's class and message; returns the raises of the package among
    the frames of the error's traceback, so a raise that passes on an
    error it caught counts too."""
    call, cls, message = API_REFUSALS[case]
    with pytest.raises(cls) as info:
        call()
    assert (type(info.value), str(info.value)) == (cls, message)
    return {(frame.filename, frame.lineno) for frame in traceback.extract_tb(info.tb)} & SITES


@pytest.mark.parametrize("case", list(API_REFUSALS))
def test_the_library_refuses_each_call_of_the_table(case):
    assert api_refusal(case)


def test_every_raise_of_the_library_refuses_a_row_or_lies_in_another_table():
    refused = set().union(*map(api_refusal, API_REFUSALS))
    unreachable = set().union(*(sites(module, {fn}, raised) for module, fn, raised in UNREACHABLE))
    assert unreachable and not unreachable & refused
    missing = SITES - refused - unreachable - ELSEWHERE
    assert not missing, f"raised by no row: {sorted(missing)}"
