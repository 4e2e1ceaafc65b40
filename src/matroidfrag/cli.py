"""Batch front end: instance checking, relaxation, pipelines, suites.

Run as `python -m matroidfrag <command> [flags]`.  Commands:

    check-xfragile   is the instance matrix X-fragile?
    check-nfragile   is the matroid fragile for the minor?
    relax            relax the circuit-hyperplane displayed by (C, D)
    pipeline         full reduction chain on a fragile pair
    verify-suite     run the seeded property suites

Flags: --input PATH (instance JSON), --seed N, --max-ground N (default
16, bounds the instance ground set and the enumeration caps),
--conformance (uniform-degree tower to exactly 2k^2), --report PATH
(write the report JSON to a file as well; opened before the command
runs, so an unwritable path exits 2), --suite NAME (verify-suite only;
default all).

The report is JSON on stdout.  Exit code 0 means the command ran and
every property it asserts held (a false check verdict still exits 0:
the answer is the output); 1 means a verified property failed, which is
a counterexample candidate and is dumped in full; 2 means the input was
invalid, and the report names the command and the error.  Reports are
canonical up to the timing fields: identical instance, seed and flags
reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import PostconditionViolation, ToolkitError
from .fragility import fragile_partitions, x_fragile_failure
from .instances import (
    InstanceFile,
    NFragileTask,
    PipelineTask,
    RelaxTask,
    XFragileTask,
    field_to_json,
    matrix_to_json,
    parse_instance,
    serialize_instance,
)
from .matroids import ReprMatroid
from .reductions import pipeline as run_pipeline
from .reductions import relax_entry

# the keys of `suites.SUITES`, in order: only verify-suite imports the
# suites, so that no other command pays for loading them
SUITE_NAMES = (
    "field-core",
    "isolated-minor",
    "zeroed-block",
    "free-placement",
    "entry-relaxation",
    "pipeline",
    "structural",
    "determinism",
)

_TASK_FOR = {
    "check-xfragile": XFragileTask,
    "check-nfragile": NFragileTask,
    "relax": RelaxTask,
    "pipeline": PipelineTask,
}
COMMANDS = (*_TASK_FOR, "verify-suite")


def _witness_json(fail) -> dict | None:
    if fail is None:
        return None
    kind, payload = fail
    if kind == "block_nonzero":
        row, col = payload
        return {"kind": "block_nonzero", "row": row, "col": col}
    return {"kind": "rank_not_increased", "y": sorted(payload)}


def _stage_json(stage) -> dict:
    return {
        "name": stage.name,
        "degree_over_input": stage.degree_over_input,
        "field": field_to_json(stage.matroid.field),
        "matroid": matrix_to_json(stage.matroid.rep),
        "details": stage.details,
    }


def run(
    command: str,
    instance: InstanceFile | None,
    *,
    seed: int = 0,
    max_ground: int = 16,
    conformance: bool = False,
    suite: str = "all",
) -> tuple[dict, int]:
    """Execute one command and return (report, exit code)."""
    t0 = time.perf_counter()
    report: dict = {"command": command}

    def done(code: int) -> tuple[dict, int]:
        report["timing_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
        return report, code

    try:
        if command == "verify-suite":
            from .suites import run_suite

            report["result"] = run_suite(suite, seed)
            return done(0 if report["result"]["ok"] else 1)

        if command not in _TASK_FOR:
            raise ToolkitError(f"unknown command {command!r}")
        if instance is None:
            raise ToolkitError(f"{command} needs --input with an instance file")
        want = _TASK_FOR[command]
        if not isinstance(instance.task, want):
            raise ToolkitError(
                f"{command} needs a task block of kind {want.kind!r}"
            )
        n = len(instance.matrix.rows) + len(instance.matrix.cols)
        if n > max_ground:
            raise ToolkitError(
                f"instance ground set has {n} elements, above --max-ground {max_ground}"
            )
        report["instance"] = serialize_instance(instance)
        task = instance.task

        if command == "check-xfragile":
            fail = x_fragile_failure(instance.matrix, task.x, cap=max_ground)
            report["verdict"] = fail is None
            report["witness"] = _witness_json(fail)
            return done(0)

        M = ReprMatroid(instance.matrix)

        if command == "check-nfragile":
            parts = fragile_partitions(M, task.minor, cap=max_ground)
            report["verdict"] = len(parts) == 1
            report["partitions"] = [
                {"contract": sorted(p.contract), "delete": sorted(p.delete)}
                for p in sorted(parts, key=lambda p: (sorted(p.contract), sorted(p.delete)))
            ]
            return done(0)

        if command == "relax":
            M1, M2, H = relax_entry(M, task.contract, task.delete, cap=max_ground)
            report["verdict"] = True
            report["h"] = sorted(H)
            report["field"] = field_to_json(M2.field)
            report["relaxed"] = matrix_to_json(M1.rep)
            report["relaxation"] = matrix_to_json(M2.rep)
            return done(0)

        # pipeline
        tr = run_pipeline(M, task.minor, conformance=conformance, cap=max_ground)
        report["verdict"] = True
        report["conformance"] = tr.conformance
        report["displayed_basis"] = sorted(tr.displayed_basis)
        report["coloop_side"] = sorted(tr.coloop_side)
        report["loop_side"] = sorted(tr.loop_side)
        report["c"] = tr.c_label
        report["d"] = tr.d_label
        report["h"] = sorted(tr.hyperplane)
        report["final_degree"] = tr.final_degree_over_input
        report["degree_bound"] = tr.degree_bound
        report["field"] = field_to_json(tr.relaxation.field)
        report["stages"] = [_stage_json(s) for s in tr.stages]
        report["relaxed"] = matrix_to_json(tr.relaxed.rep)
        report["relaxation"] = matrix_to_json(tr.relaxation.rep)
        return done(0)

    except PostconditionViolation as exc:
        report["verdict"] = False
        report["error"] = {"type": "PostconditionViolation", "message": str(exc)}
        return done(1)
    except ToolkitError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        return done(2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="matroidfrag",
        description="Certified reductions for fragile represented matroids.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", metavar="PATH", help="instance JSON file")
    parser.add_argument("--seed", type=int, default=0, help="suite seed (default 0)")
    parser.add_argument(
        "--max-ground", type=int, default=16, dest="max_ground",
        help="largest allowed ground set and enumeration cap (default 16)",
    )
    parser.add_argument(
        "--conformance", action="store_true",
        help="pipeline only: build the uniform-degree tower to exactly 2k^2",
    )
    parser.add_argument("--report", metavar="PATH", help="also write the report here")
    parser.add_argument(
        "--suite", default="all", choices=("all", *SUITE_NAMES),
        help="verify-suite only: which suite to run (default all)",
    )
    args = parser.parse_args(argv)

    def refuse(kind: str, message: str) -> int:
        print(json.dumps({"command": args.command,
                          "error": {"type": kind, "message": message}}))
        return 2

    if args.max_ground < 1:
        return refuse("InvalidArgs", "--max-ground must be positive")

    instance = None
    if args.input is not None:
        try:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            return refuse("MalformedJson", f"cannot read {args.input}: {exc}")
        try:
            instance = parse_instance(text)
        except ToolkitError as exc:
            return refuse(type(exc).__name__, str(exc))

    # opened before the run: an unwritable path is invalid input
    out = None
    if args.report is not None:
        try:
            out = open(args.report, "w", encoding="utf-8")
        except OSError as exc:
            return refuse("InvalidArgs", f"cannot write {args.report}: {exc}")

    report, code = run(
        args.command,
        instance,
        seed=args.seed,
        max_ground=args.max_ground,
        conformance=args.conformance,
        suite=args.suite,
    )
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out is not None:
        with out:
            out.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
