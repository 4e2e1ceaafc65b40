"""In-process A/B timing of two source trees of matroidfrag.

Usage: python3 tools/ab_inprocess.py PARENT_SRC CHANGE_SRC
           --workload certify|generate|suites [--seeds N ...] [--rounds R]
           [--ops K]

Each `src/` tree is loaded under its own package name, so the two
versions run side by side in one process on the same host state.
`bench/workloads.py` is loaded once per tree, read-only (no bytecode is
written there), with that tree's package as `matroidfrag`.  The pool of
one seed is drawn by PARENT_SRC's copy and handed to each side as JSON.
A `certify` or `generate` op is run by the side's own copy of the
workload's `run_op`: a `certify` op is one `pipeline` on a fragile
pair, parsed by each side's `parse_instance`; a `generate` op is one
`gen_random` draw with its retries.  A `suites` op is one
`suites.run_suite(name, seed)`, one per name in `suites.SUITES`, in
order, and its output is the report with `timing_ms` stripped
(`canonical_report`).  `--ops K` keeps the first K ops of the pool.

Every op runs once on each side untimed first, and the two sides must
agree on its output.  Then each round times every op on both sides, the
side that runs first alternating from op to op, and sums each side's
times.  The round ratio is CHANGE / PARENT, so a ratio below 1 means the
change is faster.  Per seed, the median round ratio and the rounds the
change won are printed, then the median over all rounds.  A few-percent
difference that separate processes cannot resolve on a busy host shows
here.  The process keeps to one CPU, the least it may run on, as
`bench/run.py` does, and runs unpinned where it may not set that.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def load_package(src: Path, name: str):
    """The package `matroidfrag` of the tree `src`, imported as `name`."""
    pkg = Path(src).resolve() / "matroidfrag"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"no matroidfrag package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(pkg):
    """`bench/workloads.py` run against `pkg`: loaded under its own name,
    with `sys.modules["matroidfrag"]` pointed at `pkg` while it executes,
    and no bytecode written under bench/."""
    real = sys.modules.get("matroidfrag")
    sys.modules["matroidfrag"] = pkg
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(f"{pkg.__name__}_workloads",
                                                      BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        if real is None:
            del sys.modules["matroidfrag"]
        else:
            sys.modules["matroidfrag"] = real
    return module


def draw_pool(pkg, workloads, workload: str, seed: int) -> list[str]:
    """The seed's ops, drawn by `workloads` against `pkg`, as JSON texts."""
    if workload == "suites":
        suites = importlib.import_module(f"{pkg.__name__}.suites")
        return [json.dumps([name, seed]) for name in suites.SUITES]
    if workload == "certify":
        w = workloads.Certify(seed)
        w.setup()
        return [json.dumps(pkg.serialize_instance(inst)) for _, inst in w.ops()]
    w = workloads.Generate(seed)
    w.catalogue = workloads.generate_catalogue()
    return [json.dumps(op) for op in w.ops()]


def certify_side(pkg, workloads):
    """Parse an op for this side, and run it as the workload does: time
    of `pipeline` alone, and the output the two sides must agree on."""
    run_op = workloads.Certify(0).run_op

    def run(op):
        t, tr = run_op(op)
        return t, (tr.final_degree_over_input, sorted(tr.hyperplane), tr.relaxation.rep._data)
    return lambda text: (None, pkg.parse_instance(text)), run


def generate_side(pkg, workloads):
    run_op = workloads.Generate(0).run_op

    def run(op):
        t, g = run_op(op)
        return t, (g.rejections, pkg.serialize_instance(g.instance))
    return json.loads, run


def suites_side(pkg, workloads):
    suites = importlib.import_module(f"{pkg.__name__}.suites")

    def run(op):
        name, seed = op
        t0 = perf_counter()
        report = suites.run_suite(name, seed)
        t = perf_counter() - t0
        return t, suites.canonical_report(report)
    return json.loads, run


def ab_rounds(sides, rounds: int) -> list[float]:
    """Each round's CHANGE / PARENT ratio of summed op times; `sides` is
    [(ops, run)] for the parent, then the change."""
    (ops_a, run_a), (ops_b, run_b) = sides
    for i, (a, b) in enumerate(zip(ops_a, ops_b)):
        if run_a(a)[1] != run_b(b)[1]:
            raise SystemExit(f"op {i}: the two trees' outputs differ")
    ratios = []
    for r in range(rounds):
        gc.collect()
        ta = tb = 0.0
        for i, (a, b) in enumerate(zip(ops_a, ops_b)):
            if (i + r) % 2:
                tb += run_b(b)[0]
                ta += run_a(a)[0]
            else:
                ta += run_a(a)[0]
                tb += run_b(b)[0]
        ratios.append(tb / ta)
    return ratios


SIDES = {"certify": certify_side, "generate": generate_side, "suites": suites_side}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src", type=Path)
    ap.add_argument("change_src", type=Path)
    ap.add_argument("--workload", choices=tuple(SIDES), required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--rounds", type=int, default=8)
    ap.add_argument("--ops", type=int, default=None, help="keep the first K ops of each pool")
    args = ap.parse_args(argv)
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass  # not allowed here: the rounds then run on any CPU
    side = SIDES[args.workload]
    pkgs = [load_package(args.parent_src, "ab_parent"), load_package(args.change_src, "ab_change")]
    workloads = [load_workloads(pkg) for pkg in pkgs]
    every = []
    for seed in args.seeds:
        pool = draw_pool(pkgs[0], workloads[0], args.workload, seed)[:args.ops]
        sides = []
        for pkg, wl in zip(pkgs, workloads):
            prepare, run = side(pkg, wl)
            sides.append(([prepare(text) for text in pool], run))
        ratios = ab_rounds(sides, args.rounds)
        every += ratios
        won = sum(x < 1 for x in ratios)
        print(f"{args.workload} seed {seed}: {len(pool)} ops, median ratio "
              f"{statistics.median(ratios):.3f}, change won {won}/{len(ratios)} rounds "
              f"[{' '.join(f'{x:.3f}' for x in ratios)}]")
    print(f"median ratio over {len(every)} rounds: {statistics.median(every):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
