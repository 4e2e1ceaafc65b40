"""In-process A/B timing of two source trees of matroidfrag.

Usage: python3 tools/ab_inprocess.py PARENT_SRC CHANGE_SRC
           --workload certify|generate|suites [--seeds N ...] [--rounds R]
           [--ops K]

Each `src/` tree is loaded under its own package name, so the two
versions run side by side in one process on the same host state.
`bench/workloads.py` is loaded once per tree, read-only (no bytecode is
written there), with that tree's package as `matroidfrag`.  The pool of
one seed is drawn by a third copy of PARENT_SRC, loaded and dropped
before the two sides load, and handed to each side as JSON.
A `certify` or `generate` op is run by the side's own copy of the
workload's `run_op`: a `certify` op is one `pipeline` on a fragile
pair, parsed by each side's `parse_instance`; a `generate` op is one
`gen_random` draw with its retries.  A `suites` op is one
`suites.run_suite(name, seed)`, one per name in `suites.SUITES`, in
order, and its output is the report with `timing_ms` stripped
(`canonical_report`).  `--ops K` keeps the first K ops of the pool.

Each op is prepared on both sides and run once on each side untimed,
and the two sides must agree on its output.  Then each round times
every op on both sides and sums each side's times.  In every pass the
side that goes first alternates from op to op, and in the rounds from
round to round too: a side that prepared and ran every op first read
slower in the rounds that followed.  The round ratio is CHANGE /
PARENT, so a ratio below 1 means the change is faster.  Per seed, the
median round ratio and the rounds the change won are printed; the last
line gives, over all rounds, the median, the rounds the change won and
the quartiles of the round ratios.  A few-percent difference that
separate processes cannot resolve on a busy host shows here, and the
quartiles show whether a ratio near a threshold is resolved: when they
straddle it, it is not.
The process keeps to one CPU, the least it may run on, as
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


def in_turn(k: int, call_a, call_b) -> tuple:
    """(call_a(), call_b()), called in the order that alternates with k:
    a first when k is even."""
    if k % 2:
        b = call_b()
        return call_a(), b
    a = call_a()
    return a, call_b()


def ab_rounds(ops, run_a, run_b, rounds: int) -> list[float]:
    """Each round's CHANGE / PARENT ratio of summed op times; `ops` is
    the (parent, change) pair of each prepared op, and `run_a` and
    `run_b` the parent's and the change's run."""
    for i, (a, b) in enumerate(ops):
        out_a, out_b = in_turn(i, lambda: run_a(a)[1], lambda: run_b(b)[1])
        if out_a != out_b:
            raise SystemExit(f"op {i}: the two trees' outputs differ")
    ratios = []
    for r in range(rounds):
        gc.collect()
        ta = tb = 0.0
        for i, (a, b) in enumerate(ops):
            t_a, t_b = in_turn(i + r, lambda: run_a(a)[0], lambda: run_b(b)[0])
            ta += t_a
            tb += t_b
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
    pkg = load_package(args.parent_src, "ab_pool")
    workloads = load_workloads(pkg)
    pools = [draw_pool(pkg, workloads, args.workload, seed)[:args.ops] for seed in args.seeds]
    for name in [name for name in sys.modules if name.partition(".")[0] == "ab_pool"]:
        del sys.modules[name]
    del pkg, workloads
    gc.collect()
    pkgs = [load_package(args.parent_src, "ab_parent"), load_package(args.change_src, "ab_change")]
    (prepare_a, run_a), (prepare_b, run_b) = (SIDES[args.workload](pkg, load_workloads(pkg))
                                              for pkg in pkgs)
    every = []
    for seed, pool in zip(args.seeds, pools):
        ops = [in_turn(i, lambda: prepare_a(text), lambda: prepare_b(text))
               for i, text in enumerate(pool)]
        ratios = ab_rounds(ops, run_a, run_b, args.rounds)
        every += ratios
        won = sum(x < 1 for x in ratios)
        print(f"{args.workload} seed {seed}: {len(pool)} ops, median ratio "
              f"{statistics.median(ratios):.3f}, change won {won}/{len(ratios)} rounds "
              f"[{' '.join(f'{x:.3f}' for x in ratios)}]")
    # one round's ratio is its own quartiles
    q1, _, q3 = (statistics.quantiles(every, n=4, method="inclusive") if len(every) > 1
                 else every * 3)
    print(f"median ratio over {len(every)} rounds: {statistics.median(every):.3f}, change won "
          f"{sum(x < 1 for x in every)}/{len(every)} rounds, quartiles {q1:.3f} {q3:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
