"""Every public call frees what it made by reference counting alone.

A recursive inner function that refers to itself through its closure
cell makes a cycle on every call, and the search's closures (N's
display, N's rank table) then stay alive until the cyclic collector
runs.  Each call below runs with the collector disabled, and then
leaves nothing for it to free.
"""

import gc
from functools import partial

import pytest

from matroidfrag import (
    CapExceeded, LabeledMatrix, ReprMatroid, fragile_partitions, gen_random, pipeline, suites,
)
from matroidfrag.cli import run
from matroidfrag.matrices import rank_table
from reference import GF3, with_entry


def pair(q):
    gi = gen_random("pipeline", seed=1, q=q, rows=4, cols=4, minor_size=4)
    return ReprMatroid(gi.instance.matrix), gi.instance.task.minor


def scaled(rows, cols, e):
    """M over GF(3) with every entry one, and N its display with row e
    scaled by 2: the same matroid, whose one leaf needs N's table."""
    A = LabeledMatrix(GF3, rows, cols, [[1] * len(cols)] * len(rows))
    N = A
    for f in cols:
        N = with_entry(N, e, f, 2)
    return ReprMatroid(A), ReprMatroid(N)


def refused(M, N):
    try:
        fragile_partitions(M, N)
    except CapExceeded:
        return
    raise AssertionError("the search was not refused")


def cli_pipeline():
    gi = gen_random("pipeline", seed=1, q=2, rows=4, cols=4, minor_size=4)
    return partial(run, "pipeline", gi.instance)


def gen(kind, **shape):
    return partial(gen_random, kind, seed=2, q=3, **shape)


def equals_and_bases():
    M = pair(3)[0]
    return lambda: (M.equals(M), M.bases())


def canonical_report():
    report, _ = cli_pipeline()()
    return partial(suites.canonical_report, report)


# each set-up, run with the collector on, returns the call to check
CASES = {
    "search-gf2": lambda: partial(fragile_partitions, *pair(2)),
    "search-gf3": lambda: partial(fragile_partitions, *pair(3)),
    "search-with-tables": lambda: partial(fragile_partitions, *scaled("ab", "cd", "a")),
    # 17 elements: N's table is refused at the leaf, inside the search
    "search-refused": lambda: partial(refused, *scaled(
        [f"r{i}" for i in range(8)], [f"c{j}" for j in range(9)], "r0")),
    "pipeline": lambda: partial(pipeline, *pair(2)),
    "pipeline-conformance": lambda: partial(pipeline, *pair(3), conformance=True),
    "gen-xfragile": lambda: gen("xfragile", rows=3, cols=3, x_rows=1, x_cols=1),
    "gen-relax": lambda: gen("relax", rows=3, cols=3),
    "gen-nfragile": lambda: gen("nfragile", rows=3, cols=4, minor_size=3),
    "gen-pipeline": lambda: gen("pipeline", rows=3, cols=4, minor_size=3),
    "rank-table": lambda: partial(rank_table, pair(3)[0].rep, ["c0", "c1", "r0", "r1", "r2"]),
    "equals-bases": equals_and_bases,
    "canonical-report": canonical_report,
    "cli-pipeline": cli_pipeline,
}


@pytest.mark.parametrize("name", list(CASES))
def test_a_public_call_leaves_no_cycle(name):
    call = CASES[name]()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
