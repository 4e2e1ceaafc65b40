"""Smoke test of the benchmark's tracer against the current package.

bench/tracer.py wraps functions and methods of matroidfrag by name, and
reads `ReprMatroid._rank_cache` in a hook.  A renamed or deleted binding
would only show in a traced benchmark run, which the test suite does
not make.  This test installs the tracer in-process, runs one
generation of each instance kind, one pipeline and one public
collapse_side, and checks that the calls and the partition search's
leaves were counted and that uninstalling restores every patched
attribute.  bench/ is put on sys.path for the import only.
"""

from pathlib import Path

from matroidfrag import ReprMatroid, instances, isolated, reductions

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_counts_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    tr = Tracer().install()
    try:
        patched = list(tr._undo)
        gis = {kind: instances.gen_random(kind, seed=1)
               for kind in ("xfragile", "nfragile", "relax", "pipeline")}
        inst = gis["pipeline"].instance
        reductions.pipeline(ReprMatroid(inst.matrix), inst.task.minor)
        # the public collapse of the loop side, on the pair's display
        pair = isolated({"c"}, {"c", "d"})
        reductions.collapse_side(pair.rep, {"c"}, {"d"}, "d2")
    finally:
        tr.uninstall()
    assert tr.calls["instances.gen_random"] == 4
    assert tr.calls["reductions.pipeline"] == 1
    assert tr.calls["reductions.zero_out"] == 1
    # the pipeline's sides are single, so only the public call collapses
    assert tr.calls["reductions.collapse_side"] == 1
    assert tr.counts["instances.accepted"] == 4
    # the search's leaves, counted through the leaf's `partitions_of`
    # loop (19 when that loop also placed the last element, 13 before
    # the GF(2) span tests skipped nodes, 4 while the public collapse
    # searched partitions of its own)
    assert tr.counts["fragility.fragile_partitions.partitions_computed"] == 3
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)


def test_traced_pipeline_counts_its_free_extensions_and_rank_query(monkeypatch):
    # the chain calls `reductions.free_extension` by its module name, so
    # the tracer times each collapse's extension, and `partition_basis`
    # makes the one rank query of a pipeline; otherwise the benchmark's
    # `reductions.free_extension.self_ms` would read 0 and its
    # `matroids.rank.calls` check on `certify` would fail
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    gi = instances.gen_random("pipeline", seed=1, q=2, rows=4, cols=4, minor_size=4)
    M, N = ReprMatroid(gi.instance.matrix), gi.instance.task.minor
    tr = Tracer().install()
    try:
        trace = reductions.pipeline(M, N)
    finally:
        tr.uninstall()
    assert [s.details.get("skipped", False) for s in trace.stages[1:3]] == [False, False]
    assert tr.calls["reductions.free_extension"] == 2
    assert tr.self_time["reductions.free_extension"] > 0
    assert tr.calls["matroids.rank"] >= 1


def test_traced_pipeline_times_its_zeroing_and_both_collapses(monkeypatch):
    # the chain calls `reductions.zero_out` and `reductions.collapse_side`
    # by their module names, so a pipeline that collapses both sides
    # shows one zeroing and two collapses, each with time of its own;
    # otherwise their `self_ms` in the benchmark would read 0
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    gi = instances.gen_random("pipeline", seed=1, q=2, rows=4, cols=4, minor_size=4)
    M, N = ReprMatroid(gi.instance.matrix), gi.instance.task.minor
    tr = Tracer().install()
    try:
        trace = reductions.pipeline(M, N)
    finally:
        tr.uninstall()
    assert [s.details.get("skipped", False) for s in trace.stages[1:3]] == [False, False]
    assert tr.calls["reductions.zero_out"] == 1
    assert tr.calls["reductions.collapse_side"] == 2
    assert tr.self_time["reductions.zero_out"] > 0
    assert tr.self_time["reductions.collapse_side"] > 0
