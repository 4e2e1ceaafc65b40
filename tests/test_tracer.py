"""Smoke test of the benchmark's tracer against the current package.

bench/tracer.py wraps functions and methods of matroidfrag by name, and
reads `ReprMatroid._rank_cache` in a hook.  A renamed or deleted binding
would only show in a traced benchmark run, which the test suite does
not make.  This test installs the tracer in-process, runs one
generation of each instance kind, one pipeline and one reduce_to_two,
and checks that the calls and the partition search's leaves were
counted and that uninstalling restores every patched attribute.  bench/ is put on sys.path for the import
only.
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
        # the public collapse of the loop side, reached through reduce_to_two
        pair = isolated({"c"}, {"c", "d"})
        reductions.reduce_to_two(pair, {"c"}, {"d"}, "c2", "d2")
    finally:
        tr.uninstall()
    assert tr.calls["instances.gen_random"] == 4
    assert tr.calls["reductions.pipeline"] == 1
    assert tr.calls["reductions.collapse_side"] == 1
    assert tr.counts["instances.accepted"] == 4
    # the search's leaves, counted through the leaf's `partitions_of`
    # loop (19 when that loop also placed the last element, 13 before
    # the GF(2) span tests skipped nodes)
    assert tr.counts["fragility.fragile_partitions.partitions_computed"] == 4
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
