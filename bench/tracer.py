"""Timing wrappers around the public functions of each matroidfrag layer.

Installed only for the traced run of a workload.  Every wrapped callable
opens a span; a span's self time is its duration minus the time covered
by wrapped calls made inside it.  Stage-level calls (the fragility
searches, reduction stages, field construction, instance codec, CLI run)
are also kept as individual spans, (id, name, start, end, parent, op),
and written out when the run ends.  Hot leaf calls (rank queries,
minors, equality checks) fire hundreds of thousands of times per large
certificate, so they are aggregated into calls and times only.  A few
callables are counted without timing: the GF(2) and generic rank
kernels, duality, and the partition enumerator behind
`fragile_partitions`.

The wrappers replace a function in every matroidfrag module namespace
that binds it (`reductions.fragile_partitions` as well as
`fragility.fragile_partitions`, `cli.run_pipeline` as well as
`reductions.pipeline`), so calls are seen whichever import path the
caller used.  `uninstall` puts every original back.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

from matroidfrag import errors, matroids

# (module, attribute, metric name, keep individual spans)
FUNCTIONS = [
    ("galois", "extend_field", "galois.extend_field", True),
    ("galois", "is_irreducible", "galois.is_irreducible", True),
    ("matrices", "submatrix_rank", "matrices.submatrix_rank", False),
    ("fragility", "fragile_partitions", "fragility.fragile_partitions", True),
    ("fragility", "display_basis", "fragility.display_basis", True),
    ("fragility", "x_fragile_failure", "fragility.x_fragile_failure", True),
    ("reductions", "zero_out", "reductions.zero_out", True),
    ("reductions", "free_extension", "reductions.free_extension", True),
    ("reductions", "collapse_side", "reductions.collapse_side", True),
    ("reductions", "relax_entry", "reductions.relax_entry", True),
    ("reductions", "pipeline", "reductions.pipeline", True),
    ("instances", "gen_random", "instances.gen_random", True),
    ("instances", "parse_instance", "instances.parse_instance", True),
    ("cli", "run", "cli.run", True),
]

# (class, method, metric name)
METHODS = [
    (matroids.ReprMatroid, "rank", "matroids.rank"),
    (matroids.ReprMatroid, "minor", "matroids.minor"),
    (matroids.ReprMatroid, "equals", "matroids.equals"),
    (matroids.ReprMatroid, "rebase", "matroids.rebase"),
]

# counted, not timed: (module, attribute, counter name)
COUNTED = [
    ("matrices", "rank_gf2", "matrices.rank_gf2.calls"),
    ("matrices", "_rank_generic", "matrices.rank_generic.calls"),
]
COUNTED_METHODS = [(matroids.ReprMatroid, "dual", "matroids.dual.calls")]
# generators whose yielded items are counted: (module, attribute, counter)
COUNTED_ITEMS = [
    ("fragility", "partitions_of", "fragility.fragile_partitions.partitions_computed"),
]

TIMED_NAMES = [name for _, _, name, _ in FUNCTIONS] + [name for _, _, name in METHODS]


def _package_modules():
    return [m for n, m in sys.modules.items()
            if m is not None and (n == "matroidfrag" or n.startswith("matroidfrag."))]


class Tracer:
    """Span stack, per-name aggregates and counters for one traced run."""

    def __init__(self):
        self.op = None
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.total: dict[str, float] = {n: 0.0 for n in TIMED_NAMES}
        self.self_time: dict[str, float] = {n: 0.0 for n in TIMED_NAMES}
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name, fn, keep, before=None, after=None):
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if keep:
                sid = self._next_id
                self._next_id += 1
            else:
                sid = parent
            frame = [0.0, sid]
            if before is not None:
                before(args, kwargs)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if after is not None:
                    after(args, kwargs, None, exc)
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                calls[name] += 1
                total[name] += d
                self_time[name] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if keep:
                    spans.append((sid, name, t0, t1, parent, self.op))
            if after is not None:
                after(args, kwargs, result, None)
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_items(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    # -- per-callable hooks --------------------------------------------------

    def _rank_before(self, args, kwargs):
        m = args[0]
        X = args[1] if len(args) > 1 else kwargs.get("X")
        if X is None:
            return
        key = X if isinstance(X, frozenset) else frozenset(X)
        if key not in m._rank_cache:
            self.counts["matroids.rank.misses"] += 1

    def _partitions_after(self, args, kwargs, result, exc):
        if exc is None and len(result) == 1:
            self.counts["fragility.fragile_partitions.positive"] += 1

    def _gen_after(self, args, kwargs, result, exc):
        if exc is None:
            self.counts["instances.accepted"] += 1
            self.counts["instances.draws"] += result.rejections + 1
        elif isinstance(exc, errors.Exhausted):
            self.counts["instances.draws"] += kwargs.get("max_attempts", 10000)

    # -- install / uninstall -------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> "Tracer":
        # (before, after) hooks of the callables that feed counters
        hooks = {
            "matroids.rank": (self._rank_before, None),
            "fragility.fragile_partitions": (None, self._partitions_after),
            "instances.gen_random": (None, self._gen_after),
        }
        pkg = sys.modules["matroidfrag"]
        for modname in {m for m, *_ in FUNCTIONS + COUNTED + COUNTED_ITEMS}:
            importlib.import_module(f"matroidfrag.{modname}")
        for modname, attr, name, keep in FUNCTIONS:
            original = getattr(getattr(pkg, modname), attr)
            before, after = hooks.get(name, (None, None))
            self._replace_everywhere(original, self._timed(name, original, keep, before, after))
        for modname, attr, key in COUNTED:
            original = getattr(getattr(pkg, modname), attr)
            self._replace_everywhere(original, self._counted(key, original))
        for modname, attr, key in COUNTED_ITEMS:
            mod = getattr(pkg, modname)
            original = getattr(mod, attr)
            self._undo.append((mod, attr, original))
            setattr(mod, attr, self._counted_items(key, original))
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            before, after = hooks.get(name, (None, None))
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._timed(name, original, False, before, after))
        for cls, attr, key in COUNTED_METHODS:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._counted(key, original))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def state(self) -> dict:
        """JSON-ready aggregates and spans, mergeable across processes."""
        return {
            "calls": dict(self.calls),
            "total_s": self.total,
            "self_s": self.self_time,
            "counts": dict(self.counts),
            "spans": [list(s) for s in self.spans],
        }


def merge_states(states: list[dict]) -> dict:
    """Sum aggregates of several traced processes, renumbering each
    state's span ids in turn so they stay unique."""
    out = {"calls": Counter(), "total_s": Counter(), "self_s": Counter(),
           "counts": Counter(), "spans": []}
    base = 0
    for st in states:
        for key in ("calls", "total_s", "self_s", "counts"):
            out[key].update(st[key])
        top = base
        for sid, name, t0, t1, parent, op in st["spans"]:
            out["spans"].append([sid + base, name, t0, t1,
                                 None if parent is None else parent + base, op])
            top = max(top, sid + base + 1)
        base = top
    return out
