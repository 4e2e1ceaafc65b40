"""matroidfrag benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from the `src/` next to this
directory, never from an installed copy.  Workloads are described in
`workloads.py`, layer tracing in `tracer.py`.

--trace 0  set up SETUPS times (setup_s is their median), then run the
           workload's op list in round(--seconds / round_s) rounds, at
           least 1; every time is wall time at the meter's nominal speed
           (see Meter), and the raw wall times go to the run record.
--trace 1  set up once and run the first ops of the workload, as many as
           its nominal trace rate gives for --seconds, twice: untraced and
           then with the tracer installed; prints the per-layer metrics,
           the tracing overhead, and the cold-tower and field-kernel table
           measured in fresh interpreters.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
A per-run record (environment, op and percentile sample counts, per-class
latencies, metrics) goes to bench/_work/, with the traced run's spans.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from bisect import bisect_left, bisect_right
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUPS = 3
REPLAY_OPS = 24
METER_DATA = tuple(range(256)) * 32
# one meter sample takes about METER_NOMINAL_S on the 2-core, 2 GHz Xeon
# host the benchmark was written on, so scaled times read as times there
METER_NOMINAL_S = 0.001
METER_EVERY_S = 0.02
METER_BURST = 8
METER_WINDOW_S = 0.25
PROBE_TOWERS = ("gf2_k2", "gf2_k3", "gf2_k4", "gf3_k3")


def _die(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_package() -> None:
    pkg = SRC / "matroidfrag"
    if not (pkg / "__init__.py").is_file():
        _die(f"no package source at {pkg}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import matroidfrag

    if Path(matroidfrag.__file__).resolve().parent != pkg.resolve():
        _die(f"imported matroidfrag from {matroidfrag.__file__}, not {pkg}")


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100)[p - 1]


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mb(workload: str) -> float:
    """Peak RSS of the worker: this process, or for conformance-cold the
    largest child it waited for."""
    who = resource.RUSAGE_CHILDREN if workload == "conformance-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def tail_percentile(ms: list[float]) -> int:
    """90, or else the highest percentile with at least 10 samples beyond it."""
    for p in range(90, 50, -1):
        v = percentile(ms, p)
        if sum(x > v for x in ms) >= 10:
            return p
    return 50


def _meter_loop(data=METER_DATA) -> float:
    """Wall time of a fixed loop that allocates nothing: every value stays
    a cached small int, so the program's heap and GC cannot reach it."""
    acc = 0
    t0 = perf_counter()
    for x in data:
        acc = (acc + x) & 255
        acc = (acc ^ (x >> 1)) & 255
    return perf_counter() - t0


class Meter:
    """The host's speed, sampled through the run.

    The host is shared and its speed drifts by a third over minutes, so
    two runs of the same code, minutes apart, differ that much in wall
    time.  Between ops (and between the steps of a set-up) the meter
    times a fixed loop, once per METER_EVERY_S that has passed since its
    last sample and at most METER_BURST times in a row, and a span of
    work is scaled to the meter's nominal speed by the mean of the
    samples taken within METER_WINDOW_S of it: a span timed while the
    loop took 1.3 ms instead of 1 ms counts 1/1.3 of its wall time.
    """

    def __init__(self):
        self.t: list[float] = []
        self.v: list[float] = []
        self.spent = 0.0
        self.last = float("-inf")

    def sample(self, force: bool = False) -> None:
        n = int(min(METER_BURST, (perf_counter() - self.last) / METER_EVERY_S))
        if force:
            n = max(n, 1)
        for _ in range(n):
            dt = _meter_loop()
            self.t.append(perf_counter())
            self.v.append(dt)
            self.spent += dt
            self.last = self.t[-1]

    def scale(self, start: float, end: float) -> float:
        """Nominal over actual speed around the span [start, end]."""
        lo = bisect_left(self.t, start - METER_WINDOW_S)
        hi = bisect_right(self.t, end + METER_WINDOW_S)
        near = self.v[lo:hi]
        return METER_NOMINAL_S * len(near) / sum(near)

    def summary(self) -> dict:
        return {"samples": len(self.v),
                "median_ms": 1000 * statistics.median(self.v),
                "min_ms": 1000 * min(self.v), "max_ms": 1000 * max(self.v)}


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU, so that the meter
    samples the core the work runs on."""
    cpu = min(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # not allowed here: the meter then samples any core
        return None
    return cpu


class Tally:
    """Attempted and failed ops, each completed op's latency, and the time
    spent checking outputs."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.ops: list[tuple[float, str]] = []  # (latency s, class label)
        self.spans: list[tuple[float, float]] = []  # (start, end) of each op in ops
        self.check_s = 0.0

    def run(self, w, op, checked: bool = True, run_op=None):
        """One op, by `run_op` or else the workload's own; its output,
        or None when it failed."""
        self.attempted += 1
        start = perf_counter()
        try:
            dt, out = (run_op or w.run_op)(op)
            end = perf_counter()
            if checked:
                t0 = perf_counter()
                try:
                    w.check(op, out)
                finally:
                    self.check_s += perf_counter() - t0
        except Exception:  # every failure is counted and reported, the run goes on
            self.failures.append(traceback.format_exc(limit=3))
            return None
        self.ops.append((dt, w.label(op)))
        self.spans.append((start, end))
        return out

    def latencies(self) -> list[float]:
        return [dt for dt, _ in self.ops]

    def classes(self) -> dict:
        by_class = defaultdict(list)
        for dt, label in self.ops:
            by_class[label].append(dt)
        return {k: {"ops": len(v), "median_ms": 1000 * statistics.median(v)}
                for k, v in sorted(by_class.items())}


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def run_untraced(args, cls, record: dict) -> tuple[Tally, dict]:
    record["cpu"] = pin_to_one_cpu()
    meter = Meter()
    setups, setups_raw = [], []
    for _ in range(SETUPS):
        w = cls(args.seed)
        w.tick = meter.sample
        meter.sample(force=True)
        spent, t0 = meter.spent, perf_counter()
        w.setup()
        t1 = perf_counter()
        raw = t1 - t0 - (meter.spent - spent)  # less the meter's own samples
        meter.sample(force=True)
        setups_raw.append(raw)
        setups.append(raw * meter.scale(t0, t1))

    ops = w.ops()
    rounds = max(1, round(args.seconds / cls.round_s))
    # outputs are kept only for the replay check, so they do not add to peak RSS
    replay = getattr(w, "replay_check", None)
    first: list = []
    tally = Tally()
    t_start = perf_counter()
    for _ in range(rounds):
        for op in ops:
            meter.sample()
            out = tally.run(w, op)
            if replay and out is not None and len(first) < REPLAY_OPS:
                first.append((op, out))
    meter.sample(force=True)
    wall = perf_counter() - t_start
    if replay:
        try:
            replay(first)
        except Exception:  # a nondeterministic draw is a failed op
            tally.attempted += 1
            tally.failures.append(traceback.format_exc(limit=3))

    raw_ms = [1000 * x for x in tally.latencies()]
    ms = [x * meter.scale(*span) for x, span in zip(raw_ms, tally.spans)]
    if len(ms) < 2:  # no latency percentile to report
        print(*tally.failures[:5], sep="\n", file=sys.stderr)
        _die(f"only {len(ms)} of {tally.attempted} ops completed")
    p = tail_percentile(ms)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(1000 * len(ms) / sum(ms), "1/s"),
        "latency_p50_ms": metric(percentile(ms, 50), "ms"),
        "latency_p90_ms": metric(percentile(ms, p), "ms"),
        "ok_frac": metric((tally.attempted - len(tally.failures)) / tally.attempted, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb(cls.name), "MB"),
    }
    record.update({
        "setup_s_all": setups,
        "rounds": rounds,
        "timed_wall_s": wall,
        "check_s": tally.check_s,
        "meter": meter.summary(),
        "raw": {
            "setup_s": statistics.median(setups_raw),
            "setup_s_all": setups_raw,
            "ops_per_s": 1000 * len(raw_ms) / sum(raw_ms),
            "latency_p50_ms": percentile(raw_ms, 50),
            "latency_p90_ms": percentile(raw_ms, p),
        },
        "ops": {"attempted": tally.attempted, "completed": len(ms),
                "failed": len(tally.failures), "distinct": len(ops)},
        "percentiles": {
            "latency_p50_ms": {"percentile": 50, "samples": len(ms)},
            "latency_p90_ms": {"percentile": p, "samples": len(ms),
                               "beyond": sum(x > metrics["latency_p90_ms"]["value"] for x in ms)},
        },
        "classes": tally.classes(),
        "latencies_ms": [[label, round(x, 3), round(y, 3)]
                         for (_, label), x, y in zip(tally.ops, raw_ms, ms)],
    })
    return tally, metrics


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def galois_probes(seed: int) -> dict:
    from workloads import child_env

    out = {}
    for tower in PROBE_TOWERS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "galois_probe.py"), "--tower", tower, "--seed", str(seed)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=150, check=True)
        out[tower] = json.loads(proc.stdout)
    return out


def per_layer_metrics(agg: dict, overhead_pct: float, startup_ms: float, probes: dict) -> dict:
    calls, self_s, counts = agg["calls"], agg["self_s"], agg["counts"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {}
    for name in ("fragility.fragile_partitions", "fragility.display_basis",
                 "fragility.x_fragile_failure", "matroids.rank", "matroids.minor",
                 "matroids.equals", "matroids.rebase", "matrices.submatrix_rank",
                 "galois.extend_field", "galois.is_irreducible", "instances.gen_random"):
        m[f"{name}.calls"] = metric(calls.get(name, 0), "count")
        m[f"{name}.self_ms"] = metric(1000 * self_s.get(name, 0.0), "ms")
    for name in ("reductions.zero_out", "reductions.collapse_side", "reductions.free_extension",
                 "reductions.relax_entry", "reductions.pipeline", "instances.parse_instance",
                 "cli.run"):
        m[f"{name}.self_ms"] = metric(1000 * self_s.get(name, 0.0), "ms")
    fp = "fragility.fragile_partitions"
    m[f"{fp}.partitions_computed"] = metric(counts.get(f"{fp}.partitions_computed", 0), "count")
    m[f"{fp}.positive_frac"] = metric(ratio(counts.get(f"{fp}.positive", 0), calls.get(fp, 0)),
                                      "ratio")
    m["matroids.rank.miss_frac"] = metric(
        ratio(counts.get("matroids.rank.misses", 0), calls.get("matroids.rank", 0)), "ratio")
    for key in ("matroids.dual.calls", "matrices.rank_gf2.calls", "matrices.rank_generic.calls"):
        m[key] = metric(counts.get(key, 0), "count")
    m["instances.accept_frac"] = metric(
        ratio(counts.get("instances.accepted", 0), counts.get("instances.draws", 0)), "ratio")
    m["cli.startup_ms"] = metric(startup_ms, "ms")
    for tower in ("gf2_k3", "gf2_k4", "gf3_k3"):
        m[f"galois.tower_cold_ms.{tower}"] = metric(probes[tower]["tower_ms"], "ms")
    for kind in ("mul_ns", "inv_ns"):
        for level in ("gf4", "gf2_8", "gf2_16", "gf2_32", "gf3_9"):
            value = next(p[kind][level] for p in probes.values() if level in p[kind])
            m[f"galois.{kind}.{level}"] = metric(value, "ns")
    m["trace.overhead_pct"] = metric(overhead_pct, "%")
    return m


def run_traced(args, cls, record: dict) -> tuple[Tally, dict]:
    from tracer import Tracer, merge_states
    from workloads import WORK

    w = cls(args.seed)
    t0 = perf_counter()
    w.setup()
    record["setup_s"] = perf_counter() - t0
    # a fixed op count for a given --seconds, so every count repeats exactly
    n_ops = max(1, round(args.seconds * cls.trace_ops_per_s))
    ops = list(itertools.islice(itertools.cycle(w.ops()), n_ops))

    plain = Tally()
    startup = []
    for op in ops:
        out = plain.run(w, op)
        if out is not None and cls.name == "conformance-cold":
            startup.append(1000 * plain.ops[-1][0] - json.loads(out.stdout)["timing_ms"])

    traced = Tally()
    if cls.name == "conformance-cold":
        states = []
        for i, op in enumerate(ops):
            state = traced.run(w, op, checked=False,
                               run_op=lambda op, i=i: w.run_traced_op(op, i))
            if state is not None:
                states.append(state)
        agg = merge_states(states)
    else:
        tracer = Tracer()
        tracer.install()
        try:
            for i, op in enumerate(ops):
                tracer.op = i
                # outputs were checked in the untraced pass; checking here
                # would add the checks' own rank queries to the counts
                traced.run(w, op, checked=False)
        finally:
            tracer.uninstall()
        agg = tracer.state()

    t_plain, t_traced = sum(plain.latencies()), sum(traced.latencies())
    overhead = 100.0 * (t_traced - t_plain) / t_plain if t_plain else 0.0
    probes = galois_probes(args.seed)
    metrics = per_layer_metrics(agg, overhead, statistics.median(startup) if startup else 0.0,
                                probes)
    spans_path = WORK / f"spans-{cls.name}-seed{args.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in agg["spans"]:
            fh.write(json.dumps(span) + "\n")
    record.update({
        "ops": {"attempted": plain.attempted + traced.attempted, "traced_set": len(ops)},
        "untraced_s": t_plain,
        "traced_s": t_traced,
        "classes": plain.classes(),
        "probes": probes,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "self_ms_all": {k: 1000 * v for k, v in agg["self_s"].items()},
        "inclusive_ms_all": {k: 1000 * v for k, v in agg["total_s"].items()},
    })
    tally = Tally()
    tally.attempted = plain.attempted + traced.attempted
    tally.failures = plain.failures + traced.failures
    return tally, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description="matroidfrag benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    _import_package()
    from workloads import WORK, WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        _die(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    record = {"environment": environment(args)}
    runner = run_traced if args.trace else run_untraced
    tally, metrics = runner(args, cls, record)

    for failure in tally.failures[:5]:
        print(f"bench: failed op:\n{failure}", file=sys.stderr)
    record["metrics"] = metrics
    record["failures"] = tally.failures[:20]
    out = WORK / f"result-{cls.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    for name, m in metrics.items():
        print(f"{cls.name:>16}  {name:<48} {m['value']:>14.4f} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
