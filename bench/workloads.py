"""The three benchmark workloads: certify, generate, conformance-cold.

Each workload is a closed loop with one client: the next op starts when
the previous one has returned and its output has been checked.  Inputs
come from the workload seed alone: `ops()` is a fixed list of distinct
ops of a fixed class mix, and the timed run goes through it in whole
rounds, so the mix does not depend on where the clock stopped.  A round
takes about `round_s` seconds on a 2-core host.  Output
checks run outside the timed region.  The traced run takes the first
round(--seconds * trace_ops_per_s) ops, a count fixed by --seconds
alone so that every count repeats; on a 2-core host its untraced and
traced passes together take one to two times --seconds.

Why these three:

- certify      in-process `pipeline` on fragile pairs, |E| 8..14, over
               GF(2) and GF(3).  Every fragility verdict is positive, so
               each call enumerates all partitions; rank runs on both
               kernels.  Fields stay tiny and interned: galois is idle.
- generate     in-process rejection sampling with `gen_random` on the
               shapes the suites draw.  Nearly every fragility verdict
               is negative and no reduction runs, so an early exit in
               fragility shows here and not on certify.
- conformance-cold
               one fresh `python -m matroidfrag pipeline --conformance`
               per op.  Every CLI user pays interpreter start-up and the
               canonical-modulus search once per process; the tail ops
               are modulus-bound and the median is import-bound.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import matroidfrag as mf
from matroidfrag import (
    Exhausted,
    ReprMatroid,
    extend_field,
    gen_random,
    is_N_fragile,
    is_relaxation,
    isolated,
    make_prime_field,
    serialize_instance,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

GEN_ATTEMPTS = 3000  # max_attempts the suites pass to gen_random
GEN_RETRIES = 40     # fresh draws after Exhausted, as suites._gen_with_retry
OP_TIMEOUT_S = 120   # a conformance child still running after this is killed


class OpFailed(Exception):
    """An op raised, exited nonzero, or failed its output check."""


class Workload:
    @staticmethod
    def tick() -> None:
        """Called between set-up steps; the benchmark points it at its
        host-speed meter."""


def _gen_pair(rng: random.Random, kind: str, shape_fn):
    """Draw a shape and sub-seed until gen_random accepts, as the suites
    do, and return the accepted instance."""
    for _ in range(GEN_RETRIES):
        shape = shape_fn(rng)
        try:
            return gen_random(kind, seed=rng.randrange(2**32), max_attempts=GEN_ATTEMPTS,
                              **shape).instance
        except Exhausted:
            continue
    raise OpFailed(f"no {kind} instance in {GEN_RETRIES} shapes")


def _spread(classes):
    """Interleave ops of several classes evenly through one round, in a
    fixed order that does not depend on the seed."""
    slots = []
    for ci, (key, count) in enumerate(classes):
        for j in range(count):
            slots.append(((j + 0.5) / count, ci, key))
    slots.sort()
    return [key for _, _, key in slots]


# ---------------------------------------------------------------------------
# certify


# (|E|, q, k = |E(N)|, ops per round); most ops are small, a fixed
# minority sits at the |E| = 12..14 sizes the north star targets.  The
# cost of a pair varies by a CV of about 0.2 within its class, so each
# class holds enough pairs for its sum and median to vary little from
# seed to seed.  p90, 15 ops from the top, falls near the median of the
# 21 pairs at |E| = 12 (one class, GF(2)), not at a class boundary.  A
# round takes about 12 s.
CERTIFY_POOL = [
    (8, 2, 3, 45), (8, 3, 3, 45), (8, 2, 4, 6), (8, 3, 4, 6),
    (10, 2, 4, 12), (10, 3, 4, 12),
    (12, 2, 5, 21),
    (14, 2, 5, 3),
]


def _certify_towers() -> None:
    """Intern every tower default-mode `pipeline` reaches for k <= 5:
    collapse degrees s, t with s + t <= 5, then the quadratic step."""
    for q in (2, 3):
        base = make_prime_field(q)
        for s in range(1, 5):
            for t in range(1, 6 - s):
                extend_field(extend_field(extend_field(base, s), t), 2)


class Certify(Workload):
    name = "certify"
    round_s = 12
    trace_ops_per_s = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.pool = []

    def setup(self) -> None:
        rng = random.Random(f"certify:{self.seed}")
        pairs = {}
        for E, q, k, count in CERTIFY_POOL:
            def shape(r, E=E, q=q, k=k):
                rows = r.randint(E // 2 - 1, E // 2 + 1)
                return {"q": q, "rows": rows, "cols": E - rows, "minor_size": k}
            drawn = []
            for _ in range(count):
                self.tick()
                drawn.append(_gen_pair(rng, "pipeline", shape))
            pairs[(E, q, k)] = iter(drawn)
        # each class spread evenly through the round, so the ops of a
        # class meet the host's fast and slow phases alike
        order = _spread([((E, q, k), count) for E, q, k, count in CERTIFY_POOL])
        pool = [(key, next(pairs[key])) for key in order]
        _certify_towers()
        self.pool = pool
        # warm-up: code paths and memo tables on two pairs
        for item in pool[:2]:
            self.tick()
            self.check(item, self.run_op(item)[1])

    def ops(self):
        return self.pool

    def run_op(self, item):
        inst = item[1]
        # fresh matroids per op: no rank cache carries over between ops
        M = ReprMatroid(inst.matrix)
        N = ReprMatroid(inst.task.minor.rep)
        t0 = perf_counter()
        tr = mf.pipeline(M, N)  # looked up per call, so a traced run sees it
        return perf_counter() - t0, tr

    def check(self, item, tr) -> None:
        if not is_relaxation(tr.relaxed, tr.relaxation, tr.hyperplane):
            raise OpFailed("output is not a relaxation")
        common = tr.input_matroid.minor(tr.coloop_side, tr.loop_side)
        if not common.equals(tr.relaxed.minor({tr.c_label}, {tr.d_label})):
            raise OpFailed("common minor lost")
        # default mode: degree 2 * max(1,|X1|) * max(1,|X2|) <= 2k^2, which
        # need not divide 2k^2 (sides 2 + 1 give 4 against 18); only
        # conformance mode lands on 2k^2 itself
        k = len(tr.minor_matroid.ground)
        want = 2 * max(1, len(tr.coloop_side)) * max(1, len(tr.loop_side))
        if tr.final_degree_over_input != want or want > 2 * k * k:
            raise OpFailed(f"degree {tr.final_degree_over_input}, expected {want} <= 2k^2")

    def label(self, item):
        return "E{}_gf{}_k{}".format(*item[0])


# ---------------------------------------------------------------------------
# generate


def _relax_shapes():
    # entry_relaxation: q drawn from (2, 2, 2, 3), rows and cols 2..5
    return [({"q": q, "rows": r, "cols": c}, w)
            for q, w in ((2, 3), (3, 1))
            for r in range(2, 6) for c in range(2, 6)]


def _nfragile_shapes():
    # zeroed_block: every value suites._nfragile_shape(rng, 7, 3) can draw
    out = []
    for q in (2, 3):
        for r in range(1, 5):
            for c in range(1, min(4, 7 - r) + 1):
                lo, hi = (1 if r == 1 or c == 1 else 2), min(3, r + c)
                for m in range(min(lo, hi), hi + 1):
                    out.append(({"q": q, "rows": r, "cols": c, "minor_size": m}, 1))
    return out


def _pipeline_shapes():
    # full_pipeline: GF(2), k alternating 2 and 3, rows 1..4
    return [({"q": 2, "rows": r, "cols": c, "minor_size": k}, 1)
            for k in (2, 3) for r in range(1, 5)
            for c in range(max(1, k + 1 - r), min(4, 8 - r) + 1)]


# Elements outside the minor (the (r0, c0) pair for relax).  The suites'
# larger shapes accept one draw in hundreds to thousands, so a handful of
# them would decide a run's total time by luck of the seed.
GEN_MAX_REST = 4
GEN_BLOCKS = 40  # catalogue copies per round, each on fresh sub-seeds
WARMUP_SEED = 0


def generate_catalogue():
    """One block of the generate workload: every shape the suites can
    draw with at most GEN_MAX_REST elements outside the minor, relax
    shapes weighted by the suite's 3:1 choice of GF(2) over GF(3)."""
    out = []
    for kind, shapes in (("relax", _relax_shapes()), ("nfragile", _nfragile_shapes()),
                         ("pipeline", _pipeline_shapes())):
        for shape, weight in shapes:
            if shape["rows"] + shape["cols"] - shape.get("minor_size", 2) <= GEN_MAX_REST:
                out += [(kind, shape)] * weight
    return out


class Generate(Workload):
    name = "generate"
    round_s = 25
    trace_ops_per_s = 80

    def __init__(self, seed: int):
        self.seed = seed
        self.catalogue = []

    def setup(self) -> None:
        self.catalogue = generate_catalogue()
        # warm-up: every shape once, on sub-seeds that do not depend on
        # the workload seed, so set-up cost does not either
        for kind, shape in self.catalogue:
            self.tick()
            op = (kind, shape, WARMUP_SEED)
            self.check(op, self.run_op(op)[1])

    def block(self, b: int):
        rng = random.Random(f"generate:{self.seed}:{b}")
        ops = [(kind, shape, rng.randrange(2**32)) for kind, shape in self.catalogue]
        rng.shuffle(ops)
        return ops

    def ops(self):
        return [op for b in range(GEN_BLOCKS) for op in self.block(b)]

    def run_op(self, op):
        kind, shape, sub = op
        t0 = perf_counter()
        for attempt in range(GEN_RETRIES):
            try:
                g = mf.gen_random(kind, seed=(sub + attempt) % 2**32,
                                  max_attempts=GEN_ATTEMPTS, **shape)
                break
            except Exhausted:
                continue
        else:
            raise OpFailed(f"{kind} {shape}: Exhausted {GEN_RETRIES} times")
        return perf_counter() - t0, g

    def check(self, op, g) -> None:
        inst = g.instance
        M = ReprMatroid(inst.matrix)
        if op[0] == "relax":
            N = isolated({"r0"}, {"r0", "c0"})
        else:
            N = ReprMatroid(inst.task.minor.rep)
        if not is_N_fragile(M, N):
            raise OpFailed("accepted instance fails its acceptance oracle")

    def replay_check(self, results) -> None:
        """Same inputs, same rejection counts: re-draw the first ops."""
        for op, g in results:
            _, again = self.run_op(op)
            if again.rejections != g.rejections:
                raise OpFailed(f"{op}: rejections {g.rejections} then {again.rejections}")

    def label(self, op):
        return op[0]


# ---------------------------------------------------------------------------
# conformance-cold


# (q, k, ops per round, |E| choices); the GF(3) k=3 ops and the one
# GF(2) k=4 op are the modulus-bound tail, the rest are import-bound.  A
# round takes about 30 s.  With 30 import-bound and 15 tail ops, p50
# falls in the upper half of the first and the tail percentile (the
# highest with 10 ops beyond it) in the lower half of the second, each
# away from the boundary between the two.  Sizes are those whose
# pairs gen_random finds in a few draws, so set-up time does not hang on
# the seed.
CONFORMANCE_ROUND = [
    (2, 2, 10, (6,)),
    (2, 3, 10, (6, 7)),
    (3, 2, 10, (6,)),
    (3, 3, 14, (6, 7)),
    (2, 4, 1, (8, 9)),
]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def conformance_argv(path: Path) -> list[str]:
    return ["pipeline", "--conformance", "--input", str(path)]


class ConformanceCold(Workload):
    name = "conformance-cold"
    round_s = 30
    trace_ops_per_s = 0.8  # 30 s reach the GF(2) k=4 op

    def __init__(self, seed: int):
        self.seed = seed
        self.pool = []

    def setup(self) -> None:
        rng = random.Random(f"conformance:{self.seed}")
        WORK.mkdir(exist_ok=True)
        classes = [((q, k, sizes), count) for q, k, count, sizes in CONFORMANCE_ROUND]
        ops = []
        for i, (q, k, sizes) in enumerate(_spread(classes)):
            def shape(r, q=q, k=k, sizes=sizes):
                E = r.choice(sizes)
                rows = r.randint(2, E - 2)
                return {"q": q, "rows": rows, "cols": E - rows, "minor_size": k}
            self.tick()
            inst = _gen_pair(rng, "pipeline", shape)
            path = WORK / f"conformance-{self.seed}-{i}.json"
            path.write_text(json.dumps(serialize_instance(inst)))
            ops.append(((q, k), path))
        self.pool = ops
        # warm-up: byte-compile the package and fault in the interpreter
        small = next(op for op in ops if op[0] == (2, 2))
        self.check(small, self.run_op(small)[1])

    def ops(self):
        return self.pool

    def run_op(self, op):
        argv = [sys.executable, "-m", "matroidfrag", *conformance_argv(op[1])]
        t0 = perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise OpFailed(f"timed out after {OP_TIMEOUT_S}s") from exc
        return perf_counter() - t0, proc

    def run_traced_op(self, op, i: int):
        """The op through trace_cli.py; returns (wall s, tracer state)."""
        state = WORK / f"state-{self.seed}-{i}.json"
        argv = [sys.executable, str(BENCH / "trace_cli.py"), "--state", str(state),
                "--op", str(i), "--", *conformance_argv(op[1])]
        t0 = perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise OpFailed(f"timed out after {OP_TIMEOUT_S}s") from exc
        dt = perf_counter() - t0
        self.check(op, proc)
        out = json.loads(state.read_text())
        state.unlink()
        return dt, out

    def check(self, op, proc) -> None:
        if proc.returncode != 0:
            raise OpFailed(f"exit {proc.returncode}: {proc.stdout[-500:]}{proc.stderr[-500:]}")
        report = json.loads(proc.stdout)
        if report.get("verdict") is not True:
            raise OpFailed("verdict is not true")
        if report["final_degree"] != report["degree_bound"]:
            raise OpFailed(f"final degree {report['final_degree']} != {report['degree_bound']}")

    def label(self, op):
        return "gf{}_k{}".format(*op[0])


WORKLOADS = {w.name: w for w in (Certify, Generate, ConformanceCold)}
