"""Record a baseline of the benchmark.

    python3 bench/baseline.py --out bench/results/BENCH_0.json

Runs every workload untraced and traced at seed 1 and at the held-out
seed 2 (for checking later claims on inputs that were not used while
writing them), then measures the two hot spots ROADMAP names:

- the share of acceptance run 5 (`entry_relaxation(seed=0, count=100)`)
  spent inside `gen_random`, timed by a single wrapper on it;
- the share of one GF(2) k=4 `pipeline --conformance` CLI run spent in
  `extend_field`, which holds the canonical-modulus search, from the
  traced CLI runner (`trace_cli.py`).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = (1, 2)
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
WORKLOADS = ("certify", "generate", "conformance-cold")


def bench_run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    record = json.loads((BENCH / "_work" / f"result-{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    record.pop("latencies_ms", None)  # thousands of per-op times; the summaries stay
    return {"result": json.loads(proc.stdout.splitlines()[-1]), "record": record}


def acceptance5_generator_share() -> dict:
    from matroidfrag import suites

    inner = [0.0]
    original = suites.gen_random

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            inner[0] += perf_counter() - t0

    suites.gen_random = timed
    try:
        t0 = perf_counter()
        report = suites.entry_relaxation(seed=0, count=100)
        total = perf_counter() - t0
    finally:
        suites.gen_random = original
    return {"suite_s": total, "gen_random_s": inner[0], "share": inner[0] / total,
            "ok": report["ok"]}


def conformance_k4_modulus_share() -> dict:
    from workloads import ConformanceCold

    w = ConformanceCold(seed=1)
    w.setup()
    i, op = next((i, op) for i, op in enumerate(w.ops()) if op[0] == (2, 4))
    wall, state = w.run_traced_op(op, i)
    total = state["total_s"]
    return {"wall_s": wall, "pipeline_s": total["reductions.pipeline"],
            "extend_field_s": total["galois.extend_field"],
            "is_irreducible_s": total["galois.is_irreducible"],
            "share_of_pipeline": total["galois.extend_field"] / total["reductions.pipeline"],
            "share_of_wall": total["galois.extend_field"] / wall}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    runs = {w: {str(s): {"untraced": bench_run(w, s, 0), "traced": bench_run(w, s, 1)}
                for s in SEEDS} for w in WORKLOADS}
    out = {
        "run_seconds": SECONDS,
        "seeds": {"primary": SEEDS[0], "held_out": SEEDS[1]},
        "runs": runs,
        "hotspots": {
            "acceptance5_generator": acceptance5_generator_share(),
            "conformance_k4_modulus": conformance_k4_modulus_share(),
        },
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
