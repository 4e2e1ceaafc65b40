"""Self-tests of the benchmark, kept out of the package's test suite:

    python3 -m pytest bench/test_bench.py

Each traced run is repeated at a reduced size (--seconds 1); every count-type
per-layer metric must come out identical, since the inputs are fixed by
the seed and a count does not depend on speed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
EXACT = {
    "instances.accept_frac",
    "fragility.fragile_partitions.partitions_computed",
    "fragility.fragile_partitions.positive_frac",
    "matroids.rank.miss_frac",
}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items()
            if k.endswith(".calls") or k in EXACT}


@pytest.mark.parametrize("workload", ["certify", "generate", "conformance-cold"])
def test_traced_counts_repeat_exactly(workload):
    first = _run(workload, 1)
    second = _run(workload, 1)
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    counts = _counts(first)
    assert counts == _counts(second)
    assert counts["matroids.rank.calls"] > 0
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_untraced_run_reports_every_end_to_end_metric():
    result = _run("generate", 0)
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
