"""Smoke test of the in-process A/B harness `tools/ab_inprocess.py`:
the package against itself, one round of ten ops of `certify` and
`generate`, and of the first and smallest suite, `field-core`, with the
fields of the last line; and the quartiles of several rounds."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "ab_inprocess.py"


def test_ab_runs_the_package_against_itself():
    for workload, ops in (("certify", 10), ("generate", 10), ("suites", 1)):
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), str(ROOT / "src"), str(ROOT / "src"),
             "--workload", workload, "--seeds", "0", "--rounds", "1", "--ops", str(ops)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        first, last = proc.stdout.splitlines()
        assert first.startswith(f"{workload} seed 0: {ops} ops, median ratio ")
        assert "rounds" in first and last.startswith("median ratio over 1 rounds: ")
        # the rounds won over all seeds, here the one seed's, and the
        # quartiles, which one round gives as its own ratio twice
        median, won, quartiles = last.split(": ")[1].split(", ")
        assert won == first.split(", ")[2].split(" [")[0]
        assert quartiles == f"quartiles {median} {median}"


def test_last_line_sums_the_seeds_and_brackets_the_median():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT / "src"), str(ROOT / "src"),
         "--workload", "certify", "--seeds", "0", "1", "--rounds", "3", "--ops", "5"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *seeds, last = proc.stdout.splitlines()
    assert len(seeds) == 2
    ratios = [float(x) for line in seeds for x in line.split("[")[1].rstrip("]").split()]
    won = sum(int(line.split("change won ")[1].split("/")[0]) for line in seeds)
    assert last.startswith("median ratio over 6 rounds: ")
    median, won_text, quartiles = last.split(": ")[1].split(", ")
    assert won_text == f"change won {won}/6 rounds"
    q1, q3 = map(float, quartiles.split()[1:])
    assert min(ratios) <= q1 <= float(median) <= q3 <= max(ratios)
