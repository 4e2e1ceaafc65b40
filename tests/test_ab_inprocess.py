"""Smoke test of the in-process A/B harness `tools/ab_inprocess.py`:
the package against itself, one round of ten ops of `certify` and
`generate`, and of the first and smallest suite, `field-core`."""

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
