"""Run one matroidfrag CLI command with the benchmark's tracer installed.

    PYTHONPATH=src python3 bench/trace_cli.py --state OUT.json --op 3 -- \\
        pipeline --conformance --input inst.json

The CLI report goes to stdout as usual; the tracer's aggregates and
spans, tagged with op id --op, go to --state.  Exits with the CLI's own
exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from matroidfrag import cli
from tracer import Tracer


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--state", required=True)
    ap.add_argument("--op", type=int, required=True)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = Tracer()
    tracer.op = args.op
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    Path(args.state).write_text(json.dumps(tracer.state()))
    return code


if __name__ == "__main__":
    sys.exit(main())
