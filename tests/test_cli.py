"""Command line front end tests.

main() is driven in-process with argv lists; stdout is the report JSON.
Exit codes: 0 command ran (verdicts may be false), 1 a verified
property failed, 2 invalid input.
"""

import ast
import json
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from matroidfrag import cli, gen_random, suites
from matroidfrag.cli import main, run
from matroidfrag.instances import parse_instance, serialize_instance
from watch import forbid, lines_run, raise_sites, watch

SRC = str(Path(__file__).resolve().parent.parent / "src")

PAIR_PIPELINE = """{
  "field": {"p": 2, "tower": []},
  "matrix": {"rows": ["c"], "cols": ["d", "e"], "entries": [[0, 1]]},
  "task": {"kind": "pipeline",
           "minor": {"rows": ["c"], "cols": ["d"], "entries": [[0]]}}
}"""

ALL_ZERO_XFRAGILE = """{
  "field": {"p": 2, "tower": []},
  "matrix": {"rows": ["c"], "cols": ["d", "e"], "entries": [[0, 0]]},
  "task": {"kind": "xfragile", "x": ["c", "d"]}
}"""

RELAX_PAIR = json.dumps({**json.loads(PAIR_PIPELINE),
                         "task": {"kind": "relax", "contract": [], "delete": ["e"]}})


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_pipeline_command(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(PAIR_PIPELINE)
    code, report = run_main(capsys, ["pipeline", "--input", str(path)])
    assert code == 0
    assert report["verdict"] is True
    assert report["h"] == ["d"]
    assert report["final_degree"] == 2
    assert report["degree_bound"] == 8
    assert report["displayed_basis"] == ["c"]
    assert [s["name"] for s in report["stages"]] == [
        "zero_displayed_block",
        "collapse_loop_side",
        "collapse_coloop_side",
        "relax_entry",
    ]
    assert report["field"] == {"p": 2, "tower": [{"deg": 2, "modulus": [1, 1, 1]}]}


def test_pipeline_conformance_flag(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(PAIR_PIPELINE)
    code, report = run_main(capsys, ["pipeline", "--input", str(path), "--conformance"])
    assert code == 0
    assert report["conformance"] is True
    assert report["final_degree"] == report["degree_bound"] == 8


def test_pipeline_conformance_k5(tmp_path, capsys):
    # k = 5 lands on GF(2^50), the tower GF(2) -> 5 -> 5 -> 2
    gi = gen_random("pipeline", seed=1, q=2, rows=5, cols=5, minor_size=5)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(serialize_instance(gi.instance)))
    code, report = run_main(capsys, ["pipeline", "--input", str(path), "--conformance"])
    assert code == 0
    assert report["verdict"] is True
    assert report["final_degree"] == report["degree_bound"] == 50


def test_false_verdict_still_exits_zero(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(ALL_ZERO_XFRAGILE)
    code, report = run_main(capsys, ["check-xfragile", "--input", str(path)])
    assert code == 0
    assert report["verdict"] is False
    assert report["witness"] == {"kind": "rank_not_increased", "y": ["e"]}


def test_check_xfragile_true_verdict(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(ALL_ZERO_XFRAGILE.replace("[[0, 0]]", "[[0, 1]]"))
    code, report = run_main(capsys, ["check-xfragile", "--input", str(path)])
    assert code == 0
    assert report["verdict"] is True
    assert report["witness"] is None


def test_check_xfragile_block_nonzero_witness(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(ALL_ZERO_XFRAGILE.replace("[[0, 0]]", "[[1, 0]]"))
    code, report = run_main(capsys, ["check-xfragile", "--input", str(path)])
    assert code == 0
    assert report["verdict"] is False
    assert report["witness"] == {"kind": "block_nonzero", "row": "c", "col": "d"}


def test_check_nfragile_lists_partitions(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(PAIR_PIPELINE.replace('"pipeline"', '"nfragile"'))
    code, report = run_main(capsys, ["check-nfragile", "--input", str(path)])
    assert code == 0
    assert report["verdict"] is True
    assert report["partitions"] == [{"contract": [], "delete": ["e"]}]


def test_relax_command(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(RELAX_PAIR)
    code, report = run_main(capsys, ["relax", "--input", str(path)])
    assert code == 0
    assert report["h"] == ["d"]
    assert report["relaxation"]["entries"] == [[2, 1]]
    assert report["field"]["tower"] == [{"deg": 2, "modulus": [1, 1, 1]}]


# the keys of a refusal's report: main's, printed before the command
# runs, or run's, which adds its timing
BEFORE_RUN, IN_RUN = ("command", "error"), ("command", "error", "timing_ms")

# case -> (argv, files, exit code, error type, message, report keys).
# The files are written to a fresh working directory, and argv goes to
# main, or is a call of run made directly.  The report must name the
# command and the error, and have exactly the keys given; nothing is
# written, and a refusal before the run never calls run.
CLI_REFUSALS = {
    **{f"{name}-{command}": ([command, *args], files, 2, kind, message, BEFORE_RUN)
       for command in ("pipeline", "check-nfragile")
       for name, args, files, kind, message in (
        ("max-ground-zero", ["--input", "inst.json", "--max-ground", "0"],
         {"inst.json": PAIR_PIPELINE}, "InvalidArgs", "^--max-ground must be positive$"),
        ("missing-file", ["--input", "nope.json"], {}, "MalformedJson",
         r"^cannot read nope\.json: \[Errno 2\] No such file"),
        ("malformed-json", ["--input", "bad.json"], {"bad.json": "{nope"}, "MalformedJson",
         "^line 1 column 2: Expecting property name"),
        ("unwritable-report", ["--input", "inst.json", "--report", "no/such/r.json"],
         {"inst.json": PAIR_PIPELINE}, "InvalidArgs", r"^cannot write no/such/r\.json: "))},
    **{name: (["pipeline", "--input", "bad.json"], {"bad.json": data}, 2, "MalformedJson",
              message, BEFORE_RUN) for name, data, message in (
        ("not-utf8", b"\xff\xfe{", r"^cannot read bad\.json: 'utf-8' codec can't decode"),
        ("too-deep", b"[" * 200000 + b"]" * 200000, "^maximum recursion depth"),
        ("too-many-digits", b'{"seed": ' + b"9" * 5000 + b"}", "^Exceeds the limit"))},
    "unknown-command": (partial(run, "nope", None), {}, 2, "ToolkitError",
                        "^unknown command 'nope'$", IN_RUN),
    "missing-input-flag": (["pipeline"], {}, 2, "ToolkitError", "needs --input", IN_RUN),
    "task-kind-mismatch": (["check-nfragile", "--input", "inst.json"],
                           {"inst.json": ALL_ZERO_XFRAGILE}, 2, "ToolkitError",
                           "task block of kind 'nfragile'", IN_RUN),
    "max-ground-limit": (["pipeline", "--input", "inst.json", "--max-ground", "2"],
                         {"inst.json": PAIR_PIPELINE}, 2, "ToolkitError", "above --max-ground",
                         IN_RUN),
    "not-fragile": (["pipeline", "--input", "inst.json"],
                    {"inst.json": PAIR_PIPELINE.replace("[[0, 1]]", "[[0, 0]]")}, 2,
                    "NotFragile", "^2 partitions realise the minor; need exactly one$",
                    ("command", "error", "instance", "timing_ms")),
    "unknown-suite": (partial(run, "verify-suite", None, suite="nope"), {}, 2, "InvalidArgs",
                      "^unknown suite 'nope'; choose from field-core, ", IN_RUN),
}


def cli_refusal(monkeypatch, capsys, tmp_path_factory, case):
    """Run the case in a fresh directory as the table says; returns the
    lines of cli.py that ran."""
    call, files, code, kind, message, keys = CLI_REFUSALS[case]
    directory = tmp_path_factory.mktemp(case)
    for name, data in files.items():
        (directory / name).write_bytes(data if isinstance(data, bytes) else data.encode())
    with monkeypatch.context() as m:
        m.chdir(directory)
        if keys == BEFORE_RUN:
            watch(m, run, [], key=forbid)
        with lines_run(cli.__file__) as lines:
            if isinstance(call, partial):
                command, (report, exit_code) = call.args[0], call()
            else:
                command, exit_code = call[0], main(call)
                report = json.loads(capsys.readouterr().out)
    assert (exit_code, tuple(report), report["command"]) == (code, keys, command)
    assert report["error"].keys() == {"type", "message"} and report["error"]["type"] == kind
    assert re.search(message, report["error"]["message"]), report["error"]["message"]
    assert sorted(os.listdir(directory)) == sorted(files)
    return lines


@pytest.mark.parametrize("case", list(CLI_REFUSALS))
def test_the_front_end_refuses_each_input_of_the_table(monkeypatch, capsys, tmp_path_factory,
                                                       case):
    cli_refusal(monkeypatch, capsys, tmp_path_factory, case)


def test_every_front_end_refusal_refuses_a_row_of_the_table(monkeypatch, capsys,
                                                            tmp_path_factory):
    # every `raise` of run and every `return refuse(...)` of main, read
    # off cli.py's syntax tree, runs for some row
    tree = ast.parse(Path(cli.__file__).read_text())
    main_def = next(node for node in tree.body if getattr(node, "name", None) == "main")
    sites = set(raise_sites(cli.__file__, {"run"}))
    sites |= {node.lineno for node in ast.walk(main_def) if isinstance(node, ast.Return)
              and getattr(getattr(node.value, "func", None), "id", None) == "refuse"}
    ran = set().union(*(cli_refusal(monkeypatch, capsys, tmp_path_factory, case)
                        for case in CLI_REFUSALS))
    assert sites and sites <= ran, f"refused by no row: {sorted(sites - ran)}"


def test_non_utf8_file_exits_two_from_a_fresh_process(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-m", "matroidfrag", "pipeline", "--input", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, "")
    assert json.loads(proc.stdout)["error"]["type"] == "MalformedJson"


def test_verify_suite_single(capsys):
    code, report = run_main(capsys, ["verify-suite", "--suite", "field-core"])
    assert code == 0
    assert report["result"]["suite"] == "field-core"
    assert report["result"]["ok"] is True
    assert report["result"]["failures"] == []


def test_verify_suite_failure_exits_one(monkeypatch):
    # exit 1 is reserved for failed property verification, which a
    # correct build cannot produce; stub a failing suite to cover it
    monkeypatch.setitem(
        suites.SUITES, "field-core",
        lambda seed: {"suite": "field-core", "seed": seed, "checked": 1,
                      "failures": [{"boom": True}], "ok": False, "timing_ms": 0.0},
    )
    report, code = run("verify-suite", None, suite="field-core")
    assert code == 1
    assert report["result"]["ok"] is False


def test_postcondition_violation_exits_one(tmp_path, monkeypatch):
    from matroidfrag.errors import PostconditionViolation

    def boom(M, C, D, *, cap=12):
        raise PostconditionViolation("stub")

    monkeypatch.setattr(cli, "relax_entry", boom)
    report, code = run("relax", parse_instance(RELAX_PAIR))
    assert code == 1
    assert report["verdict"] is False
    assert report["error"]["type"] == "PostconditionViolation"


def test_report_flag_writes_stdout_text(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(PAIR_PIPELINE)
    out_path = tmp_path / "report.json"
    code = main(["pipeline", "--input", str(path), "--report", str(out_path)])
    printed = capsys.readouterr().out
    assert code == 0
    assert out_path.read_text() == printed.rstrip("\n") + "\n"


def test_reports_are_canonical_across_runs(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(PAIR_PIPELINE)
    reports = []
    for _ in range(2):
        _, report = run_main(capsys, ["pipeline", "--input", str(path)])
        reports.append(suites.canonical_report(report))
    assert reports[0] == reports[1]


RELAX_REFUSED = {
    "field": {"p": 2, "tower": []},
    "matrix": {"rows": ["a", "b"], "cols": ["c", "d"], "entries": [[1, 1], [1, 0]]},
    "task": {"kind": "relax", "contract": [], "delete": ["d", "b"]},
}


def test_reports_do_not_depend_on_string_hashing(tmp_path):
    # every command, in fresh processes under two hash seeds, prints the
    # same report up to its timing fields; the relax refusal names the
    # ranks of the pair in label order
    def instance(kind, **kw):
        return serialize_instance(gen_random(kind, seed=3, q=3, **kw).instance)

    runs = [
        ("check-xfragile", instance("xfragile", rows=3, cols=4, x_rows=1, x_cols=2), []),
        ("check-nfragile", instance("nfragile", rows=3, cols=4, minor_size=3), []),
        ("relax", instance("relax", rows=3, cols=3), []),
        ("relax", RELAX_REFUSED, []),
        ("pipeline", instance("pipeline", rows=3, cols=3, minor_size=3), []),
        ("pipeline", instance("pipeline", rows=3, cols=3, minor_size=3), ["--conformance"]),
    ]
    for i, (command, inst, flags) in enumerate(runs):
        path = tmp_path / f"inst{i}.json"
        path.write_text(json.dumps(inst))
        reports = set()
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed}
            proc = subprocess.run(
                [sys.executable, "-m", "matroidfrag", command, "--input", str(path), *flags],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.stderr == "", proc.stderr
            reports.add((proc.returncode, suites.canonical_report(json.loads(proc.stdout))))
        assert len(reports) == 1, (command, flags, reports)
        code, report = reports.pop()
        if inst is RELAX_REFUSED:
            assert code == 2
            assert json.loads(report)["error"] == {
                "type": "NotFragile",
                "message": "minor is not one coloop plus one loop: ranks {'a': 1, 'c': 1}"}
        else:
            assert code == 0 and json.loads(report)["verdict"] is True, report


def test_suite_names_are_the_suites():
    # argument parsing reads the names without importing the suites
    assert cli.SUITE_NAMES == tuple(suites.SUITES)


def test_cli_import_loads_no_suites_dataclasses_or_inspect():
    # a fresh interpreter without site packages, so that nothing but
    # the import of the front end can load them
    watched = ("dataclasses", "inspect", "matroidfrag.suites")
    code = ("import sys, matroidfrag.cli; "
            f"print([m for m in {watched!r} if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


USAGE = """\
usage: matroidfrag [-h] [--input PATH] [--seed SEED] [--max-ground MAX_GROUND]
                   [--conformance] [--report PATH]
                   [--suite {all,field-core,isolated-minor,zeroed-block,free-placement,entry-relaxation,pipeline,structural,determinism}]
                   {check-xfragile,check-nfragile,relax,pipeline,verify-suite}
"""

HELP = USAGE + """
Certified reductions for fragile represented matroids.

positional arguments:
  {check-xfragile,check-nfragile,relax,pipeline,verify-suite}

options:
  -h, --help            show this help message and exit
  --input PATH          instance JSON file
  --seed SEED           suite seed (default 0)
  --max-ground MAX_GROUND
                        largest allowed ground set and enumeration cap
                        (default 16)
  --conformance         pipeline only: build the uniform-degree tower to
                        exactly 2k^2
  --report PATH         also write the report here
  --suite {all,field-core,isolated-minor,zeroed-block,free-placement,entry-relaxation,pipeline,structural,determinism}
                        verify-suite only: which suite to run (default all)
"""


def test_help_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (HELP, "")


def test_invalid_suite_message_and_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify-suite", "--suite", "nope"])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", USAGE + (
        "matroidfrag: error: argument --suite: invalid choice: 'nope' (choose from "
        "'all', 'field-core', 'isolated-minor', 'zeroed-block', 'free-placement', "
        "'entry-relaxation', 'pipeline', 'structural', 'determinism')\n"))
