"""Command line front end tests.

main() is driven in-process with argv lists; stdout is the report JSON.
Exit codes: 0 command ran (verdicts may be false), 1 a verified
property failed, 2 invalid input.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from matroidfrag import cli, gen_random, suites
from matroidfrag.cli import main, run
from matroidfrag.instances import parse_instance, serialize_instance

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
    inst = json.loads(ALL_ZERO_XFRAGILE)
    inst["matrix"]["entries"] = [[0, 1]]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, report = run_main(capsys, ["check-xfragile", "--input", str(path)])
    assert code == 0
    assert report["verdict"] is True
    assert report["witness"] is None


def test_check_xfragile_block_nonzero_witness(tmp_path, capsys):
    inst = json.loads(ALL_ZERO_XFRAGILE)
    inst["matrix"]["entries"] = [[1, 0]]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, report = run_main(capsys, ["check-xfragile", "--input", str(path)])
    assert code == 0
    assert report["verdict"] is False
    assert report["witness"] == {"kind": "block_nonzero", "row": "c", "col": "d"}


def test_run_refuses_an_unknown_command():
    report, code = run("nope", None)
    assert code == 2
    assert report["error"] == {"type": "ToolkitError", "message": "unknown command 'nope'"}
    assert list(report) == ["command", "error", "timing_ms"]


def test_check_nfragile_lists_partitions(tmp_path, capsys):
    inst = {
        "field": {"p": 2, "tower": []},
        "matrix": {"rows": ["c"], "cols": ["d", "e"], "entries": [[0, 1]]},
        "task": {"kind": "nfragile",
                 "minor": {"rows": ["c"], "cols": ["d"], "entries": [[0]]}},
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, report = run_main(capsys, ["check-nfragile", "--input", str(path)])
    assert code == 0
    assert report["verdict"] is True
    assert report["partitions"] == [{"contract": [], "delete": ["e"]}]


def test_relax_command(tmp_path, capsys):
    inst = {
        "field": {"p": 2, "tower": []},
        "matrix": {"rows": ["c"], "cols": ["d", "e"], "entries": [[0, 1]]},
        "task": {"kind": "relax", "contract": [], "delete": ["e"]},
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, report = run_main(capsys, ["relax", "--input", str(path)])
    assert code == 0
    assert report["h"] == ["d"]
    assert report["relaxation"]["entries"] == [[2, 1]]
    assert report["field"]["tower"] == [{"deg": 2, "modulus": [1, 1, 1]}]


def test_malformed_input_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, report = run_main(capsys, ["pipeline", "--input", str(path)])
    assert code == 2
    assert report["error"]["type"] == "MalformedJson"


def test_missing_file_exits_two(tmp_path, capsys):
    code, report = run_main(capsys, ["pipeline", "--input", str(tmp_path / "nope.json")])
    assert code == 2
    assert report["error"]["type"] == "MalformedJson"


@pytest.mark.parametrize("data", [
    b"\xff\xfe{",  # not UTF-8
    b"[" * 200000 + b"]" * 200000,  # deeper than json.loads recurses
    b'{"seed": ' + b"9" * 5000 + b"}",  # past Python's 4300-digit limit
], ids=["not-utf8", "too-deep", "too-many-digits"])
def test_unreadable_json_exits_two(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, report = run_main(capsys, ["pipeline", "--input", str(path)])
    assert code == 2
    assert report["error"]["type"] == "MalformedJson"


def test_every_refusal_before_the_run_names_the_command_and_error(tmp_path, capsys):
    good, bad = tmp_path / "inst.json", tmp_path / "bad.json"
    good.write_text(PAIR_PIPELINE)
    bad.write_text("{nope")
    for argv, kind in (
        (["--max-ground", "0"], "InvalidArgs"),
        (["--input", str(tmp_path / "nope.json")], "MalformedJson"),
        (["--input", str(bad)], "MalformedJson"),
        (["--input", str(good), "--report", str(tmp_path / "no" / "r.json")], "InvalidArgs"),
    ):
        code, report = run_main(capsys, ["check-nfragile", *argv])
        assert code == 2
        assert set(report) == {"command", "error"}
        assert report["command"] == "check-nfragile"
        assert report["error"]["type"] == kind and report["error"]["message"]


def test_non_utf8_file_exits_two_from_a_fresh_process(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "matroidfrag", "pipeline", "--input", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, "")
    assert json.loads(proc.stdout)["error"]["type"] == "MalformedJson"


def test_missing_input_flag_exits_two(capsys):
    code, report = run_main(capsys, ["pipeline"])
    assert code == 2
    assert "needs --input" in report["error"]["message"]


def test_task_kind_mismatch_exits_two(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(ALL_ZERO_XFRAGILE)
    code, report = run_main(capsys, ["check-nfragile", "--input", str(path)])
    assert code == 2
    assert "task block of kind 'nfragile'" in report["error"]["message"]


def test_max_ground_limit(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(PAIR_PIPELINE)
    code, report = run_main(capsys, ["pipeline", "--input", str(path), "--max-ground", "2"])
    assert code == 2
    assert "above --max-ground" in report["error"]["message"]
    assert main(["pipeline", "--input", str(path), "--max-ground", "0"]) == 2
    capsys.readouterr()


def test_non_fragile_instance_exits_two(tmp_path, capsys):
    inst = {
        "field": {"p": 2, "tower": []},
        "matrix": {"rows": ["c"], "cols": ["d", "e"], "entries": [[0, 0]]},
        "task": {"kind": "pipeline",
                 "minor": {"rows": ["c"], "cols": ["d"], "entries": [[0]]}},
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, report = run_main(capsys, ["pipeline", "--input", str(path)])
    assert code == 2
    assert report["error"]["type"] == "NotFragile"


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
    inst = parse_instance(json.dumps({
        "field": {"p": 2, "tower": []},
        "matrix": {"rows": ["c"], "cols": ["d", "e"], "entries": [[0, 1]]},
        "task": {"kind": "relax", "contract": [], "delete": ["e"]},
    }))
    report, code = run("relax", inst)
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


def test_unwritable_report_exits_two(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the command ran before the report path was checked")

    monkeypatch.setattr(cli, "run", boom)
    path = tmp_path / "inst.json"
    path.write_text(PAIR_PIPELINE)
    out_path = tmp_path / "no" / "such" / "r.json"
    code, report = run_main(capsys, ["pipeline", "--input", str(path),
                                     "--report", str(out_path)])
    assert code == 2
    assert report["error"]["type"] == "InvalidArgs"
    assert str(out_path) in report["error"]["message"]
    assert not out_path.parent.exists()


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
    src = Path(__file__).resolve().parent.parent / "src"
    for i, (command, inst, flags) in enumerate(runs):
        path = tmp_path / f"inst{i}.json"
        path.write_text(json.dumps(inst))
        reports = set()
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed}
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


def test_unknown_suite_exits_two(capsys):
    with pytest.raises(SystemExit):
        main(["verify-suite", "--suite", "nope"])  # argparse rejects the choice
    capsys.readouterr()
    report, code = run("verify-suite", None, suite="nope")
    assert code == 2
    assert report["error"]["type"] == "InvalidArgs"


def test_suite_names_are_the_suites():
    # argument parsing reads the names without importing the suites
    assert cli.SUITE_NAMES == tuple(suites.SUITES)


def test_cli_import_loads_no_suites_dataclasses_or_inspect():
    # a fresh interpreter without site packages, so that nothing but
    # the import of the front end can load them
    src = Path(__file__).resolve().parent.parent / "src"
    watched = ("dataclasses", "inspect", "matroidfrag.suites")
    code = ("import sys, matroidfrag.cli; "
            f"print([m for m in {watched!r} if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(src)}
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
