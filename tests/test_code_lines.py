"""The code-size counter `tools/code_lines.py`, on a fixed snippet and
on the package."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring,
on two lines."""
# a comment-only line
import os  # a code line with a comment


def f(x):
    """A function docstring."""
    # another comment-only line
    y = os.path.join(
        x,
        "a",
    )
    s = """a string that is
not a docstring"""
    return y + s
'''


def test_count_on_a_fixed_snippet():
    # code lines: the import, the def, four of the call, two of the
    # string, the return; statements: both docstrings, the import, the
    # def, two assignments and the return
    assert code_lines.count(SNIPPET) == (9, 7)


def test_count_of_an_empty_module():
    assert code_lines.count("") == (0, 0)
    assert code_lines.count('"""Only a docstring."""\n# and a comment\n') == (0, 1)


def test_total_row_is_the_sum_of_the_module_rows():
    out = subprocess.run([sys.executable, str(SCRIPT), "src"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    header, *rows, total = [line.split() for line in out.splitlines()]
    assert header == ["lines", "stmts", "module"]
    modules = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src").rglob("*.py"))
    assert [row[2] for row in rows] == modules
    for row in rows:
        source = (ROOT / row[2]).read_text(encoding="utf-8")
        assert (int(row[0]), int(row[1])) == code_lines.count(source)
    assert total == [str(sum(int(row[0]) for row in rows)),
                     str(sum(int(row[1]) for row in rows)), "total"]


def test_help_prints_a_usage_line_and_exits_zero():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--help"], cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: ") and proc.stderr == ""


def test_an_unknown_option_exits_two_with_a_usage_line():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--bogus"], cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: ") and "--bogus" in proc.stderr
    assert proc.stdout == ""
