"""Count code lines and statements per Python module.

A code line is a line that holds a token other than a comment, outside
docstrings: blank lines, comment lines and docstrings do not count, and
each line of a multi-line expression or of a non-docstring string
literal does.  A statement is an `ast.stmt` node, docstrings included.

Usage: python3 tools/code_lines.py [PATH ...]   (default: src)

Each PATH is a module or a directory searched for `*.py`; one line per
module is printed, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, statements) of one module's source."""
    tree = ast.parse(source)
    skip = _docstring_lines(tree)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree))
    return len(lines), statements


def main(argv: list[str]) -> None:
    files = []
    for arg in argv or ["src"]:
        path = Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total_lines = total_statements = 0
    print(f"{'lines':>6} {'stmts':>6}  module")
    for path in files:
        lines, statements = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_statements += statements
        print(f"{lines:6d} {statements:6d}  {path}")
    print(f"{total_lines:6d} {total_statements:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
