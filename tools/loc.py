#!/usr/bin/env python3
"""Count the lines of src/mvfed and tests.

    python tools/loc.py

Prints, for each tree, its physical lines (every line of every .py
file) and its code lines: the lines that hold a token of code, so
blank lines, comment lines and the lines of docstrings (the string
that opens a module, class or function body) are left out.  A line
with code and a trailing comment counts as code.  Paths are relative
to the repository root, whatever the working directory.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = ("src/mvfed", "tests")
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one file's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main() -> int:
    for tree in TREES:
        physical = code = 0
        for folder, _, files in os.walk(os.path.join(ROOT, tree)):
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(folder, name), encoding="utf-8") as fh:
                        p, c = count(fh.read())
                    physical, code = physical + p, code + c
        print(f"{tree}: {physical} physical lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
