#!/usr/bin/env python3
"""Count the lines of src/mgode that hold code.

Usage:

    python3 scripts/count_code_lines.py [ROOT]

Prints, per module of ROOT/src/mgode (ROOT defaults to the repository
holding this script) and in total, the lines that hold a code token: blank
lines, comment lines and the lines of docstrings (the string that opens a
module, class or function body) do not count.  Next to it stands the
module's whole line count, as ``wc -l`` gives it.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a code token."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add((first.lineno, first.col_offset))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING
                                     and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Count the lines of src/mgode that hold code.")
    parser.add_argument("root", type=Path, nargs="?",
                        default=Path(__file__).resolve().parents[1])
    package = parser.parse_args().root / "src" / "mgode"
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"error: no modules under {package}", file=sys.stderr)
        return 1
    total_code = total_all = 0
    print(f"{'code':>6} {'all':>6}  module")
    for path in modules:
        source = path.read_text()
        code, every = code_lines(source), source.count("\n")
        total_code += code
        total_all += every
        print(f"{code:6d} {every:6d}  {path.name}")
    print(f"{total_code:6d} {total_all:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
