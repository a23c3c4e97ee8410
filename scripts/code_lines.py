#!/usr/bin/env python3
"""Count the lines and the code lines of each module of a package.

    python3 scripts/code_lines.py [DIR]

DIR defaults to this checkout's `src/orefield`.  For each `*.py` file in it,
by name, the script prints the line count that `wc -l` reports and the
number of code lines, then the totals of both columns.  A code line holds a
`tokenize` token other than a comment, a docstring or whitespace (newlines
and indentation); every line that a token spans counts.  A docstring is the
string that opens a module, class or function body.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orefield"
WHITESPACE = {
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) at which each docstring of the tree starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """(lines as `wc -l` counts them, code lines) of Python source."""
    docstrings = docstring_starts(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in WHITESPACE or tok.type == tokenize.COMMENT:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default=str(PACKAGE), help="directory of the modules")
    args = parser.parse_args(argv)
    total_lines = total_code = 0
    print(f"{'lines':>7} {'code':>7}  module")
    for path in sorted(Path(args.dir).glob("*.py")):
        lines, code = count(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{lines:7} {code:7}  {path.name}")
    print(f"{total_lines:7} {total_code:7}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
