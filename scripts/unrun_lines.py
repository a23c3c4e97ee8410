#!/usr/bin/env python3
"""List the lines of a package that a pytest run never executes.

    python3 scripts/unrun_lines.py [--source DIR] [PYTEST ARGS...]

DIR defaults to this checkout's `src/orefield`.  The script runs pytest in
its own process, passing PYTEST ARGS through, under a `sys.settrace` line
tracer that records only frames whose code lies in DIR's `*.py` files.  Then
it prints, for each module, the executable lines that never ran, grouped into
ranges, and the total.  The executable lines of a module are the line numbers
of the code objects compiled from it (`co_lines`), nested ones included.  It
needs only the standard library and pytest; the tracer makes a run about
three times slower.  The exit code is pytest's.
"""

import argparse
import os
import sys
import threading
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orefield"


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from the file."""
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs such as 3-5, 9."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def run_traced(files: list[Path], pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and, by file, the lines that ran."""
    import pytest

    ran: dict[str, set[int]] = {str(p): set() for p in files}
    seen: dict[str, set[int] | None] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = ran.get(os.path.realpath(name))
        return local if seen[name] is not None else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--source", default=str(PACKAGE), help="directory of the modules")
    args, pytest_args = parser.parse_known_args(argv)
    source = Path(os.path.realpath(args.source))
    files = sorted(source.glob("*.py"))
    code, ran = run_traced(files, pytest_args)
    total = 0
    print()
    for path in files:
        missing = sorted(executable_lines(path) - ran[str(path)])
        total += len(missing)
        if missing:
            print(f"{path.name}: {len(missing)} unrun: {ranges(missing)}")
    print(f"total: {total} unrun lines in {len(files)} modules")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
