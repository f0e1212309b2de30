"""List the ``src/dcs`` lines that the tier-1 tests never run.

Runs pytest in this process under a ``sys.settrace`` line tracer limited to
``src/dcs``, then prints ``module:line: text`` for every line of every code
object in the package that no test reached, and a total. A function's
``def`` line counts as run when the function is called. Worker processes
(the ``DCS_THREADS=2`` grid) are not traced. Run from the repository root:

    python scripts/uncovered.py [pytest arguments]

The tests take about three times as long traced as untraced. The exit
status is pytest's.
"""
from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dcs"


def code_lines(code: types.CodeType) -> set[int]:
    """Line numbers of ``code`` and of every code object nested in it."""
    # None marks no line, 0 an artificial instruction
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and the lines run per ``src/dcs`` file."""
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        ran.setdefault(code.co_filename, set()).add(code.co_firstlineno)
        return local

    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    status, ran = traced_run(argv)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        lines = code_lines(compile(source, str(path), "exec"))
        for line in sorted(lines - ran.get(str(path), set())):
            print(f"{path.name}:{line}: {text[line - 1].strip()}")
            total += 1
    print(f"{total} line(s) in {PACKAGE.relative_to(ROOT)} never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
