"""Count the lines of each ``src/dcs`` module by kind.

A line is a docstring line when it lies inside the docstring of the module,
a class or a function, as ``ast`` finds them; otherwise it is blank, a
comment (its first non-blank character is ``#``) or code. Run from the
repository root:

    python scripts/count_lines.py [package_dir]
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("total", "code", "docstring", "comment", "blank")
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """1-based numbers of the lines that docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    source = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(source, filename=str(path)))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            kind = "docstring"
        elif not stripped:
            kind = "blank"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
        counts["total"] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).parents[1] / "src" / "dcs"
    modules = sorted(root.glob("*.py"))
    if not modules:
        print(f"no Python modules in {root}", file=sys.stderr)
        return 1
    width = max(len(p.name) for p in modules)
    print(f"{'module':<{width}} " + " ".join(f"{k:>9}" for k in KINDS))
    totals = dict.fromkeys(KINDS, 0)
    for path in modules:
        counts = count(path)
        for kind in KINDS:
            totals[kind] += counts[kind]
        print(f"{path.name:<{width}} " + " ".join(f"{counts[k]:>9}" for k in KINDS))
    print(f"{'all':<{width}} " + " ".join(f"{totals[k]:>9}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
