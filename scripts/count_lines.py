"""Count the lines of each ``src/dcs`` module by kind.

A line is a docstring line when it lies inside the docstring of the module,
a class or a function, as ``ast`` finds them; otherwise it is blank, a
comment (its first non-blank character is ``#``) or code. Run from the
repository root:

    python scripts/count_lines.py [package_dir]
    python scripts/count_lines.py --against REF [package_dir]

With ``--against``, it prints each module's code lines at the git ref
``REF`` (read with ``git show REF:<module>``), in the working tree, and
the change between them; a module missing on one side counts 0 there.
"""
from __future__ import annotations

import argparse
import ast
import subprocess
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


def count(path: Path, source: str | None = None) -> dict[str, int]:
    """The lines of each kind in ``source``, or in the file at ``path``."""
    if source is None:
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


def git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(root), *args], check=True, capture_output=True, text=True
    ).stdout


def code_at(root: Path, ref: str) -> dict[str, int]:
    """The code lines of each module in ``root`` at the git ref ``ref``."""
    names = git(root, "ls-tree", "--name-only", ref, "./").split()
    return {
        name: count(root / name, git(root, "show", f"{ref}:./{name}"))["code"]
        for name in names
        if name.endswith(".py")
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count src/dcs lines by kind.")
    parser.add_argument(
        "package_dir", nargs="?", type=Path,
        default=Path(__file__).parents[1] / "src" / "dcs",
    )
    parser.add_argument(
        "--against", metavar="REF",
        help="print each module's code-line change against this git ref",
    )
    args = parser.parse_args(argv)
    root = args.package_dir
    modules = sorted(root.glob("*.py"))
    if not modules:
        print(f"no Python modules in {root}", file=sys.stderr)
        return 1
    if args.against:
        return print_change(root, modules, args.against)
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


def print_change(root: Path, modules: list[Path], ref: str) -> int:
    """Print the code lines of each module at ``ref`` and now, and the
    change."""
    try:
        before = code_at(root, ref)
    except subprocess.CalledProcessError as exc:
        print(f"git failed on {ref!r}: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    now = {path.name: count(path)["code"] for path in modules}
    names = sorted(before.keys() | now.keys())
    width = max(map(len, names))
    rows = [(name, before.get(name, 0), now.get(name, 0)) for name in names]
    rows.append(("all", sum(before.values()), sum(now.values())))
    print(f"{'module':<{width}} {ref[:9]:>9} {'now':>9} {'change':>9}")
    for name, old, new in rows:
        print(f"{name:<{width}} {old:>9} {new:>9} {new - old:>+9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
