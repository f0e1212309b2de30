"""The package root's public names, and the README's two quick starts.

``dcs`` re-exports only the library API: what the acceptance gate imports,
the dataset loader and its input type, and the two error classes. Everything
else is imported from the module that defines it.
"""
import ast
import re
import shlex
from pathlib import Path

import dcs
from dcs.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _root_imports(path: Path) -> set[str]:
    """The names a file imports ``from dcs``, wherever the import sits."""
    return {
        alias.name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module == "dcs"
        for alias in node.names
    }


class TestRootAll:
    def test_no_duplicates(self):
        assert len(dcs.__all__) == len(set(dcs.__all__))

    def test_every_entry_resolves(self):
        assert [name for name in dcs.__all__ if not hasattr(dcs, name)] == []

    def test_covers_the_acceptance_imports(self):
        imported = _root_imports(ROOT / "tests" / "test_acceptance.py")
        # the parse must see the gate's imports, or the check below is empty
        assert {"anneal", "evaluate", "CorrectionScheme"} <= imported
        assert sorted(imported - set(dcs.__all__)) == []


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(
        r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S
    )
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--out", "data/suite"]) == 0
    capsys.readouterr()
    exec(compile(blocks[0], "README.md", "exec"), {})
    # best_xi with accuracy and cobias, then furud's best_z, evaluations, stop
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_readme_cli_quick_start_runs(tmp_path, monkeypatch):
    # each command as written, in order, so each reads what the ones before
    # it wrote; the oracle line once named files that no command writes
    section = (ROOT / "README.md").read_text().split("## Quick start (CLI)\n")[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, re.M | re.S).group(1)
    commands = [
        shlex.split(line)
        for line in block.replace("\\\n", " ").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    assert [command[:2] for command in commands] == [
        ["dcs", name]
        for name in ("generate", "optimize", "apply", "compare", "report", "oracle")
    ]
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(command[1:]) == 0, command
