"""Smoke tests for the scripts under ``scripts/``."""
import importlib.util
import re
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_comparison_leaves_no_temporary_suite(tmp_path, monkeypatch, capsys):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setenv("TMPDIR", str(scratch))
    # tempfile caches the directory it found first; make it read TMPDIR
    monkeypatch.setattr(tempfile, "tempdir", None)
    out = tmp_path / "out"
    run_comparison = _script("run_comparison")

    argv = ["--out", str(out), "--seeds", "0", "--modes", "dnip"]
    assert run_comparison.main(argv) == 0

    assert (out / "runs.csv").is_file()
    assert (out / "summary.csv").is_file()
    printed = capsys.readouterr().out
    mean = r"\nmean eval accuracy over the suite:\n +dnip: \d\.\d{4}\n$"
    assert re.search(mean, printed)
    assert list(scratch.iterdir()) == []
