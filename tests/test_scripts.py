"""Smoke tests for the scripts under ``scripts/``."""
import importlib.util
import json
import re
import shutil
import sys
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


def _bench_copy(dest: Path) -> Path:
    """A checkout with only ``src/`` and ``bench/``, copied from this one."""
    for name in ("src", "bench"):
        shutil.copytree(
            ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__")
        )
    return dest


def _trajectory(tmp_path, parent, change, workload, pairs):
    out = tmp_path / "report.json"
    argv = [
        "--parent", str(parent), "--change", str(change), "--pairs", str(pairs),
        "--workload", workload, "--seed", "0", "--tiny", "--out", str(out),
    ]
    assert _script("trajectory").main(argv) == 0
    return json.loads(out.read_text(encoding="utf-8"))


def test_trajectory_a_a_run(tmp_path, capsys):
    parent, change = _bench_copy(tmp_path / "a"), _bench_copy(tmp_path / "b")
    report = _trajectory(tmp_path, parent, change, "apply_bulk", 2)

    assert capsys.readouterr().out.startswith("digests: equal in all 2 pairs\n")
    assert report["digests"] == {"equal": True, "differing": {}}
    assert report["pairs"] == 2
    assert [run["first"] for run in report["runs"]] == ["parent", "change"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["end_to_end"]]
    assert list(report["metrics"]) == names
    for metric in report["metrics"].values():
        assert 0 <= metric["wins"] <= 2
        for side in ("parent", "change"):
            quartiles = metric[side]
            assert quartiles["q1"] <= quartiles["median"] <= quartiles["q3"]
    for run in report["runs"]:
        assert list(run["parent"]) == list(run["change"]) == names
    sides = report["sides"]
    assert sides["parent"]["source"] == str(parent)
    assert sides["change"]["source"] == str(change)
    assert sides["parent"]["src_sha256"] == sides["change"]["src_sha256"]
    assert sides["parent"]["attempted"] == sides["change"]["attempted"] > 0
    assert sides["parent"]["failed"] == sides["change"]["failed"] == 0
    assert set(report["env"]) == {"cpu_model", "nproc", "python", "numpy"}
    # the copies' bench modules were loaded in this process and dropped again
    assert not [
        name for name, module in sys.modules.items()
        if str(getattr(module, "__file__", None)).startswith(str(tmp_path))
    ]


def test_trajectory_reports_changed_outputs(tmp_path, capsys):
    parent, change = _bench_copy(tmp_path / "a"), _bench_copy(tmp_path / "b")
    objective = change / "src" / "dcs" / "objective.py"
    source = objective.read_text(encoding="utf-8")
    assert source.count("z = z + w.tau * pmi") == 1
    objective.write_text(
        source.replace("z = z + w.tau * pmi", "z = z + 2 * w.tau * pmi"),
        encoding="utf-8",
    )
    report = _trajectory(tmp_path, parent, change, "fit_suite", 2)

    assert capsys.readouterr().out.startswith("digests DIFFER")
    assert not report["digests"]["equal"]
    assert report["digests"]["differing"]
    for digests in report["digests"]["differing"].values():
        assert not set(digests["parent"]) & set(digests["change"])


def test_trajectory_op_with_digests_on_one_side_differs():
    trajectory = _script("trajectory")

    def pair(parent, change):
        return {"parent": {"digests": parent}, "change": {"digests": change}}

    same = {"a": "1", "b": "2"}
    assert trajectory.digest_check([pair(same, same)] * 2) == {
        "equal": True, "differing": {}
    }
    # "b" fails in every run of the change, so only the parent digests it
    runs = [pair(same, {"a": "1"}), pair(same, {"a": "1"})]
    assert trajectory.digest_check(runs) == {
        "equal": False, "differing": {"b": {"parent": ["2"], "change": []}}
    }
    # "a" changes its digest between two runs of the parent
    runs = [pair(same, same), pair({"a": "3", "b": "2"}, same)]
    assert trajectory.digest_check(runs)["differing"] == {
        "a": {"parent": ["1", "3"], "change": ["1"]}
    }
