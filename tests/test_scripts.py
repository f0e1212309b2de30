"""Smoke tests for the scripts under ``scripts/``."""
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    assert set(report["env"]) == {"cpu_model", "nproc", "python", "numpy", "simd"}
    # the copies' bench modules were loaded in this process and dropped again
    assert not [
        name for name, module in sys.modules.items()
        if str(getattr(module, "__file__", None)).startswith(str(tmp_path))
    ]


def _double_tau(root: Path) -> None:
    """Make ``combine_terms`` in the checkout ``root`` double the tau term."""
    objective = root / "src" / "dcs" / "objective.py"
    source = objective.read_text(encoding="utf-8")
    assert source.count("z = z + w.tau * pmi") == 1
    objective.write_text(
        source.replace("z = z + w.tau * pmi", "z = z + 2 * w.tau * pmi"),
        encoding="utf-8",
    )


def test_trajectory_reports_changed_outputs(tmp_path, capsys):
    parent, change = _bench_copy(tmp_path / "a"), _bench_copy(tmp_path / "b")
    _double_tau(change)
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


# each leg of scripts/legs.py with the ops of its tiny run
LEGS = {
    "oracle": ["p1/furud", "p2/dcs"],
    "fit_k14": ["k14/dcs"],
    "compare": ["suite/compare"],
}


@pytest.mark.parametrize("leg", LEGS)
def test_trajectory_leg_a_a_run(tmp_path, capsys, leg):
    parent, change = _bench_copy(tmp_path / "a"), _bench_copy(tmp_path / "b")
    report = _trajectory(tmp_path, parent, change, leg, 2)

    assert capsys.readouterr().out.startswith("digests: equal in all 2 pairs\n")
    assert report["digests"] == {"equal": True, "differing": {}}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["end_to_end"]]
    assert list(report["metrics"]) == names
    for run in report["runs"]:
        assert list(run["parent"]) == list(run["change"]) == names
        assert all(value > 0 for value in run["parent"].values())
    for side in ("parent", "change"):
        assert report["sides"][side]["attempted"] > 0
        assert report["sides"][side]["failed"] == 0
    record = json.loads(
        (parent / ".bench_out" / f"{leg}-seed0-trace0.json").read_text(encoding="utf-8")
    )
    assert sorted(record["digests"]) == sorted(record["counters"]) == LEGS[leg]
    # the record is bench/run.py's own
    assert record["setup_runs_s"] and record["pass_walls_s"] and record["env"]["inputs"]


@pytest.mark.parametrize("leg", LEGS)
def test_trajectory_leg_reports_changed_outputs(tmp_path, capsys, leg):
    parent, change = _bench_copy(tmp_path / "a"), _bench_copy(tmp_path / "b")
    _double_tau(change)
    report = _trajectory(tmp_path, parent, change, leg, 2)

    assert capsys.readouterr().out.startswith("digests DIFFER")
    assert sorted(report["digests"]["differing"]) == LEGS[leg]
    for digests in report["digests"]["differing"].values():
        assert not set(digests["parent"]) & set(digests["change"])


def test_trajectory_simd_shows_disabled_features(monkeypatch):
    trajectory = _script("trajectory")
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__

    enabled = sorted(name for name, on in features.items() if on)
    assert trajectory.simd_features(sys.executable) == enabled
    # only the features numpy dispatches to at run time can be disabled
    disabled = [name for name in umath.__cpu_dispatch__ if features[name]]
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", " ".join(disabled))
    probed = set(trajectory.simd_features(sys.executable))
    assert probed < set(enabled) or not disabled
    assert not probed & set(disabled)


def test_trajectory_git_refs_of_this_repository(tmp_path, capsys):
    head = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    report = _trajectory(tmp_path, "HEAD", "HEAD", "apply_bulk", 2)

    assert capsys.readouterr().out.startswith("digests: equal in all 2 pairs\n")
    assert report["digests"] == {"equal": True, "differing": {}}
    for side in ("parent", "change"):
        assert report["sides"][side]["source"] == "HEAD"
        assert report["sides"][side]["commit"] == head
        assert report["sides"][side]["failed"] == 0


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(root), "-c", "user.name=test",
         "-c", "user.email=test@example.com", "-c", "commit.gpgsign=false", *args],
        check=True, capture_output=True, text=True,
    ).stdout.strip()


def _committed_copy(dest: Path) -> Path:
    """A ``_bench_copy`` committed to a local git repository of its own."""
    _bench_copy(dest)
    _git(dest, "init", "-q")
    _git(dest, "add", "-A")
    _git(dest, "commit", "-q", "-m", "copy")
    return dest


def test_trajectory_reports_a_dirty_side(tmp_path, capsys):
    parent, change = _committed_copy(tmp_path / "a"), _committed_copy(tmp_path / "b")
    init = change / "src" / "dcs" / "__init__.py"
    init.write_text(
        init.read_text(encoding="utf-8") + "# an uncommitted edit\n", encoding="utf-8"
    )
    report = _trajectory(tmp_path, parent, change, "apply_bulk", 2)

    printed = capsys.readouterr().out
    for side, root, dirty in (("parent", parent, False), ("change", change, True)):
        head = _git(root, "rev-parse", "HEAD")
        assert report["sides"][side]["commit"] == head
        assert report["sides"][side]["dirty"] is dirty
        label = f"{side}: {root} ({head}" + ", dirty" * dirty + ", src "
        assert label in printed
    # a directory outside git has no commit to name and lists no file
    plain = _bench_copy(tmp_path / "c")
    assert _script("trajectory").checkout(str(plain), tmp_path, "c") == (
        plain.resolve(), {"commit": "unknown", "dirty": False}
    )
