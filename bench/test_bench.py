"""Self-test of the benchmark at tiny sizes; finishes in seconds.

    python3 -m pytest -q bench/test_bench.py
"""
import json
import shutil
import subprocess
import sys

import pytest

import run

assert run.import_package() is not None, "run from a checkout with src/dcs"

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(workload, trace, goldens=None):
    return run.run_workload(workload, 0, 1, trace, tiny=True, goldens=goldens)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_printed_with_its_unit(workload, trace):
    result = _tiny(workload, trace, goldens={})
    assert result["correct"], result["problems"]
    lines = run.report(result).splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in last["metrics"].items()
    }
    for m in declared:
        assert any(
            line.split()[:1] == [m["name"]] and m["unit"] in line.split()
            for line in lines[:-1]
        ), m["name"]


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


def test_gate_fires_on_corrupted_digest():
    recorded = _tiny("apply_bulk", 0, goldens={})
    digests = recorded["digests"]
    assert recorded["golden"] == "unrecorded"

    goldens = {"apply_bulk": {"0": dict(digests)}}
    clean = _tiny("apply_bulk", 0, goldens=goldens)
    assert clean["golden"] == "match" and clean["failed"] == 0

    op_id = next(iter(digests))
    goldens["apply_bulk"]["0"][op_id] = "0" * 64
    corrupt = _tiny("apply_bulk", 0, goldens=goldens)
    assert corrupt["golden"] == "mismatch"
    assert not corrupt["correct"]
    assert corrupt["failed"] == corrupt["env"]["passes"]


def test_traced_run_accounts_for_each_anneal_span():
    result = _tiny("fit_suite", 1, goldens={})
    assert result["correct"], result["problems"]
    rows = result["anneal_accounting"]
    assert len(rows) == result["env"]["ops_per_pass"]
    for row in rows:
        assert 0.0 <= row["children_s"] <= row["span_s"]
        assert row["self_s"] == pytest.approx(row["span_s"] - row["children_s"])


def test_exits_nonzero_without_the_package():
    bare = run.ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in (run.ROOT / "bench").glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "fit_wide",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
