#!/usr/bin/env python3
"""Paired benchmark runs of a parent and a change, with a verdict per metric.

    python3 scripts/trajectory.py --parent REF --pairs 10 \
        --workload fit_suite --seed 0 --out BENCH.json
    python3 scripts/trajectory.py --parent DIR --change DIR --pairs 2 \
        --workload apply_bulk --seed 0 --tiny
    python3 scripts/trajectory.py --parent REF --pairs 10 \
        --workload fit_k14 --seed 0

Each side is a checkout: a directory that holds ``src/dcs`` and ``bench/``,
or a git ref of this repository, which ``git archive`` exports into a
temporary directory removed at the end. ``--change`` defaults to the
checkout that holds this script. Every run is one fresh process started, as
the benchmark pipeline starts it, in the side's directory, at
BENCHMARK.json's ``run_seconds`` with ``--trace 0``: the command of
BENCHMARK.json for its own workloads, and ``scripts/legs.py`` for the
``oracle``, ``fit_k14`` and ``compare`` legs and for every ``--tiny`` run
(1 s, at the sizes ``bench/test_bench.py`` uses). ``legs.py`` takes the
same flags and runs the side's own ``run.run_workload``, ``run.save`` and
``run.report``, so every leg is timed and recorded as a bench run. A run's
result is its last line, and its environment and output digests are the
JSON of its ``env `` and ``digests `` lines. Both sides of a pair run the
same seed; the parent goes first in even pairs and the change in odd ones.
Nothing under ``bench/`` is edited.

The report is printed and, with ``--out``, written as one JSON object:

* ``digests``: ``equal``, and ``differing``, which maps each op that does
  not give one and the same digest in every run of both sides to the
  digests each side gave; a difference means the change alters outputs, so
  it comes first;
* ``metrics``: per end-to-end metric of BENCHMARK.json, its ``unit`` and
  ``better``; ``parent`` and ``change``, each ``bench/spread.py``'s
  ``summarize`` over the pairs (``median``, ``q1``, ``q3``, ``spread``,
  ``n``); ``wins``, the pairs in which the change is better;
  ``median_ratio``, the median of change / parent over the pairs;
* ``workload``, ``seed``, ``seconds``, ``tiny``, ``pairs``;
* ``sides``: per side, its ``source`` as given, ``commit`` (``unknown``
  for a directory outside git), ``dirty`` (whether ``git status`` lists an
  uncommitted file under a directory side's ``src``, ``bench`` or
  ``scripts``), ``src_sha256``, and its ``attempted`` and ``failed`` ops
  over all runs;
* ``env``: CPU model and count and the Python and numpy versions, from the
  first run, and ``simd``, the CPU features numpy enables in the
  interpreter that runs the command, probed once per call under this
  process's environment, so that ``NPY_DISABLE_CPU_FEATURES`` shows;
* ``runs``: per pair, the side that went first and each side's metric
  values.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
LEGS_SCRIPT = ROOT / "scripts" / "legs.py"
# a directory side is dirty when git status lists a file under these
DIRTY_DIRS = ("src", "bench", "scripts")
SIMD_PROBE = """
import json
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
print(json.dumps(sorted(name for name, on in __cpu_features__.items() if on)))
"""


def simd_features(python: str) -> list[str]:
    """The CPU features numpy enables in the interpreter ``python``."""
    return json.loads(subprocess.run(
        [python, "-c", SIMD_PROBE], check=True, capture_output=True, text=True
    ).stdout)


def git(root: Path, *args: str) -> str | None:
    """The output of ``git args`` run in ``root``, None when git fails."""
    proc = subprocess.run(
        ["git", "-C", str(root), *args], capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def checkout(source: str, scratch: Path, name: str) -> tuple[Path, dict]:
    """(directory, ``commit`` and ``dirty``) of a side: ``source`` itself,
    with git's view of it, when it is a directory, else the export of the
    git ref ``source`` under ``scratch``."""
    if Path(source).is_dir():
        root = Path(source).resolve()
        return root, {
            "commit": git(root, "rev-parse", "HEAD") or "unknown",
            "dirty": bool(git(root, "status", "--porcelain", "--", *DIRTY_DIRS)),
        }

    def run(cmd: list[str], stdin: bytes | None = None) -> bytes:
        return subprocess.run(
            cmd, input=stdin, check=True, capture_output=True
        ).stdout

    commit = run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{source}^{{commit}}"]
    ).decode().strip()
    dest = scratch / name
    dest.mkdir()
    run(["tar", "-x", "-C", str(dest)],
        run(["git", "-C", str(ROOT), "archive", commit]))
    return dest, {"commit": commit, "dirty": False}


def run_once(root: Path, bench: dict, workload: str, seed: int) -> dict:
    """The last-line result of one benchmark process started in ``root``,
    with the JSON of its ``env `` and ``digests `` lines."""
    cmd = [
        *bench["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}"
        )
    lines = proc.stdout.strip().splitlines()
    tagged = [line.split(" ", 1) for line in lines
              if line.startswith(("env ", "digests "))]
    return {**json.loads(lines[-1]), **{k: json.loads(v) for k, v in tagged}}


def verdict(runs: list[dict], declared: list[dict], summarize) -> dict:
    """The per-metric block of the report from the pairs' results."""
    metrics = {}
    for m in declared:
        name = m["name"]
        values = {
            side: [pair[side]["metrics"][name]["value"] for pair in runs]
            for side in SIDES
        }
        sign = 1 if m["better"] == "higher" else -1
        pairs = list(zip(values["parent"], values["change"]))
        ratios = [c / p for p, c in pairs if p]
        metrics[name] = {
            "unit": m["unit"],
            "better": m["better"],
            **{side: summarize(values[side]) for side in SIDES},
            "wins": sum(sign * (c - p) > 0 for p, c in pairs),
            "median_ratio": statistics.median(ratios) if ratios else None,
        }
    return metrics


def digest_check(runs: list[dict]) -> dict:
    """The digest block of the report: the ops whose digests differ."""
    seen: dict[str, dict[str, set]] = {}
    for pair in runs:
        for side in SIDES:
            for op_id, digest in pair[side]["digests"].items():
                seen.setdefault(op_id, {s: set() for s in SIDES})[side].add(digest)
    differing = {
        op_id: {side: sorted(d) for side, d in sides.items()}
        for op_id, sides in sorted(seen.items())
        if not (len(sides["parent"]) == len(sides["change"]) == 1
                and sides["parent"] == sides["change"])
    }
    return {"equal": not differing, "differing": differing}


def report_lines(report: dict) -> list[str]:
    digests, k = report["digests"], report["pairs"]
    if digests["equal"]:
        lines = [f"digests: equal in all {k} pairs"]
    else:
        differing = ", ".join(digests["differing"])
        lines = [f"digests DIFFER, the change alters outputs: {differing}"]
    for side in SIDES:
        s = report["sides"][side]
        lines.append(
            f"{side}: {s['source']} ({s['commit']}{', dirty' if s['dirty'] else ''},"
            f" src {s['src_sha256'][:12]}),"
            f" {s['failed']} of {s['attempted']} ops failed"
        )
    for name, m in report["metrics"].items():
        p, c = m["parent"], m["change"]
        ratio = "n/a" if m["median_ratio"] is None else f"{m['median_ratio']:.4f}"
        lines.append(
            f"  {name:12} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
            f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] {m['unit']}"
            f"  wins {m['wins']}/{k}  ratio {ratio}"
        )
    return lines


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "bench"))
    from spread import summarize

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = importlib.util.spec_from_file_location("legs", LEGS_SCRIPT)
    legs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(legs)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref or directory")
    parser.add_argument("--change", default=None,
                        help="git ref or directory (default: this checkout)")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument(
        "--workload", required=True,
        choices=[w["name"] for w in bench["workloads"]] + list(legs.LEGS),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", type=Path, help="write the report as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.seed < 0:
        parser.error("--pairs must be >= 2 and --seed >= 0")

    if args.tiny or args.workload in legs.LEGS:
        bench["command"] = [sys.executable, str(LEGS_SCRIPT)] + ["--tiny"] * args.tiny
    if args.tiny:
        bench["run_seconds"] = 1
    simd = simd_features(bench["command"][0])
    # the change defaults to this checkout, recorded as "."
    labels = {"parent": args.parent, "change": args.change or "."}
    sources = {**labels, "change": args.change or str(ROOT)}
    with tempfile.TemporaryDirectory(prefix="trajectory-") as scratch:
        try:
            dirs, states = {}, {}
            for side in SIDES:
                dirs[side], states[side] = checkout(sources[side], Path(scratch), side)
        except subprocess.CalledProcessError as exc:
            print(f"error: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        runs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(dirs[side], bench, args.workload, args.seed)
            runs.append(pair)
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    env = runs[0]["parent"]["env"]
    report = {
        "digests": digest_check(runs),
        "metrics": verdict(runs, bench["end_to_end"], summarize),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": bench["run_seconds"],
        "tiny": args.tiny,
        "pairs": args.pairs,
        "sides": {
            side: {
                "source": labels[side],
                **states[side],
                "src_sha256": runs[0][side]["env"]["src_sha256"],
                "attempted": sum(pair[side]["attempted"] for pair in runs),
                "failed": sum(pair[side]["failed"] for pair in runs),
            }
            for side in SIDES
        },
        "env": {
            **{key: env[key] for key in ("cpu_model", "nproc", "python", "numpy")},
            "simd": simd,
        },
        "runs": [
            {
                "first": pair["first"],
                **{
                    side: {n: m["value"] for n, m in pair[side]["metrics"].items()}
                    for side in SIDES
                },
            }
            for pair in runs
        ],
    }
    print("\n".join(report_lines(report)))
    if args.out:
        with args.out.open("w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
