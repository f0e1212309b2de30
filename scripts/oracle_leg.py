#!/usr/bin/env python3
"""The ``oracle`` leg of ``scripts/trajectory.py``: ``dcs oracle`` on two
search spaces, timed as one benchmark process of a checkout.

    cd CHECKOUT && python3 /path/to/oracle_leg.py [--tiny] \
        --workload oracle --seed 0 --seconds 25 --trace 0

It takes ``bench/run.py``'s flags, with ``--workload oracle`` and
``--trace 0`` only, and runs in the root of a checkout: it times that
checkout's ``src/dcs`` and reports through that checkout's ``bench/run.py``
(``run_op``, ``save`` and ``report``), so its record lands in the
checkout's ``.bench_out/`` as a bench run's does. Set-up writes
``generate(profile, train_size, replica=seed)`` of two suite tasks under
``.bench_work/oracle/``: p1 searched in ``dcs`` mode (49^3 = 117,649
vectors) and p3 in ``furud`` mode (19^4 = 130,321). ``--tiny`` takes p2
``dcs`` and p1 ``furud`` on 200-row sets. The timed phase runs both ops in
round(seconds / pass length) passes, at least one. An op's digest is the
SHA-256 of ``oracle.json``'s ``best_xi``, ``best_z``, ``num_evaluated`` and
``ties``; an op fails on a non-zero exit or on a digest that differs from
its first run.

The metrics carry BENCHMARK.json's end-to-end names: ``setup_s`` is the
set-up's wall, ``wall_s`` the fastest pass, ``op_p50_s`` the median over
ops of each op's fastest run, ``evals_per_s`` the vectors scored and
``rows_per_s`` the rows loaded per second of the fastest pass, and
``peak_rss_mb`` the process's high-water mark.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# (suite task, mode) of each op, full size and --tiny
SPACES = {False: (("p1", "dcs"), ("p3", "furud")),
          True: (("p2", "dcs"), ("p1", "furud"))}
TINY_ROWS = 200
# seconds of one pass on a 2-vCPU Xeon, Python 3.11, numpy 2.4
PASS_SECONDS = {False: 4.0, True: 0.25}


@dataclass(frozen=True)
class Op:
    """One ``dcs oracle`` call, with what ``run.run_op`` and the metrics
    need."""

    op_id: str
    argv: tuple[str, ...]
    out: Path
    rows: int


def oracle_digest(result: dict) -> str:
    core = {key: result[key] for key in ("best_xi", "best_z", "num_evaluated", "ties")}
    return hashlib.sha256(json.dumps(core, sort_keys=True).encode()).hexdigest()


def setup(work: Path, seed: int, tiny: bool) -> list[Op]:
    """Write the inputs under ``work``, emptied first; the ops of a pass."""
    from dcs.data import save_dataset
    from dcs.synth import benchmark_suite, generate

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tasks = {task.name: task for task in benchmark_suite()}
    ops = []
    for name, mode in SPACES[tiny]:
        task = tasks[name]
        rows = TINY_ROWS if tiny else task.train_size
        path = work / f"{name}.csv"
        save_dataset(generate(task.profile, rows, replica=seed), path)
        out = work / "out" / f"{name}_{mode}"
        argv = ("oracle", "--input", str(path), "--mode", mode, "--out", str(out))
        ops.append(Op(f"{name}/{mode}", argv, out, rows))
    return ops


def run_passes(run, cli, ops: list[Op], planned: int):
    """(passes, digests, problems): per pass, each op's (op_id, wall,
    vectors scored or None where it failed); each op's first digest; why
    each failed op failed."""
    passes, digests, problems = [], {}, []
    for p in range(planned):
        execs = []
        for op in ops:
            wall, rc, log = run.run_op(cli, op)
            vectors = None
            try:
                if rc != 0:
                    raise RuntimeError(f"exit code {rc}: {log[-2000:]}")
                with (op.out / "oracle.json").open(encoding="utf-8") as fh:
                    result = json.load(fh)
                digest = oracle_digest(result)
                if digests.setdefault(op.op_id, digest) != digest:
                    raise RuntimeError("digest differs from this op's first run")
                vectors = result["num_evaluated"]
            except Exception as exc:  # a failed op; the run goes on
                problems.append(f"pass {p} {op.op_id}: {exc}")
            execs.append((op.op_id, wall, vectors))
        passes.append(execs)
    return passes, digests, problems


def metrics(passes, ops: list[Op], setup_s: float) -> dict:
    """Each end-to-end metric as (value, sample note), timed as
    ``bench/run.py`` times them."""
    rows = {op.op_id: op.rows for op in ops}
    per_pass, fastest_op = [], {}
    for execs in passes:
        wall = sum(w for _, w, _ in execs)
        done = [(op_id, v) for op_id, _, v in execs if v is not None]
        vectors = sum(v for _, v in done)
        loaded = sum(rows[op_id] for op_id, _ in done)
        per_pass.append((wall, vectors / wall if wall else 0.0,
                         loaded / wall if wall else 0.0))
        for op_id, w, _ in execs:
            fastest_op[op_id] = min(w, fastest_op.get(op_id, w))
    wall, vectors_rate, rows_rate = min(per_pass)
    fastest = f"fastest of {len(passes)} passes"
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "1 set-up"),
        "wall_s": (wall, fastest),
        "op_p50_s": (
            statistics.median(fastest_op.values()),
            f"median over {len(fastest_op)} ops of each op's fastest of "
            f"{len(passes)} runs",
        ),
        "evals_per_s": (vectors_rate, f"vectors per second, {fastest}"),
        "rows_per_s": (rows_rate, fastest),
        "peak_rss_mb": (peak_kib / 1024.0, "1 process high-water mark"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("oracle",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0,), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    sys.path.insert(0, os.path.abspath("bench"))
    import run

    if run.import_package() is None:
        print(f"error: no dcs package under {run.ROOT / 'src'}", file=sys.stderr)
        return 2
    import numpy as np

    import dcs.cli as cli

    start = time.perf_counter()
    ops = setup(run.ROOT / ".bench_work" / "oracle", args.seed, args.tiny)
    setup_s = time.perf_counter() - start
    planned = max(1, round(args.seconds / PASS_SECONDS[args.tiny]))
    passes, digests, problems = run_passes(run, cli, ops, planned)
    measured = metrics(passes, ops, setup_s)

    attempted = len(ops) * len(passes)
    failed = sum(v is None for execs in passes for _, _, v in execs)
    result = {
        "workload": "oracle",
        "seed": args.seed,
        "trace": 0,
        "seconds": args.seconds,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": run.END_TO_END[name]}
            for name, (value, _) in measured.items()
        },
        "samples": {name: note for name, (_, note) in measured.items()},
        "fail_ratio": failed / attempted,
        "golden": "unrecorded",
        "digests": digests,
        "counters": {},
        "problems": problems,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": run.cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": run.git_commit(run.ROOT),
            "src_sha256": run.source_digest(run.ROOT),
            "workload": "oracle",
            "seed": args.seed,
            "passes": len(passes),
            "ops_per_pass": len(ops),
        },
        "_tracers": [],
    }
    run.save(result)
    print(run.report(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
