#!/usr/bin/env python3
"""Benchmark legs outside BENCHMARK.json, and tiny bench runs, timed by a
checkout's own ``bench/run.py``.

    cd CHECKOUT && python3 /path/to/legs.py --workload fit_k14 \
        --seed 0 --seconds 25 --trace 0
    cd CHECKOUT && python3 /path/to/legs.py --tiny --workload apply_bulk \
        --seed 0 --seconds 1 --trace 0

It takes ``bench/run.py``'s flags, with ``--trace 0`` only, plus ``--tiny``,
and runs in the root of a checkout. A leg below is registered in this
process only: its set-up goes into the checkout's ``workloads.WORKLOADS``,
its nominal pass length into ``workloads.PASS_SECONDS``, and
``gate.check_op`` sends the leg's own op kind to the leg's checker, while
every bench op keeps the bench's check. Then the checkout's
``run.run_workload``, ``run.save`` and ``run.report`` do the rest, so the
pass loop, the check that each op gives one digest in every run, the
metrics, ``setup_s`` (import probes included, except with ``--tiny``), the
fail count and the ``.bench_out/`` record are the bench's own for every
leg. The legs are registered at run time because ``bench/`` changes only
in a benchmark round; ROADMAP item 18b moves their set-ups into
``bench/workloads.py``. A bench workload is taken only with ``--tiny``, which runs it at
the sizes ``bench/test_bench.py`` uses; at full size BENCHMARK.json's own
command runs it.

* ``oracle``: ``dcs oracle`` over ``generate(profile, train_size,
  replica=seed)`` of p1, searched in ``dcs`` mode (49^3 = 117,649
  vectors), and of p3 in ``furud`` mode (19^4 = 130,321); ``--tiny`` takes
  p2 ``dcs`` and p1 ``furud`` on 200-row sets. An op's digest is the
  SHA-256 of ``oracle.json``'s ``best_xi``, ``best_z``, ``num_evaluated``
  and ``ties``; ``evals_per_s`` is vectors scored per second.
* ``fit_k14``: one ``dcs optimize --mode dcs`` at the paper schedule on
  2,000 rows of a seeded 14-class ``wide_profile``, so the walk's keys are
  uint32; checked by the bench's own ``gate.check_fit``. ``--tiny``: 300
  rows and ``--max-outer 2``.
* ``compare``: one ``dcs compare`` of the five suite tasks' train sets
  (replica 0) against their eval sets (replica 1), modes
  ``dcs,dnip,furud``, three seeds from the leg's stream: 45 grid cells at
  ``DCS_THREADS=1``. Its digest is the SHA-256 of ``runs.csv`` without its
  ``wall_time`` column, then ``summary.csv``; ``evals_per_s`` is grid cells
  per second. ``--tiny``: 200-row sets and ``--max-outer 2``.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys

TINY_ROWS = 200
# (suite task, mode) of each oracle op, full size and --tiny
ORACLE_SPACES = {False: (("p1", "dcs"), ("p3", "furud")),
                 True: (("p2", "dcs"), ("p1", "furud"))}


def setup_oracle(work, seed, tiny):
    from dcs.data import save_dataset
    from dcs.synth import benchmark_suite
    import workloads as wl

    tasks = {task.name: task for task in benchmark_suite()}
    timer, ops, inputs = wl._Timer(), [], []
    for name, mode in ORACLE_SPACES[tiny]:
        task = tasks[name]
        rows = TINY_ROWS if tiny else task.train_size
        ds = timer.generate(task.profile, rows, replica=seed)
        path = work / f"{name}.csv"
        save_dataset(ds, path)
        inputs.append(wl._shape(path.name, ds, "csv"))
        out = work / "out" / f"{name}_{mode}"
        argv = ("oracle", "--input", str(path), "--mode", mode, "--out", str(out))
        ops.append(wl.Op(f"{name}/{mode}", "oracle", argv, out, "csv",
                         ds.num_instances, ds.num_classes, mode))
    return wl.Prepared(ops=ops, inputs=inputs, generate_s=timer.seconds)


def check_oracle(op):
    with (op.out / "oracle.json").open(encoding="utf-8") as fh:
        result = json.load(fh)
    core = {key: result[key] for key in ("best_xi", "best_z", "num_evaluated", "ties")}
    digest = hashlib.sha256(json.dumps(core, sort_keys=True).encode()).hexdigest()
    return digest, {"z_evaluations": result["num_evaluated"]}, []


def setup_fit_k14(work, seed, tiny):
    from dcs.data import save_dataset
    import workloads as wl

    rng, timer = wl._stream(seed, "fit_k14"), wl._Timer()
    ds = timer.generate(wl.wide_profile(rng, num_classes=14),
                        300 if tiny else 2000, replica=0)
    path = work / "k14_train.csv"
    save_dataset(ds, path)
    extra = ("--max-outer", "2") if tiny else ()
    op = wl._optimize_op("k14/dcs", path, ds, "csv", "dcs", wl._draw_seed(rng),
                         work / "out" / "k14", extra)
    return wl.Prepared(ops=[op], inputs=[wl._shape(path.name, ds, "csv")],
                       generate_s=timer.seconds)


def setup_compare(work, seed, tiny):
    from dcs.data import save_dataset
    from dcs.synth import benchmark_suite
    import workloads as wl

    rng, timer = wl._stream(seed, "compare"), wl._Timer()
    argv, inputs = ["compare"], []
    for task in benchmark_suite():
        for flag, part, size, replica in (("--input", "train", task.train_size, 0),
                                          ("--eval-input", "eval", task.eval_size, 1)):
            ds = timer.generate(task.profile, TINY_ROWS if tiny else size, replica)
            path = work / f"{task.name}_{part}.csv"
            save_dataset(ds, path)
            inputs.append(wl._shape(path.name, ds, "csv"))
            argv += [flag, str(path)]
    seeds = ",".join(str(wl._draw_seed(rng)) for _ in range(3))
    out = work / "out"
    argv += ["--mode", "dcs,dnip,furud", "--seed", seeds, "--out", str(out)]
    argv += ["--max-outer", "2"] if tiny else []
    op = wl.Op("suite/compare", "compare", tuple(argv), out, "csv",
               sum(shape["rows"] for shape in inputs),
               max(shape["num_classes"] for shape in inputs))
    return wl.Prepared(ops=[op], inputs=inputs, generate_s=timer.seconds)


def check_compare(op):
    with (op.out / "runs.csv").open(encoding="utf-8", newline="") as fh:
        runs = list(csv.reader(fh))
    cut = runs[0].index("wall_time")
    kept = [row[:cut] + row[cut + 1:] for row in runs]
    digest = hashlib.sha256(json.dumps(kept).encode())
    digest.update((op.out / "summary.csv").read_bytes())
    return digest.hexdigest(), {"z_evaluations": len(runs) - 1}, []


# leg -> (set-up, nominal seconds of one full-size pass on a 2-vCPU Xeon,
# Python 3.11, numpy 2.4, checker of each op kind the bench does not know)
LEGS = {
    "oracle": (setup_oracle, 4.0, {"oracle": check_oracle}),
    "fit_k14": (setup_fit_k14, 0.75, {}),
    "compare": (setup_compare, 3.6, {"compare": check_compare}),
}


def main(argv=None) -> int:
    sys.path.insert(0, os.path.abspath("bench"))
    import run

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*run.WORKLOAD_NAMES, *LEGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0,), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload in run.WORKLOAD_NAMES and not args.tiny:
        parser.error(f"{args.workload} runs through bench/run.py; add --tiny")

    if run.import_package() is None:
        print(f"error: no dcs package under {run.ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload in LEGS:
        import gate
        import workloads

        setup, seconds, checkers = LEGS[args.workload]
        workloads.WORKLOADS[args.workload] = setup
        workloads.PASS_SECONDS[args.workload] = seconds
        check_op = gate.check_op
        gate.check_op = lambda op: checkers.get(op.kind, check_op)(op)
    result = run.run_workload(
        args.workload, args.seed, args.seconds, 0,
        import_s=0.0 if args.tiny else run.import_seconds(),
        tiny=args.tiny, goldens={},
    )
    run.save(result)
    print(run.report(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
