"""Outside-in benchmark of ``dcs``: one workload on one seed per run.

    python3 bench/run.py --workload fit_suite --seed 0 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``. Set-up writes the workload's seeded inputs under ``.bench_work/``
three times; ``setup_s`` adds the median set-up to the median import time
of five fresh interpreters. The timed phase then runs the workload's
ops through ``dcs.cli.main`` one at a time, closed loop, in passes over the
same op list. The number of passes is ``--seconds`` over the workload's
nominal pass length, at least one, so every commit does the same work per
run. Every op's outputs go through the output gate. With ``--trace 1`` each
op runs twice in a row, untraced and then traced, and the run reports the
per-layer metrics and the tracing overhead instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit and sample count, the counters, the
environment and the digests. A fuller record goes to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fit_suite", "fit_wide", "apply_bulk")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
IMPORT_PROBE = """
import time
start = time.perf_counter()
import run
run.import_package()
import numpy, gate, spans, workloads
print(time.perf_counter() - start)
"""

# name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "evals_per_s": "1/s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}


def import_package(root: Path = ROOT):
    """Import ``dcs`` from ``root/src`` and nowhere else; None if absent."""
    init = root / "src" / "dcs" / "__init__.py"
    if not init.is_file():
        return None
    # single-threaded numeric kernels; DCS_THREADS only governs `compare`
    for var in ("DCS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    import dcs

    if Path(dcs.__file__).resolve() != init.resolve():
        return None
    return dcs


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import numpy, ``dcs`` and the
    benchmark's modules, over IMPORT_REPEATS child processes."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD of ``root`` read from .git files; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, to tell commits apart without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "dcs").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_op(cli, op, tracer=None):
    """(wall seconds, exit code or None, captured output) of one CLI call."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            if tracer is None:
                rc = cli.main(list(op.argv))
            else:
                with tracer.op(f"cli.{op.kind}", op.op_id):
                    rc = cli.main(list(op.argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code
    except Exception:  # a crashed op is a failed op; the run goes on
        rc = None
        sink.write(traceback.format_exc())
    return time.perf_counter() - start, rc, sink.getvalue()


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _end_to_end(passes, ops, setup_s):
    """Each end-to-end metric and its sample count, from untraced ops.

    Timings come from the fastest pass, and each op's fastest run. On a
    shared VM throughput flips between fast and slow phases that last several
    seconds, so a median over short passes mostly measures how much of the
    run fell into slow phases; the fastest pass measures the program.
    """
    per_pass, fastest_op = [], {}
    for execs in passes:
        plain = [e for e in execs if not e["traced"]]
        wall = sum(e["wall_s"] for e in plain)
        done = [e for e in plain if e["counters"]]
        rows = sum(ops[e["op_id"]].rows for e in done)
        if any("evaluations" in e["counters"] for e in done):
            evals = sum(e["counters"]["evaluations"] for e in done)
            busy = sum(e["counters"]["anneal_s"] for e in done)
        else:
            evals = sum(e["counters"]["z_evaluations"] for e in done)
            busy = sum(e["wall_s"] for e in done)
        per_pass.append(
            (wall, evals / busy if busy else 0.0, rows / wall if wall else 0.0)
        )
        for e in plain:
            fastest_op[e["op_id"]] = min(
                e["wall_s"], fastest_op.get(e["op_id"], e["wall_s"])
            )
    wall, evals_rate, rows_rate = min(per_pass)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    fastest = f"fastest of {len(passes)} passes"
    return {
        "setup_s": (
            setup_s,
            f"median of {IMPORT_REPEATS} imports + median of {SETUP_REPEATS}"
            " set-ups",
        ),
        "wall_s": (wall, fastest),
        "op_p50_s": (
            _median(list(fastest_op.values())),
            f"median over {len(fastest_op)} ops of each op's fastest of "
            f"{len(passes)} runs",
        ),
        "evals_per_s": (evals_rate, fastest),
        "rows_per_s": (rows_rate, fastest),
        "peak_rss_mb": (peak_kib / 1024.0, "1 process high-water mark"),
    }


def _per_layer(passes, tracers, ops, generate_s):
    """Each per-layer metric and its sample count, from the traced passes."""
    import spans

    per_pass = []
    for execs, tracer in zip(passes, tracers):
        traced = sum(e["wall_s"] for e in execs if e["traced"])
        plain = sum(e["wall_s"] for e in execs if not e["traced"])
        records = {e["op_id"]: e["counters"] for e in execs if e["traced"]}
        per_pass.append(
            spans.layer_metrics(tracer.spans, ops, records, generate_s, traced / plain)
        )
    measured = {}
    for name, unit in spans.LAYER_METRICS.items():
        values = [m[name] for m in per_pass]
        if unit == "count":  # equal in every pass, or the gate failed
            measured[name] = (values[0], "exact count per pass")
        else:
            measured[name] = (_median(values), f"median of {len(values)} traced passes")
    return measured


def run_workload(
    workload, seed, seconds, trace, root=ROOT, import_s=0.0, tiny=False,
    goldens=None,
):
    """Set up and run one workload; returns the full result record.

    ``goldens`` maps workload -> seed -> op_id -> digest; None reads the
    committed file.
    """
    import numpy as np

    import dcs.cli as cli
    import gate
    import spans
    from workloads import PASS_SECONDS, WORKLOADS

    work = root / ".bench_work" / workload
    setup_times, generate_times = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = time.perf_counter()
        prepared = WORKLOADS[workload](work, seed, tiny)
        setup_times.append(time.perf_counter() - start)
        generate_times.append(prepared.generate_s)
    ops = {op.op_id: op for op in prepared.ops}
    if goldens is None:
        goldens = gate.load_goldens()
    goldens = gate.golden_digests(goldens, workload, seed)

    golden = "unrecorded" if goldens is None else "match"
    first_digest: dict[str, str] = {}
    passes, tracers, problems = [], [], []
    # A traced pass runs every op twice, so it makes half the passes.
    planned = max(1, round(seconds / PASS_SECONDS[workload]) // (1 + trace))
    for _ in range(planned):
        tracer = spans.Tracer() if trace else None
        execs = []
        for op in prepared.ops:
            for traced in (False, True) if trace else (False,):
                wall, rc, log = run_op(cli, op, tracer if traced else None)
                digest, counters, issues = None, {}, []
                if rc != 0:
                    issues.append(f"exit code {rc}: {log[-2000:]}")
                else:
                    try:
                        digest, counters, issues = gate.check_op(op)
                    except Exception:  # unreadable outputs fail this op only
                        issues.append(traceback.format_exc())
                if digest is not None:
                    if first_digest.setdefault(op.op_id, digest) != digest:
                        issues.append("digest differs from this op's first run")
                    if goldens is not None and goldens.get(op.op_id) != digest:
                        issues.append("digest differs from the golden")
                        golden = "mismatch"
                problems.extend(
                    f"pass {len(passes)} {op.op_id}"
                    f"{' traced' if traced else ''}: {issue}"
                    for issue in issues
                )
                execs.append(
                    {"op_id": op.op_id, "traced": traced, "wall_s": wall,
                     "exit_code": rc, "digest": digest, "counters": counters,
                     "ok": not issues}
                )
        passes.append(execs)
        if tracer is not None:
            tracers.append(tracer)
            problems.extend(spans.nesting_problems(tracer.spans))

    attempted = sum(len(execs) for execs in passes)
    failed = sum(not e["ok"] for execs in passes for e in execs)
    if trace:
        measured = _per_layer(passes, tracers, ops, _median(generate_times))
        units = spans.LAYER_METRICS
    else:
        measured = _end_to_end(passes, ops, import_s + _median(setup_times))
        units = END_TO_END

    counts = [e["counters"] for e in passes[0] if not e["traced"]]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, (value, _) in measured.items()
        },
        "samples": {name: note for name, (_, note) in measured.items()},
        "fail_ratio": failed / attempted,
        "golden": golden,
        "digests": first_digest,
        "counters": dict(zip(ops, counts)),
        "problems": problems,
        "setup_runs_s": setup_times,
        "pass_walls_s": [
            sum(e["wall_s"] for e in execs if not e["traced"]) for execs in passes
        ],
        "anneal_accounting": [
            row for tracer in tracers[:1]
            for row in spans.anneal_accounting(tracer.spans)
        ],
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": git_commit(root),
            "src_sha256": source_digest(root),
            "workload": workload,
            "seed": seed,
            "inputs": prepared.inputs,
            "ops_per_pass": len(prepared.ops),
            "passes": len(passes),
            "closed_loop_clients": 1,
        },
        "_tracers": tracers,
    }


def report(result) -> str:
    """Human-readable lines, then the one-line JSON result."""
    lines = [
        f"workload {result['workload']} seed {result['seed']} "
        f"trace {result['trace']}: {result['env']['passes']} pass(es) of "
        f"{result['env']['ops_per_pass']} ops"
    ]
    for name, m in result["metrics"].items():
        lines.append(
            f"  {name:34} {m['value']:<22.10g} {m['unit']:7} "
            f"({result['samples'][name]})"
        )
    lines.append(
        f"  {'fail_ratio':34} {result['fail_ratio']:<22.10g} {'ratio':7} "
        f"({result['failed']} failed of {result['attempted']} ops)"
    )
    lines.append(f"gate: {result['golden']} for seed {result['seed']}")
    lines.extend(f"problem: {p}" for p in result["problems"][:20])
    lines.append("digests " + json.dumps(result["digests"], sort_keys=True))
    lines.append("counters " + json.dumps(result["counters"], sort_keys=True))
    lines.append("env " + json.dumps(result["env"], sort_keys=True))
    lines.append(
        json.dumps(
            {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return "\n".join(lines)


def save(result, root: Path = ROOT) -> Path:
    import spans

    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    record = {k: v for k, v in result.items() if k != "_tracers"}
    path = out / f"{stem}.json"
    with path.open("w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    if result["_tracers"]:
        spans.write_spans(out / f"{stem}-spans.csv", result["_tracers"])
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if import_package() is None:
        print(f"error: no dcs package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run_workload(
        args.workload, args.seed, args.seconds, args.trace,
        import_s=import_seconds(),
    )
    save(result)
    print(report(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
