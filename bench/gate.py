"""Output gate: digests of what each op wrote, checks that hold on any seed,
and the committed goldens for the default seeds.

A fit op's digest covers ``best_xi``, ``best_z``, ``z_trace`` and
``acceptance_counts`` from ``solve.json``; an apply op's covers the bytes of
``predictions.csv`` and the corrected and baseline ``z_value`` from
``report.json``. Floats enter the digest through ``repr``, so any bit change
shows. The counters come from the same files, which the program already
writes.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from dcs.cli import mode_indices
from dcs.data import load_dataset
from dcs.objective import objective_value
from dcs.scheme import load_scheme

GOLDENS = Path(__file__).resolve().parent / "goldens.json"


def _sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def fit_digest(solve: dict) -> str:
    core = {
        key: solve[key]
        for key in ("best_xi", "best_z", "z_trace", "acceptance_counts")
    }
    return _sha256(json.dumps(core, sort_keys=True).encode())


def apply_digest(predictions: bytes, report: dict) -> str:
    zs = f"{report['report']['z_value']!r},{report['baseline']['z_value']!r}"
    return _sha256(predictions, zs.encode())


def check_fit(op) -> tuple[str, dict, list[str]]:
    """Digest, counters and problems of one ``dcs optimize`` op."""
    with (op.out / "solve.json").open(encoding="utf-8") as fh:
        solve = json.load(fh)
    scheme = load_scheme(op.out / "scheme.json")
    opt = load_dataset(op.out / "optimization_set.json")
    cfg = scheme.anneal_config
    best_xi = tuple(solve["best_xi"])
    best_z = solve["best_z"]
    z_trace = solve["z_trace"]
    counts = solve["acceptance_counts"]
    loops = solve["outer_loops_run"]
    generated_cap = math.ceil(cfg.lambda2 * opt.num_classes)

    problems = []
    if objective_value(opt, scheme.catalog, best_xi, scheme.objective) != best_z:
        problems.append("objective_value(best_xi) differs from best_z")
    if scheme.best_z != best_z or scheme.selection != best_xi:
        problems.append("scheme.json disagrees with solve.json")
    if not len(z_trace) == len(counts) == loops >= 1:
        problems.append("z_trace, acceptance_counts and outer_loops_run disagree")
    elif z_trace[-1] != best_z or any(b > a for a, b in zip(z_trace, z_trace[1:])):
        problems.append("z_trace is not a non-increasing trace ending at best_z")
    if not set(best_xi) <= set(mode_indices(scheme.catalog, op.mode)):
        problems.append(f"best_xi {best_xi} leaves mode {op.mode}")

    evaluations = sum(g for g, _ in counts)
    counters = {
        "evaluations": evaluations,
        "accepted": sum(a for _, a in counts),
        "outer_loops": loops,
        "cap_bound_loops": sum(1 for g, _ in counts if g == generated_cap),
        "stop_reason": (
            "max_outer_loops" if loops == cfg.max_outer_loops
            else "min_temperature"
        ),
        "final_temperature": solve["temperatures"][-1] if loops else None,
        "anneal_s": solve["wall_time"],
        "m": opt.num_instances,
        "n": opt.num_classes,
    }
    return fit_digest(solve), counters, problems


def check_apply(op) -> tuple[str, dict, list[str]]:
    """Digest, counters and problems of one ``dcs apply`` op."""
    raw = (op.out / "predictions.csv").read_bytes()
    with (op.out / "report.json").open(encoding="utf-8") as fh:
        report = json.load(fh)
    lines = raw.decode("utf-8").splitlines()
    body = [line.split(",") for line in lines[1:]]

    problems = []
    if lines[0] != "id,label,prediction":
        problems.append("predictions.csv header")
    if not len(body) == report["num_instances"] == op.rows:
        problems.append(
            f"rows: input {op.rows}, report {report['num_instances']}, "
            f"predictions {len(body)}"
        )
    else:
        labels = np.array([int(r[1]) for r in body])
        preds = np.array([int(r[2]) for r in body])
        if preds.min() < 1 or preds.max() > op.num_classes:
            problems.append("prediction outside 1..N")
        accuracy = 1.0 - float(np.mean(preds != labels))
        if accuracy != report["report"]["overall_accuracy"]:
            problems.append("predictions.csv disagrees with report accuracy")
    audit = op.audit_best_z is not None
    if report["optimization_set_match"] != audit:
        problems.append(f"optimization_set_match is not {audit}")
    reproduced = (
        report["recomputed_z"] == report["recorded_best_z"] == op.audit_best_z
    )
    if audit and not reproduced:
        problems.append("audit did not reproduce best_z")

    counters = {
        "rows_read": report["num_instances"],
        "rows_written": len(body),
        # whole-dataset Z computations: corrected, baseline, and the audit
        "z_evaluations": 2 + (report["recomputed_z"] is not None),
    }
    return apply_digest(raw, report), counters, problems


def check_op(op):
    return check_fit(op) if op.kind == "optimize" else check_apply(op)


def load_goldens() -> dict:
    if not GOLDENS.exists():
        return {}
    with GOLDENS.open(encoding="utf-8") as fh:
        return json.load(fh)


def golden_digests(goldens: dict, workload: str, seed: int) -> dict | None:
    """op_id -> digest recorded from the seed code, or None if unrecorded."""
    return goldens.get(workload, {}).get(str(seed))
