"""Seeded workloads: the inputs each one writes in set-up, and the ops of one pass.

A workload's set-up draws every input from the workload seed, writes it under
the work directory, and returns the list of ``dcs`` CLI calls that make up one
pass. Each op's per-call ``--seed`` is drawn from the same stream, so a seed
fixes the whole workload. ``tiny=True`` shrinks every input and schedule so
the self-test finishes in seconds; it keeps the same code paths.

Why each workload exists:

* ``fit_suite``: the paper's headline use, ``dcs optimize`` on the five suite
  tasks in every mode with the paper schedule. M is small, so fixed
  per-candidate cost dominates, and about 99% of candidates are accepted.
* ``fit_wide``: one N = 8, ~6k-row fit from a cold start (``--init-temp 0.1``),
  so row work dominates and about three in four candidates are rejected; the
  workload where incremental or delta scoring can pay. Every outer loop runs
  to the generated cap, so the evaluation count does not depend on the seed.
* ``apply_bulk``: ``dcs apply`` of a fixed scheme to ~10^5 held-out rows as CSV
  and as JSON, plus the audit path on the scheme's own optimization set. No
  annealing; parsing and prediction writes dominate.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dcs.annealing import AnnealConfig
from dcs.cli import MODES
from dcs.corrections import default_function_set
from dcs.data import LabeledDataset, load_dataset, save_dataset
from dcs.objective import ObjectiveWeights, objective_value
from dcs.scheme import CorrectionScheme, save_scheme
from dcs.synth import BiasProfile, benchmark_suite, generate

SEED_BOUND = 2**31


@dataclass(frozen=True)
class Op:
    """One CLI call of a pass, with what the output gate needs to check it."""

    op_id: str
    kind: str  # "optimize" or "apply"
    argv: tuple[str, ...]
    out: Path
    input_format: str
    rows: int
    num_classes: int
    mode: str | None = None  # optimize only
    audit_best_z: float | None = None  # apply on the scheme's own set only


@dataclass
class Prepared:
    ops: list[Op]
    inputs: list[dict]  # one shape record per generated input file
    generate_s: float  # time spent in synth.generate


class _Timer:
    """Accumulates the time spent in ``synth.generate`` during one set-up."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def generate(self, profile, rows, replica) -> LabeledDataset:
        start = time.perf_counter()
        ds = generate(profile, rows, replica=replica)
        self.seconds += time.perf_counter() - start
        return ds


def _stream(seed: int, workload: str) -> np.random.Generator:
    tag = [ord(ch) for ch in workload]
    return np.random.default_rng(np.random.SeedSequence([seed, *tag]))


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(SEED_BOUND))


def _shape(name: str, ds: LabeledDataset, fmt: str) -> dict:
    return {
        "file": name,
        "format": fmt,
        "rows": ds.num_instances,
        "num_classes": ds.num_classes,
    }


def _optimize_op(op_id, path, ds, fmt, mode, seed, out, extra) -> Op:
    argv = (
        "optimize", "--input", str(path), "--mode", mode,
        "--seed", str(seed), "--out", str(out), *extra,
    )
    return Op(
        op_id=op_id, kind="optimize", argv=argv, out=out, input_format=fmt,
        rows=ds.num_instances, num_classes=ds.num_classes, mode=mode,
    )


def setup_fit_suite(work: Path, seed: int, tiny: bool = False) -> Prepared:
    rng = _stream(seed, "fit_suite")
    timer = _Timer()
    extra = ("--max-outer", "2") if tiny else ()
    ops, inputs = [], []
    for task in benchmark_suite():
        rows = 200 if tiny else task.train_size
        ds = timer.generate(task.profile, rows, replica=_draw_seed(rng))
        path = work / f"{task.name}_train.csv"
        save_dataset(ds, path)
        inputs.append(_shape(path.name, ds, "csv"))
        for mode in MODES:
            op_id = f"{task.name}/{mode}"
            ops.append(
                _optimize_op(
                    op_id, path, ds, "csv", mode, _draw_seed(rng),
                    work / "out" / task.name / mode, extra,
                )
            )
    return Prepared(ops=ops, inputs=inputs, generate_s=timer.seconds)


def wide_profile(rng: np.random.Generator, num_classes: int = 8) -> BiasProfile:
    """An N-class profile with seeded, moderately skewed priors and targets."""
    priors = rng.dirichlet(np.full(num_classes, 8.0))
    targets = rng.uniform(0.35, 0.95, size=num_classes)
    return BiasProfile(
        num_classes=num_classes,
        class_priors=tuple(float(p) for p in priors / priors.sum()),
        target_accuracy=tuple(float(t) for t in targets),
        confusion_temperature=float(rng.uniform(0.8, 1.2)),
        seed=_draw_seed(rng),
    )


def setup_fit_wide(work: Path, seed: int, tiny: bool = False) -> Prepared:
    rng = _stream(seed, "fit_wide")
    timer = _Timer()
    profile = wide_profile(rng)
    ds = timer.generate(profile, 300 if tiny else 6000, replica=0)
    path = work / "wide_train.csv"
    save_dataset(ds, path)
    # lambda1 = lambda2 ends every outer loop at exactly ceil(60 * N)
    # candidates, so the evaluation count (45 * 480) is the same on every
    # seed; with the default lambda1 it swung from 15k to 28k by seed.
    extra = ("--init-temp", "0.1", "--lambda1", "60", "--lambda2", "60")
    if tiny:
        extra += ("--min-temp", "0.05")
    op = _optimize_op(
        "wide/dcs", path, ds, "csv", "dcs", _draw_seed(rng),
        work / "out" / "wide", extra,
    )
    return Prepared(
        ops=[op], inputs=[_shape(path.name, ds, "csv")],
        generate_s=timer.seconds,
    )


def _fixed_selection(rng: np.random.Generator, size: int, n: int, k0: int):
    """A seeded selection that corrects at least one class."""
    while True:
        xi = tuple(int(k) for k in rng.integers(1, size + 1, size=n))
        if any(k != k0 for k in xi):
            return xi


def setup_apply_bulk(work: Path, seed: int, tiny: bool = False) -> Prepared:
    rng = _stream(seed, "apply_bulk")
    timer = _Timer()
    profile = benchmark_suite()[4].profile  # p5, the widest suite task
    catalog = default_function_set()
    weights = ObjectiveWeights()

    # JSON round-trips floats exactly, so the reloaded set keeps the
    # fingerprint the scheme records and the apply takes the audit path.
    opt_path = work / "scheme_opt_set.json"
    save_dataset(
        timer.generate(profile, 200 if tiny else 2000, _draw_seed(rng)),
        opt_path,
    )
    opt = load_dataset(opt_path)
    selection = _fixed_selection(
        rng, catalog.size, opt.num_classes, catalog.dont_change_index
    )
    best_z = objective_value(opt, catalog, selection, weights)
    scheme_path = work / "scheme.json"
    save_scheme(
        CorrectionScheme(
            catalog=catalog,
            selection=selection,
            objective=weights,
            anneal_config=AnnealConfig(seed=seed),
            best_z=best_z,
            dataset_num_instances=opt.num_instances,
            dataset_num_classes=opt.num_classes,
            dataset_sha256=opt.fingerprint(),
        ),
        scheme_path,
    )

    held = timer.generate(profile, 2000 if tiny else 100_000, _draw_seed(rng))
    inputs = [_shape(opt_path.name, opt, "json")]
    ops = []
    targets = []
    for fmt in ("csv", "json"):
        path = work / f"held_out.{fmt}"
        save_dataset(held, path)
        inputs.append(_shape(path.name, held, fmt))
        targets.append((f"held_out/{fmt}", path, held, fmt, None))
    targets.append(("scheme_opt_set/json", opt_path, opt, "json", best_z))
    for op_id, path, ds, fmt, audit_z in targets:
        out = work / "out" / op_id.replace("/", "_")
        ops.append(
            Op(
                op_id=op_id,
                kind="apply",
                argv=(
                    "apply", "--scheme", str(scheme_path),
                    "--input", str(path), "--out", str(out),
                ),
                out=out,
                input_format=fmt,
                rows=ds.num_instances,
                num_classes=ds.num_classes,
                audit_best_z=audit_z,
            )
        )
    return Prepared(ops=ops, inputs=inputs, generate_s=timer.seconds)


WORKLOADS = {
    "fit_suite": setup_fit_suite,
    "fit_wide": setup_fit_wide,
    "apply_bulk": setup_apply_bulk,
}

# Seconds one pass took on the machine the benchmark was built on (2 vCPU
# Xeon, Python 3.11, numpy 2.4). A run makes round(seconds / this) passes,
# a fixed amount of work, so a faster commit does not run more passes.
PASS_SECONDS = {"fit_suite": 14.0, "fit_wide": 11.0, "apply_bulk": 1.5}
