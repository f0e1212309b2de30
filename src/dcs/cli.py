"""Command line front end for the correction-scheme toolkit.

Subcommands
-----------
optimize   split a labeled dataset, anneal a correction scheme on the large
           part, report dev metrics, write scheme + solve trace
apply      apply a saved scheme to a dataset, write predictions + report
compare    grid of (dataset x mode x seed) runs with a summary table
report     extract (task, N, search space, wall time, loops) from solve files
oracle     exhaustive search on a small problem, for certification
generate   write the built-in synthetic benchmark suite (or one profile)

Exit codes: 0 success, 2 validation error, 3 solver precondition error,
4 I/O error. All randomness is funneled through ``--seed``; ``optimize``
and ``compare`` refuse to run without it.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .annealing import AnnealConfig, anneal, initial_solution
from .corrections import (
    MODES,
    FunctionSet,
    default_function_set,
    kind_bucket,
    load_catalog,
    mode_indices,
)
from .data import (
    LabeledDataset,
    load_dataset,
    save_dataset,
    save_predictions,
    split_dataset,
)
from .errors import PreconditionError, ValidationError
from .objective import (
    OBJECTIVES,
    EvalReport,
    ObjectiveWeights,
    _report_from_predictions,
    evaluate,
    predict,
)
from .oracle import SPACE_LIMIT, exhaustive_search
from .records import Record, read_record, write_csv, write_json
from .scheme import CorrectionScheme, load_scheme, save_scheme
from .synth import SuiteTask, benchmark_suite, load_profile, save_profile


def _weights_from_args(args) -> ObjectiveWeights:
    return ObjectiveWeights.from_mode(args.objective, beta=args.beta, tau=args.tau)


# AnnealConfig field -> the parsed schedule flag that sets it
_SCHEDULE_FLAGS = {
    "initial_temperature": "init_temp",
    "cooling_rate": "alpha",
    "lambda1": "lambda1",
    "lambda2": "lambda2",
    "min_temperature": "min_temp",
    "max_outer_loops": "max_outer",
}


def _schedule_from_args(args) -> dict:
    """The AnnealConfig fields other than seed, from the schedule flags."""
    return {field: getattr(args, flag) for field, flag in _SCHEDULE_FLAGS.items()}


def _catalog_from_args(args) -> FunctionSet:
    if args.catalog is not None:
        return load_catalog(args.catalog)
    return default_function_set()


def _write_per_class_csv(
    path: Path,
    fs: FunctionSet,
    selection: tuple[int, ...],
    report: EvalReport,
) -> None:
    """Human-readable per-class table for one evaluation report."""
    rows = []
    for c, (k, desc) in enumerate(zip(selection, report.correction_params)):
        params = ";".join(f"{key}={desc[key]}" for key in sorted(desc) if key != "kind")
        acc = report.per_class_accuracy[c]  # an absent class: None, written ""
        rows.append([c + 1, report.class_counts[c], acc, kind_bucket(fs, k), params])
    write_csv(
        path,
        ["class", "n_true", "accuracy", "correction_kind", "correction_params"],
        rows,
    )


def _write_rows_csv(path: Path, rows: list[dict]) -> None:
    """``rows`` as a table; the first row's keys name the columns."""
    write_csv(path, rows[0].keys(), (row.values() for row in rows))


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _out_dir(args) -> Path:
    """The ``--out`` directory, created if missing."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _baseline(ds, catalog, weights) -> EvalReport:
    """The report of the identity selection: every class left unchanged.

    Don't Change maps every probability to itself bit for bit, so its
    predictions are the argmax of the raw rows."""
    return _report_from_predictions(
        ds, catalog, initial_solution(catalog, ds.num_classes),
        np.argmax(ds.probabilities, axis=1) + 1, weights,
    )


def _print_before_after(baseline, corrected, accuracy, cobias) -> None:
    """"<accuracy> a -> b", then "<cobias> a -> b" when both define it."""
    print(
        f"{accuracy} {_fmt(baseline.overall_accuracy)} -> "
        f"{_fmt(corrected.overall_accuracy)}"
    )
    if baseline.cobias is not None and corrected.cobias is not None:
        print(f"{cobias} {_fmt(baseline.cobias)} -> {_fmt(corrected.cobias)}")


# ----------------------------------------------------------------- optimize


def cmd_optimize(args) -> None:
    ds = load_dataset(args.input, args.format)
    catalog = _catalog_from_args(args)
    weights = _weights_from_args(args)
    config = AnnealConfig(seed=args.seed, **_schedule_from_args(args))
    split = split_dataset(ds, args.dev_fraction, args.seed)
    opt = split.optimization_set
    # scored first: a dev set the objective cannot score is refused before
    # the walk
    dev_baseline = _baseline(split.dev_set, catalog, weights)
    allowed = mode_indices(catalog, args.mode)
    result = anneal(opt, catalog, weights, config, allowed_indices=allowed)
    dev_corrected = evaluate(split.dev_set, catalog, result.best_xi, weights)
    num_allowed = len(allowed)
    scheme = CorrectionScheme(
        catalog=catalog,
        selection=result.best_xi,
        objective=weights,
        anneal_config=config,
        best_z=result.best_z,
        dataset_num_instances=opt.num_instances,
        dataset_num_classes=opt.num_classes,
        dataset_sha256=opt.fingerprint(),
    )

    out = _out_dir(args)
    save_scheme(scheme, out / "scheme.json")
    solve_payload = {
        "task": Path(args.input).stem,
        "num_classes": ds.num_classes,
        "mode": args.mode,
        "objective": args.objective,
        "seed": args.seed,
        "search_space": ds.num_classes * catalog.size,
        "num_allowed": num_allowed,
        **result.to_dict(),
    }
    write_json(out / "solve.json", solve_payload)
    _write_rows_csv(out / "trace.csv", result.trace_rows())
    save_dataset(opt, out / "optimization_set.json")
    save_dataset(split.dev_set, out / "dev_set.json")
    write_json(out / "dev_report.json", dev_corrected.to_dict())
    write_json(out / "dev_baseline.json", dev_baseline.to_dict())
    _write_per_class_csv(
        out / "dev_report.csv", catalog, result.best_xi, dev_corrected
    )

    print(
        f"optimize: {ds.num_instances} rows -> {opt.num_instances} optimization"
        f" + {split.dev_set.num_instances} dev, mode {args.mode},"
        f" {num_allowed} of {catalog.size} functions searchable"
    )
    print(
        f"best_z {result.best_z:.6f} after {result.outer_loops_run} outer loops"
        f" ({result.wall_time:.2f}s)"
    )
    _print_before_after(dev_baseline, dev_corrected, "dev accuracy", "dev cobias")
    print(
        "wrote scheme.json solve.json trace.csv optimization_set.json dev_set.json"
        f" dev_report.json dev_baseline.json dev_report.csv -> {out}"
    )


# -------------------------------------------------------------------- apply


def cmd_apply(args) -> None:
    scheme = load_scheme(args.scheme)
    ds = load_dataset(args.input, args.format)
    if ds.num_classes != scheme.num_classes:
        raise ValidationError(
            f"{args.input}: dataset has {ds.num_classes} classes but scheme "
            f"{args.scheme} covers {scheme.num_classes}"
        )
    catalog = scheme.catalog
    preds = predict(ds, catalog, scheme.selection)
    try:
        corrected = _report_from_predictions(
            ds, catalog, scheme.selection, preds, scheme.objective
        )
        baseline = _baseline(ds, catalog, scheme.objective)

        match = scheme.matches_dataset(ds)
        recomputed = None
        if match:
            # evaluate's z_value is the objective by construction: one scorer
            recomputed = corrected.z_value
            if recomputed != scheme.best_z:
                raise PreconditionError(
                    "scheme does not reproduce its recorded objective on its own "
                    f"optimization set: recorded {scheme.best_z!r}, got {recomputed!r}"
                )
    except PreconditionError as exc:
        # the weights and the recorded Z are the scheme's, the rows the input's
        raise PreconditionError(f"{args.scheme} on {args.input}: {exc}") from None

    out = _out_dir(args)
    save_predictions(ds, preds, out / "predictions.csv")
    write_json(
        out / "report.json",
        {
            "dataset": str(args.input),
            "num_instances": ds.num_instances,
            "num_classes": ds.num_classes,
            "optimization_set_match": match,
            "recorded_best_z": scheme.best_z,
            "recomputed_z": recomputed,
            "report": corrected.to_dict(),
            "baseline": baseline.to_dict(),
        },
    )
    _write_per_class_csv(
        out / "report.csv", catalog, scheme.selection, corrected
    )

    _print_before_after(
        baseline, corrected, f"apply: {ds.num_instances} rows, accuracy", "cobias"
    )
    if match:
        print("input is the scheme's optimization set; recorded best_z reproduced")
    print(f"wrote predictions.csv report.json report.csv -> {out}")


# ------------------------------------------------------------------ compare


def _run_cell(payload: tuple) -> dict:
    """One (dataset, mode, seed) grid cell: a walk on ``train`` over
    ``mode``'s functions, scored on ``eval_ds``. ``config`` is the seed's
    AnnealConfig and ``baseline`` the report of ``eval_ds``'s baseline, both
    built once for the grid. Top level so it pickles."""
    (name, train, eval_ds, baseline, mode, config, catalog, weights) = payload
    allowed = mode_indices(catalog, mode)
    result = anneal(train, catalog, weights, config, allowed_indices=allowed)
    corrected = evaluate(eval_ds, catalog, result.best_xi, weights)
    train_corrected = evaluate(train, catalog, result.best_xi, weights)

    kinds = Counter(kind_bucket(catalog, k) for k in result.best_xi)

    base_acc = baseline.per_class_accuracy
    present = [
        (acc, c + 1) for c, acc in enumerate(base_acc) if acc is not None
    ]
    weakest_acc, weakest_class = min(present)
    weakest_kind = kind_bucket(catalog, result.best_xi[weakest_class - 1])

    return {
        "dataset": name,
        "mode": mode,
        "seed": config.seed,
        "num_classes": train.num_classes,
        "best_z": result.best_z,
        "train_accuracy": train_corrected.overall_accuracy,
        "eval_accuracy": corrected.overall_accuracy,
        "eval_cobias": corrected.cobias,
        "baseline_eval_accuracy": baseline.overall_accuracy,
        "baseline_eval_cobias": baseline.cobias,
        "num_dont_change": kinds["dont_change"],
        "num_membership": kinds["membership"],
        "num_weight": kinds["weight"],
        "weakest_class": weakest_class,
        "weakest_class_baseline_accuracy": weakest_acc,
        "weakest_kind": weakest_kind,
        "wall_time": result.wall_time,
    }


def _thread_budget() -> int:
    raw = os.environ.get("DCS_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        value = 0  # rejected below, with the same message
    if value < 1:
        raise ValidationError(
            f"DCS_THREADS must be a positive integer, got {raw!r}"
        )
    return value


def run_compare_grid(
    named_datasets: list[tuple[str, LabeledDataset, LabeledDataset]],
    modes: tuple[str, ...],
    seeds: tuple[int, ...],
    catalog: FunctionSet,
    weights: ObjectiveWeights,
    config_kw: dict,
) -> list[dict]:
    """Run every (dataset, mode, seed) cell; rows sorted deterministically.

    ``named_datasets`` holds (name, train, eval) triples; eval may be the
    train set itself when no held-out data exists. ``config_kw`` is the
    AnnealConfig fields minus seed. Concurrency is capped by DCS_THREADS
    (default 1, sequential); each cell is an independent chain, so every
    field except wall_time is identical at any thread count. The process
    pool is imported only when DCS_THREADS > 1, so a run without it loads
    neither ``concurrent.futures`` nor ``multiprocessing``. A repeated
    dataset name, mode or seed raises ValidationError: its rows would merge
    into one summary row.

    Before the first walk, after those checks and DCS_THREADS's, it builds
    each seed's AnnealConfig once, so a bad seed raises PreconditionError,
    then scores each eval set's baseline once, so an eval set the objective
    cannot score raises too; the cells share both. A train set that
    ``anneal`` refuses is refused at its first cell.
    """
    names = [name for name, _, _ in named_datasets]
    for what, values in (("dataset name", names), ("mode", modes), ("seed", seeds)):
        repeated = [v for v, n in Counter(values).items() if n > 1]
        if repeated:
            raise ValidationError(f"compare grid repeats {what} {repeated[0]!r}")
    threads = _thread_budget()
    configs = {seed: AnnealConfig(seed=seed, **config_kw) for seed in seeds}
    baselines = {n: _baseline(ds, catalog, weights) for n, _, ds in named_datasets}
    cells = [
        (name, train, eval_ds, baselines[name], mode, configs[seed], catalog, weights)
        for name, train, eval_ds in named_datasets
        for mode in modes
        for seed in seeds
    ]
    if threads > 1 and len(cells) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(cells))) as pool:
            rows = list(pool.map(_run_cell, cells))
    else:
        rows = [_run_cell(cell) for cell in cells]
    rows.sort(key=lambda r: (r["dataset"], r["mode"], r["seed"]))
    return rows


def _column(rows: list[dict], key: str) -> list:
    """The values of ``key`` in ``rows`` that are not None."""
    return [r[key] for r in rows if r[key] is not None]


def _mean(values: list) -> float | None:
    return float(np.mean(values)) if values else None


def _std(values: list) -> float:
    """Sample standard deviation; 0.0 below two values."""
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def summarize_rows(rows: list[dict]) -> list[dict]:
    """Per-(dataset, mode) mean/std table with selection-kind tallies."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["dataset"], row["mode"]), []).append(row)
    out = []
    for (dataset, mode), members in sorted(groups.items()):
        accs = _column(members, "eval_accuracy")
        cobs = _column(members, "eval_cobias")
        dc = sum(r["num_dont_change"] for r in members)
        mem = sum(r["num_membership"] for r in members)
        wgt = sum(r["num_weight"] for r in members)
        out.append(
            {
                "dataset": dataset,
                "mode": mode,
                "num_seeds": len(members),
                "accuracy_mean": _mean(accs),
                "accuracy_std": _std(accs),
                "cobias_mean": _mean(cobs),
                "cobias_std": _std(cobs),
                "baseline_accuracy_mean": _mean(
                    _column(members, "baseline_eval_accuracy")
                ),
                "baseline_cobias_mean": _mean(
                    _column(members, "baseline_eval_cobias")
                ),
                "dont_change_total": dc,
                "membership_total": mem,
                "weight_total": wgt,
                "kind_tally": f"membership:weight:dont_change={mem}:{wgt}:{dc}",
                "weakest_membership_seeds": sum(
                    1 for r in members if r["weakest_kind"] == "membership"
                ),
            }
        )
    return out


def cmd_compare(args) -> None:
    if args.eval_input and len(args.eval_input) != len(args.input):
        raise ValidationError(
            f"got {len(args.input)} --input but {len(args.eval_input)} "
            "--eval-input; they pair one-to-one"
        )
    named = []
    for i, path in enumerate(args.input):
        train = load_dataset(path, args.format)
        if args.eval_input:
            eval_ds = load_dataset(args.eval_input[i], args.format)
            if eval_ds.num_classes != train.num_classes:
                raise ValidationError(
                    f"{args.eval_input[i]}: eval set has "
                    f"{eval_ds.num_classes} classes, train has "
                    f"{train.num_classes}"
                )
        else:
            eval_ds = train
        named.append((Path(path).stem, train, eval_ds))

    catalog = _catalog_from_args(args)
    weights = _weights_from_args(args)
    rows = run_compare_grid(
        named,
        tuple(args.mode),
        tuple(args.seed),
        catalog,
        weights,
        _schedule_from_args(args),
    )
    summary = summarize_rows(rows)

    out = _out_dir(args)
    _write_rows_csv(out / "runs.csv", rows)
    _write_rows_csv(out / "summary.csv", summary)

    print(
        f"compare: {len(named)} dataset(s) x {len(args.mode)} mode(s) x "
        f"{len(args.seed)} seed(s) = {len(rows)} runs"
    )
    for entry in summary:
        cb = entry["cobias_mean"]
        print(
            f"  {entry['dataset']:>12} {entry['mode']:>6}: "
            f"acc {_fmt(entry['accuracy_mean'])}"
            + (f", cobias {_fmt(cb)}" if cb is not None else "")
            + f"  [{entry['kind_tally']}]"
        )
    print(f"wrote runs.csv summary.csv -> {out}")


# ------------------------------------------------------------------- report


@dataclass(frozen=True)
class _SolveRow(Record):
    """The fields of a solve file that ``report`` tabulates."""

    task: str
    num_classes: int
    search_space: int
    wall_time: float
    outer_loops_run: int


def cmd_report(args) -> None:
    rows = [read_record(p, _SolveRow, "solve file") for p in args.solve_files]
    header = ["task", "num_classes", "search_space", "wall_time", "outer_loops"]
    # str(float) is repr(float): wall_time round-trips exactly
    values = [r.to_dict().values() for r in rows]
    if args.out is None:
        csv.writer(sys.stdout).writerows([header, *values])
        return
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out, header, values)
    print(f"report: {len(rows)} run(s) -> {out}")


# ------------------------------------------------------------------- oracle


def cmd_oracle(args) -> None:
    ds = load_dataset(args.input, args.format)
    catalog = _catalog_from_args(args)
    weights = _weights_from_args(args)
    allowed = mode_indices(catalog, args.mode)
    result = exhaustive_search(
        ds, catalog, weights, limit=args.limit, allowed_indices=allowed
    )
    out = _out_dir(args)
    write_json(
        out / "oracle.json",
        {
            "task": Path(args.input).stem,
            "num_classes": ds.num_classes,
            "mode": args.mode,
            **result.to_dict(),
        },
    )
    print(
        f"oracle: evaluated {result.num_evaluated} selection vectors, "
        f"best_z {result.best_z:.6f}, {result.ties} tie(s) at the optimum"
    )
    print(f"wrote oracle.json -> {out}")


# ----------------------------------------------------------------- generate


# rows of each set that ``generate --profile`` writes by default
_PROFILE_ROWS = 2000


def cmd_generate(args) -> None:
    if args.profile is None:
        for flag, value in (
            ("--name", args.name),
            ("--train-size", args.train_size),
            ("--eval-size", args.eval_size),
        ):
            if value is not None:
                raise ValidationError(
                    f"{flag} applies only with --profile; without it, "
                    "generate writes the built-in suite"
                )
        tasks = benchmark_suite()
    else:
        name = args.name or Path(args.profile).stem
        # the files go inside --out, where suite.json names them
        if name in (".", "..") or Path(name).name != name:
            raise ValidationError(f"--name must be a file name, got {name!r}")
        profile = load_profile(args.profile)
        train_size, eval_size = (
            _PROFILE_ROWS if size is None else size
            for size in (args.train_size, args.eval_size)
        )
        tasks = [SuiteTask(name, profile, train_size, eval_size)]
    # every set is drawn, so every size checked, before --out is made
    drawn = [(task, task.train_dataset(), task.eval_dataset()) for task in tasks]

    out = _out_dir(args)
    manifest = []
    for task, train, eval_ds in drawn:
        # --dataset-format's choices are the file suffixes
        train_path = out / f"{task.name}_train.{args.dataset_format}"
        eval_path = out / f"{task.name}_eval.{args.dataset_format}"
        profile_path = out / f"{task.name}_profile.json"
        save_dataset(train, train_path, args.dataset_format)
        save_dataset(eval_ds, eval_path, args.dataset_format)
        save_profile(task.profile, profile_path)
        n = task.profile.num_classes
        manifest.append(
            {
                "name": task.name,
                "num_classes": n,
                "train_size": task.train_size,
                "eval_size": task.eval_size,
                "train": train_path.name,
                "eval": eval_path.name,
                "profile": profile_path.name,
            }
        )
        print(
            f"generate: {task.name} N={n} "
            f"train={task.train_size} eval={task.eval_size}"
        )
    write_json(out / "suite.json", {"tasks": manifest})
    print(f"wrote {len(manifest)} task(s) + suite.json -> {out}")


# ------------------------------------------------------------------- parser


def _seed_list(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    return seeds


def _mode_list(text: str) -> tuple[str, ...]:
    modes = tuple(part.strip() for part in text.split(",") if part.strip())
    for mode in modes:
        if mode not in MODES:
            raise argparse.ArgumentTypeError(
                f"unknown mode {mode!r}, expected one of {MODES}"
            )
    if not modes:
        raise argparse.ArgumentTypeError("need at least one mode")
    return modes


def _add_objective_flags(sub) -> None:
    sub.add_argument(
        "--objective",
        choices=OBJECTIVES,
        default="full",
        help="objective variant: full, err only, or err+pmi (default full)",
    )
    full = ObjectiveWeights()
    for flag, term in (("beta", "imbalance"), ("tau", "PMI")):
        help_text = f"{term} weight (default %(default)g)"
        sub.add_argument(
            f"--{flag}", type=float, default=getattr(full, flag), help=help_text
        )


def _add_schedule_flags(sub) -> None:
    """The ``_SCHEDULE_FLAGS``, defaulting to AnnealConfig's paper schedule."""
    paper = AnnealConfig(seed=0)
    for field, flag in _SCHEDULE_FLAGS.items():
        default = getattr(paper, field)
        sub.add_argument(
            "--" + flag.replace("_", "-"), type=type(default), default=default
        )


def _add_catalog_flag(sub) -> None:
    sub.add_argument(
        "--catalog",
        default=None,
        help="JSON catalog file (default: built-in 49-function set)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcs",
        description="Select per-class probability corrections by annealing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="anneal a correction scheme")
    p.add_argument("--input", required=True, help="labeled dataset (csv or json)")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--mode", choices=MODES, default="dcs")
    _add_objective_flags(p)
    _add_schedule_flags(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--dev-fraction",
        type=float,
        default=0.05,
        help="held-out fraction for dev metrics (default 0.05)",
    )
    _add_catalog_flag(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("apply", help="apply a saved scheme to a dataset")
    p.add_argument("--scheme", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("compare", help="grid of dataset x mode x seed runs")
    p.add_argument(
        "--input", action="append", required=True, help="repeatable train set"
    )
    p.add_argument(
        "--eval-input",
        action="append",
        default=None,
        help="held-out set paired with each --input (repeatable)",
    )
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument(
        "--mode",
        type=_mode_list,
        default=MODES,
        help="comma-separated modes (default dcs,dnip,furud)",
    )
    _add_objective_flags(p)
    _add_schedule_flags(p)
    p.add_argument(
        "--seed",
        type=_seed_list,
        required=True,
        help="comma-separated seeds, one run per seed",
    )
    _add_catalog_flag(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="summarize solve.json files as CSV")
    p.add_argument("solve_files", nargs="+")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("oracle", help="exhaustive search on a small problem")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--mode", choices=MODES, default="dcs")
    _add_objective_flags(p)
    _add_catalog_flag(p)
    p.add_argument(
        "--limit",
        type=int,
        default=SPACE_LIMIT,
        help="refuse search spaces larger than this (default %(default)s)",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("generate", help="write the synthetic benchmark suite")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--profile", default=None, help="generate one profile instead of the suite"
    )
    p.add_argument("--name", default=None, help="task name for --profile")
    # None: not given, so a run without --profile can refuse them
    p.add_argument("--train-size", type=int, default=None)
    p.add_argument("--eval-size", type=int, default=None)
    p.add_argument(
        "--dataset-format",
        choices=("csv", "json"),
        default="csv",
        help="dataset file format (default csv)",
    )
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValidationError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ValidationError):
            return 2
        return 3 if isinstance(exc, PreconditionError) else 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
