"""Spans around the public functions of each ``dcs`` layer, and the per-layer
metrics computed from them.

The wrappers are installed from outside the package by swapping module and
class attributes for the duration of one traced op, then restored. A span is
``(name, start, end, parent, op_id)``; ``parent`` is the index of the span
that was open when this one started (-1 for an op's root span). Spans stay in
memory and are written out once, when the run ends.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import time
from pathlib import Path

import numpy as np

import dcs.annealing
import dcs.cli
import dcs.objective
from dcs.corrections import FunctionSet
from dcs.data import LabeledDataset
from dcs.objective import ObjectiveEvaluator

# (owner, attribute, span name); a span name is "<layer>.<function>". The cli
# entries patch the names cli.py imported, so only calls made by the CLI
# orchestration are wrapped there.
TARGETS = (
    (dcs.cli, "load_dataset", "data.load_dataset"),
    (dcs.cli, "save_dataset", "data.save_dataset"),
    (dcs.cli, "split_dataset", "data.split_dataset"),
    (dcs.cli, "save_predictions", "data.save_predictions"),
    (dcs.cli, "anneal", "annealing.anneal"),
    (dcs.cli, "evaluate", "objective.evaluate"),
    (dcs.cli, "predict", "objective.predict"),
    (dcs.cli, "save_scheme", "scheme.save_scheme"),
    (dcs.cli, "load_scheme", "scheme.load_scheme"),
    (dcs.annealing, "neighbor", "annealing.neighbor"),
    (dcs.annealing, "accept", "annealing.accept"),
    (dcs.objective, "score_predictions", "objective.score_predictions"),
    (ObjectiveEvaluator, "__init__", "objective.build"),
    (ObjectiveEvaluator, "predictions", "objective.predictions"),
    (FunctionSet, "apply_index", "corrections.apply_index"),
    (LabeledDataset, "fingerprint", "data.fingerprint"),
)

# name -> unit. Metrics of a layer that a workload never calls read 0.
LAYER_METRICS = {
    "annealing.anneal_s": "s",
    "annealing.self_us_per_eval": "us",
    "annealing.neighbor_us_p50": "us",
    "annealing.neighbor_us_p99": "us",
    "annealing.accept_us_p50": "us",
    "annealing.evaluations": "count",
    "annealing.acceptance_ratio": "ratio",
    "annealing.outer_loops": "count",
    "annealing.cap_bound_loops": "count",
    "objective.build_ms": "ms",
    "objective.predictions_us_p50": "us",
    "objective.predictions_us_p99": "us",
    "objective.score_us_p50": "us",
    "objective.score_us_p99": "us",
    "objective.predict_ms": "ms",
    "objective.evaluate_ms": "ms",
    "objective.gathered_bytes_per_eval": "bytes",
    "corrections.apply_index_calls": "count",
    "corrections.apply_index_us_p50": "us",
    "data.load_csv_rows_per_s": "rows/s",
    "data.load_json_rows_per_s": "rows/s",
    "data.save_dataset_ms": "ms",
    "data.save_predictions_rows_per_s": "rows/s",
    "data.split_ms": "ms",
    "data.fingerprint_ms": "ms",
    "scheme.save_ms": "ms",
    "scheme.load_ms": "ms",
    "cli.optimize_self_ms": "ms",
    "cli.apply_self_ms": "ms",
    "synth.generate_s": "s",
    "trace.overhead_ratio": "ratio",
}

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        # Finished spans are tuples of atomic values, which the garbage
        # collector stops tracking, so a long trace does not slow every
        # collection the traced program triggers.
        self.spans: list[tuple] = []
        self._open: list[int] = []
        self.op_id: str | None = None

    def _begin(self) -> tuple[int, float]:
        index = len(self.spans)
        self.spans.append(None)  # placeholder until the span ends
        self._open.append(index)
        return index, time.perf_counter()

    def _end(self, name: str, index: int, start: float) -> None:
        end = time.perf_counter()
        self._open.pop()
        parent = self._open[-1] if self._open else -1
        self.spans[index] = (name, start, end, parent, self.op_id)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, start = self._begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(name, index, start)

        return traced

    @contextlib.contextmanager
    def op(self, name: str, op_id: str):
        """Root span of one op, with every layer wrapper installed."""
        saved = []
        for owner, attr, span_name in TARGETS:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(span_name, original))
        self.op_id = op_id
        index, start = self._begin()
        try:
            yield
        finally:
            self._end(name, index, start)
            self.op_id = None
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """One CSV row per span; ``parent`` indexes spans of the same pass."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pass", "index", "name", "start", "end", "parent", "op_id"])
        for n, tracer in enumerate(tracers):
            for i, (name, start, end, parent, op_id) in enumerate(tracer.spans):
                writer.writerow([n, i, name, repr(start), repr(end), parent, op_id])


def nesting_problems(spans: list[tuple]) -> list[str]:
    """Children must lie inside their parent and siblings must not overlap,
    so that a parent's children plus its self time account for its span."""
    problems = []
    last_end: dict[int, float] = {}
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p < 0:
            continue
        parent = spans[p]
        if s[START] < parent[START] or s[END] > parent[END]:
            problems.append(f"span {i} {s[NAME]} outside parent {p}")
        if s[START] < last_end.get(p, -np.inf):
            problems.append(f"span {i} {s[NAME]} overlaps a sibling")
        last_end[p] = s[END]
    return problems


def child_times(spans: list[tuple]) -> list[float]:
    """Per span, the summed duration of its direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return covered


def anneal_accounting(spans: list[tuple]) -> list[dict]:
    """Per anneal span: its duration, its children's, and its self time."""
    covered = child_times(spans)
    return [
        {
            "op_id": s[OP],
            "span_s": s[END] - s[START],
            "children_s": covered[i],
            "self_s": s[END] - s[START] - covered[i],
        }
        for i, s in enumerate(spans)
        if s[NAME] == "annealing.anneal"
    ]


def _pct(values, q: float, scale: float) -> float:
    return float(np.percentile(values, q)) * scale if values else 0.0


def layer_metrics(spans, ops_by_id, records, generate_s, overhead_ratio):
    """Per-layer metrics of one pass.

    ``spans`` are the pass's spans with parent indices into the same list,
    ``records`` maps op_id to the counters the output gate read from that
    op's files.
    """
    child_time = child_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def durations(name):
        return [spans[i][END] - spans[i][START] for i in by_name.get(name, [])]

    def self_times(name):
        return [
            spans[i][END] - spans[i][START] - child_time[i]
            for i in by_name.get(name, [])
        ]

    def median(values, scale):
        return float(np.median(values)) * scale if values else 0.0

    def rows_per_s(name, fmt=None):
        rows = seconds = 0.0
        for i in by_name.get(name, []):
            op = ops_by_id[spans[i][OP]]
            if fmt is None or op.input_format == fmt:
                rows += op.rows
                seconds += spans[i][END] - spans[i][START]
        return rows / seconds if seconds else 0.0

    fits = [r for r in records.values() if "evaluations" in r]
    evaluations = sum(r["evaluations"] for r in fits)
    accepted = sum(r["accepted"] for r in fits)
    gathered = sum(r["evaluations"] * r["m"] * r["n"] * 8 for r in fits)
    anneal_self = sum(self_times("annealing.anneal"))

    return {
        "annealing.anneal_s": sum(durations("annealing.anneal")),
        "annealing.self_us_per_eval": (
            anneal_self / evaluations * 1e6 if evaluations else 0.0
        ),
        "annealing.neighbor_us_p50": _pct(durations("annealing.neighbor"), 50, 1e6),
        "annealing.neighbor_us_p99": _pct(durations("annealing.neighbor"), 99, 1e6),
        "annealing.accept_us_p50": _pct(durations("annealing.accept"), 50, 1e6),
        "annealing.evaluations": evaluations,
        "annealing.acceptance_ratio": (
            accepted / evaluations if evaluations else 0.0
        ),
        "annealing.outer_loops": sum(r["outer_loops"] for r in fits),
        "annealing.cap_bound_loops": sum(r["cap_bound_loops"] for r in fits),
        "objective.build_ms": median(durations("objective.build"), 1e3),
        "objective.predictions_us_p50": _pct(
            durations("objective.predictions"), 50, 1e6
        ),
        "objective.predictions_us_p99": _pct(
            durations("objective.predictions"), 99, 1e6
        ),
        "objective.score_us_p50": _pct(
            durations("objective.score_predictions"), 50, 1e6
        ),
        "objective.score_us_p99": _pct(
            durations("objective.score_predictions"), 99, 1e6
        ),
        "objective.predict_ms": median(durations("objective.predict"), 1e3),
        "objective.evaluate_ms": median(durations("objective.evaluate"), 1e3),
        "objective.gathered_bytes_per_eval": (
            gathered / evaluations if evaluations else 0.0
        ),
        "corrections.apply_index_calls": len(
            by_name.get("corrections.apply_index", [])
        ),
        "corrections.apply_index_us_p50": _pct(
            durations("corrections.apply_index"), 50, 1e6
        ),
        "data.load_csv_rows_per_s": rows_per_s("data.load_dataset", "csv"),
        "data.load_json_rows_per_s": rows_per_s("data.load_dataset", "json"),
        "data.save_dataset_ms": median(durations("data.save_dataset"), 1e3),
        "data.save_predictions_rows_per_s": rows_per_s("data.save_predictions"),
        "data.split_ms": median(durations("data.split_dataset"), 1e3),
        "data.fingerprint_ms": median(durations("data.fingerprint"), 1e3),
        "scheme.save_ms": median(durations("scheme.save_scheme"), 1e3),
        "scheme.load_ms": median(durations("scheme.load_scheme"), 1e3),
        "cli.optimize_self_ms": median(self_times("cli.optimize"), 1e3),
        "cli.apply_self_ms": median(self_times("cli.apply"), 1e3),
        "synth.generate_s": generate_s,
        "trace.overhead_ratio": overhead_ratio,
    }
