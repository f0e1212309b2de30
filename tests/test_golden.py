"""Golden seeded traces: the annealer and the evaluation report, bit for bit.

For every suite task p1..p5, every search mode and seeds 0-2, a short
schedule is annealed on the train set and its ``best_xi``, ``best_z``,
``z_trace`` and ``acceptance_counts`` are compared exactly against
``golden_traces.json``. The selected scheme is then evaluated on the held-out
set under the full, err and err+pmi objectives and each ``z_value`` is
compared exactly, along with the whole full-objective report.

Those short schedules run at T~2e5 and accept nearly every proposal. The
``cold`` cases (p1 and p5, full catalog, seeds 0-1) anneal at T in
[0.05, 0.1] instead: most proposals are rejected, and each run draws
thousands of proposals, so they pin the rejection path and long RNG streams.
The ``w6`` and ``w8`` tasks (N = 6 and N = 8, wider than any suite task) run
the same cold schedule, so the walk's top-class reduction is pinned at class
counts that are not powers of two, as on the benchmark's wide fit. The
``w17`` task (N = 17) has 136 pairs of present classes, so the imbalance
term's pairwise sum takes numpy's recursive branch (more than 128 terms).
In the ``a5`` task class 3 has prior 0, so it never appears in the labels
and the scorer must leave it out of the imbalance and PMI terms.

Floats are compared through ``repr``, so a change in the last bit fails.
Re-record (only when a behaviour change is intended) with

    PYTHONPATH=src python tests/test_golden.py --record
"""
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from dcs import AnnealConfig, ObjectiveWeights, anneal, evaluate
from dcs.cli import MODES, mode_indices
from dcs.corrections import default_function_set
from dcs.synth import BiasProfile, SuiteTask, benchmark_suite

GOLDEN_PATH = Path(__file__).with_name("golden_traces.json")
SEEDS = (0, 1, 2)
MAX_OUTER_LOOPS = 10
OBJECTIVES = ("full", "err", "err+pmi")
# schedule overrides per case variant; "" is the short hot schedule
SCHEDULES = {
    "": {"max_outer_loops": MAX_OUTER_LOOPS},
    "cold": {"initial_temperature": 0.1, "min_temperature": 0.05},
}
# cold-start fits beyond the suite's shapes, with fixed skewed priors and targets
EXTRA_TASKS = (
    SuiteTask(
        name="w6",
        profile=BiasProfile(
            num_classes=6,
            class_priors=(0.22, 0.2, 0.18, 0.16, 0.14, 0.1),
            target_accuracy=(0.9, 0.45, 0.75, 0.6, 0.35, 0.85),
            confusion_temperature=1.1,
            seed=61,
        ),
        train_size=1500,
        eval_size=1500,
    ),
    SuiteTask(
        name="w8",
        profile=BiasProfile(
            num_classes=8,
            class_priors=(0.16, 0.15, 0.14, 0.13, 0.12, 0.11, 0.1, 0.09),
            target_accuracy=(0.9, 0.4, 0.8, 0.55, 0.7, 0.35, 0.95, 0.6),
            confusion_temperature=0.9,
            seed=81,
        ),
        train_size=1500,
        eval_size=1500,
    ),
    SuiteTask(
        name="w17",
        profile=BiasProfile(
            num_classes=17,
            class_priors=tuple((21 - i) / 221 for i in range(17)),
            target_accuracy=tuple(
                0.3 + 0.65 * (7 * i % 17) / 16 for i in range(17)
            ),
            confusion_temperature=1.0,
            seed=171,
        ),
        train_size=1500,
        eval_size=1500,
    ),
    SuiteTask(
        name="a5",
        profile=BiasProfile(
            num_classes=5,
            class_priors=(0.3, 0.25, 0.0, 0.25, 0.2),
            target_accuracy=(0.9, 0.5, 0.8, 0.4, 0.85),
            confusion_temperature=1.2,
            seed=51,
        ),
        train_size=1500,
        eval_size=1500,
    ),
)


@lru_cache(maxsize=None)
def _task_data(name: str):
    task = next(t for t in benchmark_suite() + EXTRA_TASKS if t.name == name)
    return task.train_dataset(), task.eval_dataset()


def _floats(values) -> list[str]:
    return [repr(float(v)) for v in values]


def run_case(name: str, mode: str, seed: int, schedule: str = "") -> dict:
    """Everything the golden file pins for one (task, mode, seed, schedule)."""
    train, held_out = _task_data(name)
    fs = default_function_set()
    result = anneal(
        train,
        fs,
        ObjectiveWeights(),
        AnnealConfig(seed=seed, **SCHEDULES[schedule]),
        allowed_indices=mode_indices(fs, mode),
    )
    reports = {
        objective: evaluate(
            held_out, fs, result.best_xi, ObjectiveWeights.from_mode(objective)
        )
        for objective in OBJECTIVES
    }
    return {
        "best_xi": list(result.best_xi),
        "best_z": repr(result.best_z),
        "z_trace": _floats(result.z_trace),
        "acceptance_counts": [list(pair) for pair in result.acceptance_counts],
        "eval_z_value": {
            objective: repr(report.z_value) for objective, report in reports.items()
        },
        "eval_report_full": _repr_floats(reports["full"].to_dict()),
    }


def _repr_floats(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {k: _repr_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_repr_floats(v) for v in value]
    return value


CASES = [
    (task.name, mode, seed, "")
    for task in benchmark_suite()
    for mode in MODES
    for seed in SEEDS
] + [
    (name, "dcs", seed, "cold")
    for name in ("p1", "p5", "w6", "w8")
    for seed in (0, 1)
] + [(name, "dcs", 0, "cold") for name in ("w17", "a5")]


def _case_id(name: str, mode: str, seed: int, schedule: str) -> str:
    return "-".join([name, mode, str(seed)] + ([schedule] if schedule else []))


@lru_cache(maxsize=None)
def _goldens() -> dict:
    with GOLDEN_PATH.open(encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "name,mode,seed,schedule", CASES, ids=[_case_id(*c) for c in CASES]
)
def test_golden_trace(name, mode, seed, schedule):
    expected = _goldens()[_case_id(name, mode, seed, schedule)]
    got = run_case(name, mode, seed, schedule)
    for key in expected:
        assert got[key] == expected[key], key


def _record() -> None:
    # one case per line keeps re-recordings diffable
    lines = [
        f"{json.dumps(_case_id(*case))}: {json.dumps(run_case(*case), sort_keys=True)}"
        for case in CASES
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"recorded {len(lines)} cases -> {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden.py --record")
    _record()
