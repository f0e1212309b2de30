"""The names the benchmark harness under ``bench/`` looks up in ``dcs``.

``bench/spans.py`` wraps its targets by swapping ``vars(owner)[attr]``, and
``bench/workloads.py`` and ``bench/gate.py`` import the search modes from
``dcs.cli``. A rename in ``src/`` would otherwise fail only in
``bench/test_bench.py``, which this suite does not collect.
"""
import importlib.util
from pathlib import Path

import pytest

import dcs.cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_spans().TARGETS


@pytest.mark.parametrize(
    "owner, attr, span", TARGETS, ids=[span for *_, span in TARGETS]
)
def test_span_target_is_owned_where_traced(owner, attr, span):
    assert attr in vars(owner), f"{span}: {owner!r} has no own {attr!r}"


def test_cli_keeps_the_mode_names_bench_imports():
    assert dcs.cli.MODES == ("dcs", "dnip", "furud")
    assert callable(dcs.cli.mode_indices)
