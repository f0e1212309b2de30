"""The names the benchmark harness under ``bench/`` looks up in ``dcs``.

``bench/spans.py`` wraps its targets by swapping ``vars(owner)[attr]``, and
``bench/workloads.py`` and ``bench/gate.py`` import the search modes from
``dcs.cli``. Every name that ``bench/*.py`` and ``scripts/*.py`` import from
a ``dcs`` module must resolve too. A rename or a cut of the package's
surface in ``src/`` would otherwise fail only in ``bench/test_bench.py``,
which this suite does not collect.
"""
import ast
import importlib.util
from pathlib import Path

import pytest

import dcs.cli

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


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


def _dcs_imports(paths):
    """Sorted (file, module, name) for every name the files import from a
    ``dcs`` module; name is empty for a plain ``import dcs.x``."""
    found = set()
    for path in paths:
        where = str(path.relative_to(ROOT))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(
                    (where, alias.name, "") for alias in node.names
                    if alias.name.split(".")[0] == "dcs"
                )
            elif (
                isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "dcs"
            ):
                found.update((where, node.module, a.name) for a in node.names)
    return sorted(found)


IMPORTS = _dcs_imports(
    sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("scripts/*.py"))
)


def test_bench_and_scripts_import_from_dcs():
    # the parse must see the harness's imports, or the check below is empty
    assert ("bench/gate.py", "dcs.cli", "mode_indices") in IMPORTS


@pytest.mark.parametrize(
    "where, module, name", IMPORTS,
    ids=[f"{w}:{m}" + (f".{n}" if n else "") for w, m, n in IMPORTS],
)
def test_bench_import_resolves(where, module, name):
    owner = importlib.import_module(module)
    if name:
        assert hasattr(owner, name), f"{where}: {module} has no {name!r}"


def test_cli_keeps_the_mode_names_bench_imports():
    assert dcs.cli.MODES == ("dcs", "dnip", "furud")
    assert callable(dcs.cli.mode_indices)
