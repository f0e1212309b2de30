"""The one-writer rule and the one field rule of ``dcs.records``.

Only ``dcs.records`` writes files: every other module in ``src/dcs`` goes
through ``records.write_json``, ``records.write_json_rows`` and
``records.write_csv``, which replace their targets atomically. The scan
below reads each module's syntax tree and fails on any call that opens a
file for writing (or with a mode it cannot read), writes through
``write_text``/``write_bytes``, or calls ``json.dump`` or ``os.replace``.

The records that take input built in Python check their fields by the rule
``from_dict`` applies to a file, so what such a record holds saves and
loads back as it is, and a value of the wrong type is named by its field.
"""
import ast
import importlib
import json
import pkgutil
import re
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dcs
from dcs import (
    AnnealConfig,
    CorrectionScheme,
    FunctionSet,
    ObjectiveWeights,
    TriangularMembership,
    ValidationError,
    load_scheme,
    save_scheme,
)
from dcs.corrections import load_catalog, save_catalog
from dcs.records import (
    _JSON_SLICE,
    Record,
    _type_hints,
    write_csv,
    write_json,
    write_json_rows,
)
from dcs.synth import BiasProfile, load_profile, save_profile

from conftest import fresh_file

SRC = Path(__file__).resolve().parents[1] / "src" / "dcs"


def _writes(source: str) -> list[str]:
    """The file-writing calls in ``source``, as ``line N: <callee>``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):  # path.open(mode), json.dump
            name, owner, mode_at = func.attr, getattr(func.value, "id", None), 0
        elif isinstance(func, ast.Name):  # open(file, mode)
            name, owner, mode_at = func.id, None, 1
        else:
            continue
        modes = node.args[mode_at:mode_at + 1]
        modes += [kw.value for kw in node.keywords if kw.arg == "mode"]
        opens_for_writing = name == "open" and any(
            not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
            for m in modes
        )
        if (
            opens_for_writing
            or name in ("write_text", "write_bytes")
            or (owner, name) in (("json", "dump"), ("os", "replace"))
        ):
            found.append(f"line {node.lineno}: {ast.unparse(func)}")
    return found


def test_only_records_writes_files():
    offenders = {
        path.name: writes
        for path in sorted(SRC.glob("*.py"))
        if path.name != "records.py"
        and (writes := _writes(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_scan_finds_each_kind_of_write():
    sample = "\n".join(
        [
            "open(p, 'a')",
            "open(p, mode=m)",
            "p.open('w', newline='')",
            "p.write_bytes(b'')",
            "json.dump(x, fh)",
            "os.replace(a, b)",
            # reads, which the scan must leave alone
            "open(p)",
            "open('x.json', 'r')",
            "p.open(newline='', encoding='utf-8')",
            "json.load(fh)",
        ]
    )
    assert [w.split(":")[0] for w in _writes(sample)] == [
        f"line {n}" for n in range(1, 7)
    ]
    assert len(_writes((SRC / "records.py").read_text(encoding="utf-8"))) == 3


def test_symlink_at_target_is_replaced_not_followed(tmp_path):
    elsewhere = tmp_path / "elsewhere.txt"
    elsewhere.write_text("keep\n")
    for name, write in (
        ("out.json", lambda path: write_json(path, {"z": 0.5})),
        ("out.csv", lambda path: write_csv(path, ["z"], [[0.5]])),
    ):
        link = tmp_path / name
        link.symlink_to(elsewhere)
        write(link)
        assert not link.is_symlink()
        assert elsewhere.read_text() == "keep\n"
    assert (tmp_path / "out.json").read_text() == '{\n  "z": 0.5\n}\n'
    assert (tmp_path / "out.csv").read_bytes() == b"z\r\n0.5\r\n"


@pytest.mark.parametrize(
    "count", [0, 1, _JSON_SLICE - 1, _JSON_SLICE, _JSON_SLICE + 1,
              2 * _JSON_SLICE + 1]
)
def test_json_rows_bytes_equal_one_dump(tmp_path, count):
    # rows are encoded a slice at a time; the joins between slices must
    # leave the bytes of one json.dump of the whole list
    rows = [
        {"id": f"r{i}", "label": i % 3 + 1, "probs": [i / 7, -0.0, 1e-300]}
        for i in range(count)
    ]
    path = tmp_path / "rows.json"
    write_json_rows(path, iter(rows))
    expected = tmp_path / "expected.json"
    with expected.open("w", encoding="utf-8") as fh:
        json.dump(list(rows), fh, indent=None)
        fh.write("\n")
    assert path.read_bytes() == expected.read_bytes()


# the records that put their fields through ``from_dict``'s rule, each with
# valid arguments
CHECKED = {
    TriangularMembership: dict(a=0.0, b=1.0, c=1.0),
    FunctionSet: dict(
        memberships=(TriangularMembership(0.0, 1.0, 1.0),), num_weights=2
    ),
    ObjectiveWeights: {},
    AnnealConfig: dict(seed=0),
    BiasProfile: dict(
        num_classes=2,
        class_priors=(0.5, 0.5),
        target_accuracy=(0.9, 0.5),
        confusion_temperature=1.0,
        seed=0,
    ),
    CorrectionScheme: dict(
        catalog=FunctionSet((TriangularMembership(0.0, 1.0, 1.0),), 2),
        selection=(1, 3),
        objective=ObjectiveWeights(),
        anneal_config=AnnealConfig(seed=0),
        best_z=0.5,
        dataset_num_instances=4,
        dataset_num_classes=2,
        dataset_sha256="0" * 64,
    ),
}
# the output records the package fills itself, and the file layouts built
# only through ``from_dict``
UNCHECKED = {
    "dcs.annealing.SolveResult",
    "dcs.objective.EvalReport",
    "dcs.oracle.OracleResult",
    "dcs.scheme._SchemeFile",
    "dcs.scheme._Fingerprint",
    "dcs.cli._SolveRow",
}

# values of the wrong type for a field of each type: a bool is no number, a
# number no bool, and a numeric string neither
WRONG = {
    int: (1.5, 2.0, True, "1", None, np.float64(2.0), np.bool_(True)),
    float: ("1", "0.5", True, None, np.bool_(False), 1j),
    bool: (0, 1, "true", None, np.bool_(True)),
    str: (b"ab", 1, None),
}


def _wrong_values(tp) -> tuple:
    if typing.get_origin(tp) is tuple:
        item = typing.get_args(tp)[0]
        return ("ab", None, 0.5, *((v,) for v in _wrong_values(item)))
    if issubclass(tp, Record):
        return (0.5, "a", {})
    return WRONG[tp]


def _qualified(cls) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize(
    "cls, name, value",
    [
        pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
        for cls in CHECKED
        for name, tp in _type_hints(cls).items()
        # a scheme's selection is checked by the index rule, whose messages
        # TestSelectionEntries in tests/test_objective.py pins
        if (cls, name) != (CorrectionScheme, "selection")
        for value in _wrong_values(tp)
    ],
)
def test_mistyped_field_is_named(cls, name, value):
    # each went through unchecked, was converted, ended in a bare
    # TypeError, or raised a message that did not name the field; a nested
    # record's own field may be the one named, as in 'objective.beta'
    with pytest.raises(ValidationError, match=re.escape(f"field '{name}") + "['[.]"):
        cls(**{**CHECKED[cls], name: value})


def test_every_record_is_checked_or_named():
    for module in pkgutil.iter_modules(dcs.__path__):
        importlib.import_module(f"dcs.{module.name}")
    records = {
        _qualified(cls)
        for cls in _subclasses(Record)
        if cls.__module__.startswith("dcs.")
    }
    assert records == {_qualified(cls) for cls in CHECKED} | UNCHECKED


# float32 holds these exactly, so every number type below holds the value
UNIT = st.floats(0.0, 1.0, width=32)


def _any_type(draw, x):
    """``x`` as one of the number types that hold it exactly: Python or
    numpy, and an integral float as an int too."""
    if isinstance(x, int):
        return draw(st.sampled_from([x, np.int64(x), np.uint32(x)]))
    forms = [x, np.float64(x), np.float32(x)]
    if x.is_integer():
        forms += [int(x), np.int64(x)]
    return draw(st.sampled_from(forms))


@st.composite
def memberships(draw):
    vertices = draw(
        st.lists(UNIT, min_size=3, max_size=3).filter(lambda v: len(set(v)) > 1)
    )
    return TriangularMembership(*(_any_type(draw, v) for v in sorted(vertices)))


@st.composite
def catalogs(draw):
    others = draw(st.lists(memberships(), max_size=3))
    at = draw(st.integers(0, len(others)))
    listed = [*others[:at], TriangularMembership(0.0, 1.0, 1.0), *others[at:]]
    return FunctionSet(
        draw(st.sampled_from([tuple, list]))(listed),
        _any_type(draw, draw(st.integers(1, 40))),
    )


@st.composite
def objective_weights(draw):
    flags = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()).filter(any))
    beta, tau = (
        _any_type(draw, draw(st.floats(0.0, 2.0**20, width=32))) for _ in range(2)
    )
    return ObjectiveWeights(beta, tau, *flags)


@st.composite
def anneal_configs(draw):
    t0 = draw(st.floats(2.0**-10, 2.0**20, width=32))
    rate = draw(st.floats(0.0, 1.0, width=32, exclude_min=True, exclude_max=True))
    lambda1 = draw(st.floats(2.0**-10, 2.0**7, width=32))
    lambda2 = draw(st.floats(lambda1, 2.0**10, width=32))
    t_min = draw(st.floats(2.0**-20, t0, width=32, exclude_max=True))
    seed = draw(st.integers(0, 2**32 - 1))
    loops = draw(st.integers(1, 500))
    return AnnealConfig(
        *(_any_type(draw, v) for v in (seed, t0, rate, lambda1, lambda2, t_min, loops))
    )


@st.composite
def profiles(draw):
    n = draw(st.integers(2, 5))
    shares = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    # a prior is no float32, whose rounding would move the sum off 1
    priors = [s / sum(shares) for s in shares]
    priors = [draw(st.sampled_from([p, np.float64(p)])) for p in priors]
    targets = [_any_type(draw, t) for t in draw(st.lists(UNIT, min_size=n, max_size=n))]
    return BiasProfile(
        _any_type(draw, n),
        draw(st.sampled_from([tuple, list]))(priors),
        tuple(targets),
        _any_type(draw, draw(st.floats(2.0**-10, 2.0**10, width=32))),
        _any_type(draw, draw(st.integers(0, 2**32 - 1))),
    )


@st.composite
def schemes(draw):
    catalog = draw(catalogs())
    n = draw(st.integers(1, 4))
    selection = draw(st.lists(st.integers(1, catalog.size), min_size=n, max_size=n))
    return CorrectionScheme(
        catalog=catalog,
        selection=tuple(_any_type(draw, k) for k in selection),
        objective=draw(objective_weights()),
        anneal_config=draw(anneal_configs()),
        best_z=_any_type(draw, draw(st.floats(-10.0, 10.0, width=32))),
        dataset_num_instances=_any_type(draw, draw(st.integers(n, 10**6))),
        dataset_num_classes=_any_type(draw, n),
        dataset_sha256="0" * 64,
    )


@settings(deadline=None, max_examples=200)
@given(
    record=st.one_of(
        memberships(),
        catalogs(),
        objective_weights(),
        anneal_configs(),
        profiles(),
        schemes(),
    )
)
def test_record_round_trips_through_its_dict(record):
    # a numpy scalar stayed in the record, which json.dumps refused
    payload = json.loads(json.dumps(record.to_dict()))
    assert type(record).from_dict(payload) == record


FILES = {
    "catalog": (catalogs(), save_catalog, load_catalog),
    "profile": (profiles(), save_profile, load_profile),
    "scheme": (schemes(), save_scheme, load_scheme),
}


@pytest.mark.parametrize("kind", sorted(FILES))
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_saved_file_loads_back(fuzz_dir, kind, data):
    records, save, load = FILES[kind]
    record = data.draw(records)
    path = fresh_file(fuzz_dir, "json")
    save(record, path)
    assert load(path) == record
