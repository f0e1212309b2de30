"""Scheme persistence: exact round-trips and structural validation."""
import json

import pytest
from hypothesis import given, settings

from dcs import (
    AnnealConfig,
    CorrectionScheme,
    ObjectiveWeights,
    ValidationError,
    default_function_set,
    load_scheme,
    predict,
    save_scheme,
)
from dcs.corrections import load_catalog, save_catalog
from dcs.records import write_csv, write_json, write_rows
import numpy as np

from conftest import MUTATIONS, fresh_file, make_dataset, mutated


def make_scheme(ds, selection=(13, 25)) -> CorrectionScheme:
    return CorrectionScheme(
        catalog=default_function_set(),
        selection=selection,
        objective=ObjectiveWeights(beta=0.5, tau=1.0 / 3.0),
        anneal_config=AnnealConfig(seed=4),
        best_z=-1.2345678901234567,
        dataset_num_instances=ds.num_instances,
        dataset_num_classes=ds.num_classes,
        dataset_sha256=ds.fingerprint(),
    )


def test_round_trip_is_exact(tmp_path, four_row_dataset):
    scheme = make_scheme(four_row_dataset)
    path = tmp_path / "scheme.json"
    save_scheme(scheme, path)
    loaded = load_scheme(path)
    assert loaded == scheme
    # the awkward fractional floats survived exactly
    assert loaded.objective.tau == 1.0 / 3.0
    assert loaded.best_z == -1.2345678901234567


def _rows_then_disk_full():
    yield ["r0", 0.5]
    raise OSError("disk full")


def _batches_then_disk_full():
    yield ["['r0', 0.5]"]
    raise OSError("disk full")


# writer -> (first write, second write); json.dump fails halfway through the
# second JSON write, and the second CSV and row writes fail after one row or
# one batch of rows
WRITES = {
    "save_scheme": (
        lambda ds, path: save_scheme(make_scheme(ds), path),
        lambda ds, path: save_scheme(make_scheme(ds, (1, 1)), path),
    ),
    "write_json": (
        lambda ds, path: write_json(path, {"rows": list(range(100))}),
        lambda ds, path: write_json(path, {"rows": list(range(200))}),
    ),
    "write_csv": (
        lambda ds, path: write_csv(path, ["id", "p"], [["r0", 0.25]]),
        lambda ds, path: write_csv(path, ["id", "p"], _rows_then_disk_full()),
    ),
    "write_rows": (
        lambda ds, path: write_rows(path, "[", [["['r0', 0.25]"]], "]\n"),
        lambda ds, path: write_rows(path, "[", _batches_then_disk_full(), "]\n"),
    ),
}


@pytest.mark.parametrize("writer", sorted(WRITES))
def test_interrupted_save_keeps_earlier_file(
    tmp_path, four_row_dataset, monkeypatch, writer
):
    first, second = WRITES[writer]
    path = tmp_path / "out"
    first(four_row_dataset, path)
    before = path.read_bytes()

    def dump_half(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:100])
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_half)
    with pytest.raises(OSError, match="disk full"):
        second(four_row_dataset, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_round_trip_preserves_predictions(tmp_path, four_row_dataset):
    scheme = make_scheme(four_row_dataset)
    path = tmp_path / "scheme.json"
    save_scheme(scheme, path)
    loaded = load_scheme(path)
    a = predict(four_row_dataset, scheme.catalog, scheme.selection)
    b = predict(four_row_dataset, loaded.catalog, loaded.selection)
    assert np.array_equal(a, b)


def test_matches_dataset(four_row_dataset):
    scheme = make_scheme(four_row_dataset)
    assert scheme.matches_dataset(four_row_dataset)
    other = make_dataset(
        four_row_dataset.probabilities * 0.9, four_row_dataset.labels
    )
    assert not scheme.matches_dataset(other)


def test_selection_length_must_match_fingerprint(four_row_dataset):
    with pytest.raises(ValidationError):
        CorrectionScheme(
            catalog=default_function_set(),
            selection=(13, 25, 1),
            objective=ObjectiveWeights(),
            anneal_config=AnnealConfig(seed=0),
            best_z=0.0,
            dataset_num_instances=4,
            dataset_num_classes=2,
            dataset_sha256="x",
        )


def test_selection_indices_must_resolve(four_row_dataset):
    with pytest.raises(ValidationError):
        make_scheme(four_row_dataset, selection=(13, 50))


def test_unsupported_version_rejected(tmp_path, four_row_dataset):
    scheme = make_scheme(four_row_dataset)
    path = tmp_path / "scheme.json"
    save_scheme(scheme, path)
    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match="version"):
        load_scheme(path)


def test_top_level_num_classes_must_match_selection(tmp_path, four_row_dataset):
    path = tmp_path / "scheme.json"
    save_scheme(make_scheme(four_row_dataset), path)
    payload = json.loads(path.read_text())
    payload["num_classes"] = 7
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError) as exc:
        load_scheme(path)
    assert str(exc.value) == (
        f"{path}: invalid scheme: num_classes is 7 but the selection covers "
        "2 classes"
    )


def test_malformed_file_rejected(tmp_path):
    path = tmp_path / "scheme.json"
    path.write_text("{\"version\": 1}")
    with pytest.raises(ValidationError, match="malformed"):
        load_scheme(path)
    path.write_text("not json")
    with pytest.raises(ValidationError, match="JSON"):
        load_scheme(path)


LOADERS = {"catalog": load_catalog, "scheme": load_scheme}


@pytest.fixture(scope="module")
def saved_bytes(tmp_path_factory):
    """The bytes ``save_catalog`` and ``save_scheme`` write, by kind."""
    out = tmp_path_factory.mktemp("saved")
    save_catalog(default_function_set(), out / "catalog.json")
    ds = make_dataset([[0.9, 0.1], [0.3, 0.7]], [1, 2])
    save_scheme(make_scheme(ds), out / "scheme.json")
    return {kind: (out / f"{kind}.json").read_bytes() for kind in LOADERS}


class TestLoaderFuzz:
    """Any bytes end in a catalog or scheme or a ValidationError, never
    another exception; the error's message starts with the path and names
    it once."""

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    @settings(deadline=None, max_examples=150)
    @given(mutations=MUTATIONS)
    def test_mutated_file_loads_or_is_rejected(
        self, saved_bytes, fuzz_dir, kind, mutations
    ):
        path = fresh_file(fuzz_dir, "json")
        path.write_bytes(mutated(saved_bytes[kind], mutations))
        try:
            LOADERS[kind](path)
        except ValidationError as exc:
            message = str(exc)
            assert message.startswith(f"{path}: ")
            assert message.count(str(path)) == 1
