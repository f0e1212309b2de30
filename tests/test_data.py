"""Dataset ingestion, validation, serialization, and splitting."""
import contextlib
import csv
import gc
import io
import json
import math
import struct
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dcs import (
    FunctionSet,
    LabeledDataset,
    TriangularMembership,
    ValidationError,
    apply_selection,
    default_function_set,
    eval_membership,
    load_dataset,
    save_dataset,
)
import dcs.data
import dcs.records
from dcs.corrections import validate_selection
from dcs.data import _ROW_BATCH, save_predictions, split_dataset
from dcs.objective import per_class_accuracy
from dcs.synth import benchmark_suite, generate
from dcs.cli import main
from conftest import MUTATIONS, fresh_file, make_dataset, mutated


class TestValidation:
    def test_happy_path(self, four_row_dataset):
        assert four_row_dataset.num_instances == 4
        assert four_row_dataset.num_classes == 2

    def test_rejects_probability_above_one(self):
        with pytest.raises(ValidationError, match="row 2, class 1"):
            make_dataset([[0.5, 0.5], [1.2, 0.3]], [1, 2])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="non-finite"):
            make_dataset([[0.5, float("nan")], [0.2, 0.3]], [1, 2])

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValidationError, match="label"):
            make_dataset([[0.5, 0.5], [0.2, 0.3]], [1, 3])
        with pytest.raises(ValidationError, match="label"):
            make_dataset([[0.5, 0.5], [0.2, 0.3]], [0, 2])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError, match="duplicate"):
            make_dataset([[0.5, 0.5], [0.2, 0.3]], [1, 2], ids=("a", "a"))

    @pytest.mark.parametrize(
        "ids, message",
        [
            (("a", ""), "empty instance id at row 2"),
            (("", "a", "a"), "empty instance id at row 1"),
            (("a", "a", ""), "duplicate instance id 'a' at rows 1 and 2"),
            # an int id would break ``fingerprint`` and come back from JSON
            # as a string, with another fingerprint
            ((7, 8), "instance id at row 1 is not a string: 7"),
            (("a", b"b"), "instance id at row 2 is not a string: b'b'"),
            (("a", ["b"]), "instance id at row 2 is not a string: ['b']"),
            # a lone surrogate, which UTF-8 cannot encode: fingerprint and
            # every file save raised UnicodeEncodeError
            (("a", "b\ud800"),
             "instance id at row 2 is not UTF-8 text: 'b\\ud800'"),
            (("\udfff", "a", "a"),
             "instance id at row 1 is not UTF-8 text: '\\udfff'"),
        ],
    )
    def test_first_bad_id_is_named(self, ids, message):
        with pytest.raises(ValidationError) as info:
            make_dataset(np.full((len(ids), 2), 0.5), [1] * len(ids), ids=ids)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "probs, ids, message",
        [
            (np.full(2, 0.5), ("a", "b"), "probabilities must be a 2-d matrix"),
            ([[0.5, 0.5], [0.2]], ("a", "b"), "probabilities must be a 2-d matrix"),
            (np.full((2, 2), 0.5), ("a",), "expected 2 instance ids, got 1"),
        ],
    )
    def test_shapes_must_agree(self, probs, ids, message):
        with pytest.raises(ValidationError) as info:
            LabeledDataset(probs, [1, 2], ids)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "labels, dtype",
        [(np.array([1.7, 2.2]), "float64"), (np.array([True, False]), "bool")],
    )
    def test_rejects_non_integer_labels(self, labels, dtype):
        # no silent truncation of 1.7 to 1, nor of True to 1
        with pytest.raises(ValidationError) as info:
            LabeledDataset(np.full((2, 2), 0.5), labels, ("a", "b"))
        assert str(info.value) == f"labels must be integers, got dtype {dtype}"

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([1, None], "labels must be integers, got None at row 2"),
            # not truncated to [1, 2]
            (
                np.array([1.7, 2], dtype=object),
                "labels must be integers, got 1.7 at row 1",
            ),
            ([1.0, 2], "labels must be integers, got 1.0 at row 1"),
            # numpy would read [True, 2] as [1, 2]
            ([True, 2], "labels must be integers, got True at row 1"),
            # not wrapped to -9223372036854775808
            (
                np.array([1, 2**63], dtype=np.uint64),
                "label out of range 1..2 at row 2: 9223372036854775808",
            ),
            (
                [1, -(2**64)],
                "label out of range 1..2 at row 2: -18446744073709551616",
            ),
            ([1, 2, 1], "expected 2 labels, got (3,)"),
        ],
    )
    def test_label_entries_are_checked_exactly(self, labels, message):
        with pytest.raises(ValidationError) as info:
            LabeledDataset(np.full((2, 2), 0.5), labels, ("a", "b"))
        assert str(info.value) == message

    def test_labels_are_a_private_int64_copy(self):
        labels = np.array([1, 2], dtype=np.uint8)
        ds = LabeledDataset(np.full((2, 2), 0.5), labels, ("a", "b"))
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 2]
        labels[0] = 2
        assert ds.labels.tolist() == [1, 2] and labels.flags.writeable

    def test_rejects_single_class_shape(self):
        with pytest.raises(ValidationError):
            make_dataset([[1.0], [1.0]], [1, 1])

    def test_probabilities_are_read_only(self, four_row_dataset):
        with pytest.raises(ValueError):
            four_row_dataset.probabilities[0, 0] = 0.5

    def test_rows_need_not_sum_to_one(self):
        # model outputs may be unnormalized scores in [0, 1]
        ds = make_dataset([[0.9, 0.9], [0.1, 0.2]], [1, 2])
        assert ds.num_instances == 2


class TestSubset:
    def test_subset_preserves_rows(self, four_row_dataset):
        sub = four_row_dataset.subset([0, 2])
        assert sub.num_instances == 2
        assert sub.instance_ids == ("r0", "r2")
        assert np.array_equal(
            sub.probabilities, four_row_dataset.probabilities[[0, 2]]
        )

    def test_subset_rejects_empty(self, four_row_dataset):
        with pytest.raises(ValidationError):
            four_row_dataset.subset([])

    @pytest.mark.parametrize(
        "indices, message",
        [
            # each was truncated, wrapped or read as 1 and 0, or raised
            # numpy's TypeError
            ([1.9], "rows must be integers, got 1.9 at entry 1"),
            ([-1], "row out of range 0..3 at entry 1: -1"),
            ([True, False, True], "rows must be integers, got True at entry 1"),
            ([[0, 1]], "rows must be a 1-d vector, got (1, 2)"),
            (np.array([True, False, True, False]),
             "rows must be integers, got dtype bool"),
            (np.array([0, 4]), "row out of range 0..3 at entry 2: 4"),
        ],
    )
    def test_subset_takes_the_index_rule(self, four_row_dataset, indices, message):
        with pytest.raises(ValidationError) as info:
            four_row_dataset.subset(indices)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "indices",
        [[np.int64(3), 0], np.array([3, 0], dtype=np.uint8), (3, 0)],
    )
    def test_subset_takes_python_and_numpy_ints(self, four_row_dataset, indices):
        sub = four_row_dataset.subset(indices)
        assert sub.instance_ids == ("r3", "r0")
        assert sub.labels.tolist() == four_row_dataset.labels[[3, 0]].tolist()


class TestFingerprint:
    def test_stable_across_calls(self, four_row_dataset):
        assert four_row_dataset.fingerprint() == four_row_dataset.fingerprint()

    def test_sensitive_to_probability_change(self, four_row_dataset):
        other = make_dataset(
            four_row_dataset.probabilities.copy() * 0.5,
            four_row_dataset.labels,
        )
        assert other.fingerprint() != four_row_dataset.fingerprint()

    def test_sensitive_to_label_change(self, four_row_dataset):
        other = make_dataset(
            four_row_dataset.probabilities, [1, 1, 2, 2]
        )
        assert other.fingerprint() != four_row_dataset.fingerprint()

    def test_sensitive_to_id_change(self, four_row_dataset):
        other = make_dataset(
            four_row_dataset.probabilities,
            four_row_dataset.labels,
            ids=("x0", "x1", "x2", "x3"),
        )
        assert other.fingerprint() != four_row_dataset.fingerprint()


class TestSerialization:
    def test_json_round_trip_is_exact(self, tmp_path, four_row_dataset):
        path = tmp_path / "ds.json"
        save_dataset(four_row_dataset, path)
        loaded = load_dataset(path)
        assert loaded.fingerprint() == four_row_dataset.fingerprint()

    def test_csv_round_trip_is_exact_at_12_digits(self, tmp_path):
        # awkward decimals survive the %.12g formatting
        ds = make_dataset(
            [[1 / 3, 2 / 3], [0.123456789012, 0.5]], [1, 2]
        )
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        np.testing.assert_allclose(
            loaded.probabilities, ds.probabilities, rtol=1e-11, atol=0
        )

    def test_format_inferred_from_suffix(self, tmp_path, four_row_dataset):
        jpath = tmp_path / "ds.json"
        save_dataset(four_row_dataset, jpath)
        assert load_dataset(jpath).num_instances == 4

    def test_csv_header_is_strict(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,q_1,q_2\na,1,0.5,0.5\n")
        with pytest.raises(ValidationError, match="header"):
            load_dataset(path)

    def test_csv_bad_cell_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,p_1,p_2\na,1,0.5,0.5\nb,2,oops,0.5\n")
        with pytest.raises(ValidationError):
            load_dataset(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "absent.csv")

    def test_save_predictions_layout(self, tmp_path, four_row_dataset):
        path = tmp_path / "preds.csv"
        save_predictions(four_row_dataset, np.array([1, 1, 2, 2]), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "id,label,prediction"
        assert lines[1] == "r0,1,1"
        assert len(lines) == 5

    @pytest.mark.parametrize(
        "preds, message",
        [
            (
                np.array([1.0, 1.7, 2.0, 2.0]),
                "predictions must be integers, got dtype float64",
            ),
            (np.array([1, 3, 2, 2]), "prediction out of range 1..2 at row 2: 3"),
            (np.array([1, 1, 2]), "expected 4 predictions, got (3,)"),
        ],
    )
    def test_save_predictions_checks_entries(
        self, tmp_path, four_row_dataset, preds, message
    ):
        # a float is not truncated and a class past N is not written
        path = tmp_path / "preds.csv"
        with pytest.raises(ValidationError) as info:
            save_predictions(four_row_dataset, preds, path)
        assert str(info.value) == message
        assert not path.exists()


AWKWARD = dict(
    probs=[
        [1 / 3, 0.1 + 0.2, -0.0],
        [5e-324, 1.0, 0.0],
        [0.123456789012345, 1e-17, 2 / 3],
        [0.5, 0.9999999999999999, 1e-5],
    ],
    labels=[1, 2, 3, 1],
    ids=("a,b", 'say "hi"', "plain", "x"),
)

GOLDEN_CSV = (
    b'id,label,p_1,p_2,p_3\r\n'
    b'"a,b",1,0.333333333333,0.3,-0\r\n'
    b'"say ""hi""",2,4.94065645841e-324,1,0\r\n'
    b'plain,3,0.123456789012,1e-17,0.666666666667\r\n'
    b'x,1,0.5,1,1e-05\r\n'
)
GOLDEN_JSON = (
    b'[{"id": "a,b", "label": 1, "probs": '
    b'[0.3333333333333333, 0.30000000000000004, -0.0]}, '
    b'{"id": "say \\"hi\\"", "label": 2, "probs": [5e-324, 1.0, 0.0]}, '
    b'{"id": "plain", "label": 3, "probs": '
    b'[0.123456789012345, 1e-17, 0.6666666666666666]}, '
    b'{"id": "x", "label": 1, "probs": [0.5, 0.9999999999999999, 1e-05]}]\n'
)
GOLDEN_PREDICTIONS = (
    b'id,label,prediction\r\n'
    b'"a,b",1,2\r\n'
    b'"say ""hi""",2,2\r\n'
    b'plain,3,3\r\n'
    b'x,1,1\r\n'
)


class TestWriters:
    def test_save_dataset_bytes(self, tmp_path):
        ds = make_dataset(**AWKWARD)
        save_dataset(ds, tmp_path / "ds.csv")
        save_dataset(ds, tmp_path / "ds.json")
        assert (tmp_path / "ds.csv").read_bytes() == GOLDEN_CSV
        assert (tmp_path / "ds.json").read_bytes() == GOLDEN_JSON

    def test_save_predictions_bytes(self, tmp_path):
        ds = make_dataset(**AWKWARD)
        path = tmp_path / "preds.csv"
        save_predictions(ds, np.array([2, 2, 3, 1]), path)
        assert path.read_bytes() == GOLDEN_PREDICTIONS

    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_round_trip_arrays(self, tmp_path, suffix):
        ds = make_dataset(**AWKWARD)
        path = tmp_path / f"ds.{suffix}"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        probs = loaded.probabilities
        assert probs.dtype == np.float64 and probs.flags.c_contiguous
        assert loaded.labels.dtype == np.int64
        assert loaded.labels.flags.c_contiguous
        assert loaded.instance_ids == ds.instance_ids
        assert loaded.labels.tolist() == ds.labels.tolist()
        if suffix == "json":
            expected = ds.probabilities
        else:
            expected = np.array(
                [[float("%.12g" % v) for v in row] for row in AWKWARD["probs"]]
            )
        # bit-level equality: -0.0 and subnormals included
        assert probs.tobytes() == expected.tobytes()


# cells at the edges of both formats: signed zeros, subnormals and 1.0
CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1e-300, 5e-324, 2.225073858507201e-308]),
    st.floats(0.0, 1.0),
)
# ids that each writer must quote or escape, non-ASCII ones among them
ODD_IDS = ("a,b", 'say "hi"', "\r", "\n", "\x00", "\u2028", "\x85", "\ufeff",
           "é", "\U0001f600")


@st.composite
def datasets(draw, ids=st.text(min_size=1)):
    """Small datasets whose ids come from ``ids``, by default ``st.text()``,
    which draws commas, quotes, braces, line breaks, NUL, U+2028, U+0085, a
    BOM and other non-ASCII text."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(2, 4))
    ids = draw(st.lists(ids, min_size=m, max_size=m, unique=True))
    probs = draw(
        st.lists(st.lists(CELLS, min_size=n, max_size=n), min_size=m, max_size=m)
    )
    labels = draw(st.lists(st.integers(1, n), min_size=m, max_size=m))
    return make_dataset(probs, labels, ids)


def stdlib_files(ds, preds) -> dict[str, bytes]:
    """The CSV and JSON files of ``ds`` and its predictions file as
    ``csv.writer`` and ``json.dump`` write them."""
    rows = list(zip(ds.instance_ids, ds.labels.tolist(), ds.probabilities.tolist()))
    names = [f"p_{j}" for j in range(1, ds.num_classes + 1)]
    files = {}
    for name, header, table in [
        ("ds.csv", ["id", "label", *names],
         [[i, label, *("%.12g" % v for v in p)] for i, label, p in rows]),
        ("preds.csv", ["id", "label", "prediction"],
         zip(ds.instance_ids, ds.labels.tolist(), preds.tolist())),
    ]:
        text = io.StringIO(newline="")
        writer = csv.writer(text)
        writer.writerow(header)
        writer.writerows(table)
        files[name] = text.getvalue().encode("utf-8")
    text = io.StringIO(newline="")
    json.dump([{"id": i, "label": label, "probs": p} for i, label, p in rows], text)
    files["ds.json"] = (text.getvalue() + "\n").encode("utf-8")
    return files


def saved_files(ds, preds, directory) -> dict[str, bytes]:
    """The same three files as ``save_dataset`` and ``save_predictions``
    write them."""
    files = {}
    for name in ("ds.csv", "preds.csv", "ds.json"):
        path = fresh_file(directory, name.split(".")[1])
        if name == "preds.csv":
            save_predictions(ds, preds, path)
        else:
            save_dataset(ds, path)
        files[name] = path.read_bytes()
    return files


class TestRowWriter:
    """``save_dataset`` and ``save_predictions`` format each row with one
    ``%`` format; the files keep the bytes of ``csv.writer`` and
    ``json.dump``, at every row count and for any id."""

    @settings(deadline=None, max_examples=150)
    @given(ds=datasets(), data=st.data())
    def test_bytes_equal_the_stdlib_writers(self, fuzz_dir, ds, data):
        m, n = ds.probabilities.shape
        preds = np.array(
            data.draw(st.lists(st.integers(1, n), min_size=m, max_size=m))
        )
        assert saved_files(ds, preds, fuzz_dir) == stdlib_files(ds, preds)

    @settings(deadline=None, max_examples=100)
    @given(n=st.integers(2, 12), data=st.data())
    def test_prediction_rows_equal_csv_writer(self, fuzz_dir, n, data):
        # every (label, prediction) cell of N up to 12, with ids csv.writer
        # quotes
        m = data.draw(st.integers(1, 60))
        ids = data.draw(
            st.lists(
                st.text(st.sampled_from('ab,"\r\n é'), min_size=1, max_size=4),
                min_size=m, max_size=m, unique=True,
            )
        )
        labels, preds = (
            data.draw(st.lists(st.integers(1, n), min_size=m, max_size=m))
            for _ in range(2)
        )
        ds = make_dataset(np.full((m, n), 1 / n), labels, ids)
        path = fresh_file(fuzz_dir, "csv")
        save_predictions(ds, np.array(preds), path)
        text = io.StringIO(newline="")
        writer = csv.writer(text)
        writer.writerow(["id", "label", "prediction"])
        writer.writerows(zip(ids, labels, preds))
        assert path.read_bytes() == text.getvalue().encode("utf-8")

    def test_prediction_cells_of_many_classes_stay_small(self, tmp_path):
        # a table of all N² cells would be 72 MB of int64 at N = 3,000
        n = 3_000
        labels, preds = [n, n - 1, 1, n], [n - 1, n, n, n]
        ds = make_dataset(np.full((4, n), 1 / n), labels, list("abcd"))
        path = tmp_path / "p.csv"
        tracemalloc.start()
        try:
            save_predictions(ds, np.array(preds), path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert path.read_text(encoding="utf-8").splitlines() == [
            "id,label,prediction",
            *(f"{i},{t},{p}" for i, t, p in zip("abcd", labels, preds)),
        ]

    @pytest.mark.parametrize(
        "count",
        [1, _ROW_BATCH - 1, _ROW_BATCH, _ROW_BATCH + 1, 2 * _ROW_BATCH + 1],
    )
    def test_bytes_at_batch_boundaries(self, tmp_path, count):
        rng = np.random.default_rng(count)
        probs = rng.random((count, 3))
        probs[::3, 0] = -0.0
        probs[1::3, 1] = 5e-324
        probs[2::3, 2] = 1.0
        ids = [f"{ODD_IDS[i % len(ODD_IDS)]}{i}" for i in range(count)]
        ds = make_dataset(probs, rng.integers(1, 4, count), ids)
        preds = rng.integers(1, 4, count)
        assert saved_files(ds, preds, tmp_path) == stdlib_files(ds, preds)

    @settings(deadline=None, max_examples=100)
    @given(ds=datasets())
    def test_saved_files_load_back(self, fuzz_dir, ds):
        for suffix in ("csv", "json"):
            path = fresh_file(fuzz_dir, suffix)
            save_dataset(ds, path)
            loaded = load_dataset(path)
            assert loaded.instance_ids == ds.instance_ids
            assert loaded.labels.tolist() == ds.labels.tolist()
            expected = ds.probabilities
            if suffix == "csv":
                expected = np.array(
                    [[float("%.12g" % v) for v in p] for p in expected.tolist()]
                )
            assert loaded.probabilities.tobytes() == expected.tobytes()


# a bad byte past the text stream's first decode chunk, so that the error
# must name its offset in the file, not in the chunk
CSV_NOT_UTF8 = b"id,label,p_1,p_2\n" + b"r,1,0.5,0.5\n" * 2000 + b"s,2,\xff,0.5\n"
JSON_NOT_UTF8 = b'[{"id": "a\xff", "label": 1, "probs": [0.5, 0.5]}]'

# (file name, content, exit code, stderr message); "{path}" is the input file
LOADER_CASES = [
    pytest.param(
        "surrogate.json",
        b'[{"id": "a", "label": 1, "probs": [0.5, 0.5]}, '
        b'{"id": "a\\ud800", "label": 2, "probs": [0.5, 0.5]}]',
        2, "{path}: instance id at row 2 is not UTF-8 text: 'a\\ud800'",
        id="json-lone-surrogate-id",
    ),
    pytest.param(
        "ragged.csv",
        b"id,label,p_1,p_2\na,1,0.5,0.5\n\nb,2,0.5\n",
        2, "{path}: row 2 has 3 fields, expected 4",
        id="csv-ragged-after-blank",
    ),
    pytest.param(
        "label.csv",
        b"id,label,p_1,p_2\na,x,0.5,0.5\n",
        2, "{path}: row 1 has non-integer label 'x'",
        id="csv-bad-label",
    ),
    pytest.param(
        "cell.csv",
        b"id,label,p_1,p_2\na,1,0.5,0.5\nb,2,oops,0.5\n",
        2, "{path}: row 2 has a non-numeric probability",
        id="csv-bad-cell",
    ),
    pytest.param(
        "first.csv",
        b"id,label,p_1,p_2\na,1,oops,0.5\nb,2,0.5\n",
        2, "{path}: row 1 has a non-numeric probability",
        id="csv-bad-cell-before-ragged",
    ),
    pytest.param(
        "nan.csv",
        b"id,label,p_1,p_2\na,1,0.5,nan\n",
        2, "{path}: non-finite probability at row 1, class 2",
        id="csv-nan",
    ),
    pytest.param(
        "inf.csv",
        b"id,label,p_1,p_2\na,1,0.5,0.5\nb,2,1e999,0.5\n",
        2, "{path}: non-finite probability at row 2, class 1",
        id="csv-overflow-to-inf",
    ),
    pytest.param(
        "range.csv",
        b"id,label,p_1,p_2\na,1,0.5,1.5\n",
        2, "{path}: probability out of [0, 1] at row 1, class 2: 1.5",
        id="csv-probability-above-one",
    ),
    pytest.param(
        "bom.csv",
        b"\xef\xbb\xbfid,label,p_1,p_2\na,1,0.5,0.5\n",
        2, "{path}: header must be id,label,p_1,...,p_N",
        id="csv-bom-header",
    ),
    pytest.param(
        "empty.csv", b"", 2, "{path}: empty file", id="csv-empty"
    ),
    pytest.param(
        "header.csv",
        b"id,label,p_1,p_2\n\n",
        2, "{path}: no data rows",
        id="csv-header-only",
    ),
    pytest.param(
        "wide.csv",
        b"id,label,p_1,p_2" + b"2" * 200_000 + b"\na,1,0.5,0.5\n",
        2, "{path}: header row: field larger than field limit "
        f"({csv.field_size_limit()})",
        id="csv-header-field-beyond-limit",
    ),
    pytest.param(
        "wide.csv",
        b"id,label,p_1,p_2\na,1,0.5,0.5\n\n" + b"b" * 200_000 + b",2,0.5,0.5\n",
        2, "{path}: row 2: field larger than field limit "
        f"({csv.field_size_limit()})",
        id="csv-row-field-beyond-limit",
    ),
    pytest.param(
        "wide.csv",
        b"id,label,p_1,p_2\na,1,0.5,0." + b"5" * 200_000 + b"\n",
        2, "{path}: row 1: field larger than field limit "
        f"({csv.field_size_limit()})",
        id="csv-probability-field-beyond-limit",
    ),
    # int() takes the label text: a float is refused, while underscores and
    # non-ASCII digits are read as the number they spell
    pytest.param(
        "label.csv",
        b"id,label,p_1,p_2\na,3.0,0.5,0.5\n",
        2, "{path}: row 1 has non-integer label '3.0'",
        id="csv-float-label",
    ),
    pytest.param(
        "label.csv",
        b"id,label,p_1,p_2\na,1_0,0.5,0.5\n",
        2, "{path}: label out of range 1..2 at row 1: 10",
        id="csv-underscore-label",
    ),
    pytest.param(
        "label.csv",
        "id,label,p_1,p_2\na,\u0663,0.5,0.5\n".encode(),
        2, "{path}: label out of range 1..2 at row 1: 3",
        id="csv-arabic-indic-label",
    ),
    # ``#`` starts no comment, and a quoted id keeps its comma, its doubled
    # quote and its CRLF, and is one row
    *(
        pytest.param(
            "ids.csv",
            b"id,label,p_1,p_2\n"
            + ident + b",1,0.5,0.5\n"
            + ident + b",2,0.5,0.5\n",
            2, "{path}: duplicate instance id " + message + " at rows 1 and 2",
            id=f"csv-id-{kind}",
        )
        for kind, ident, message in (
            ("hash", b"#a", "'#a'"),
            ("quoted-comma", b'"a,b"', "'a,b'"),
            ("quoted-quote", b'"say ""hi"""', "'say \"hi\"'"),
            ("quoted-crlf", b'"x\r\ny"', "'x\\r\\ny'"),
        )
    ),
    pytest.param(
        "space.csv",
        b"id,label,p_1,p_2\na,1,0.5,0.5\n \t\nb,2,0.5,0.5\n",
        2, "{path}: row 2 has 1 fields, expected 4",
        id="csv-whitespace-line",
    ),
    pytest.param(
        "cr.csv",
        b"id,label,p_1,p_2\ra,1,0.5,0.5\rb,2,0.5\r",
        2, "{path}: row 2 has 3 fields, expected 4",
        id="csv-bare-cr-line-ends",
    ),
    pytest.param(
        "null.json",
        b'[{"id": "a", "label": 1, "probs": [0.5, null]}]',
        2, "{path}: record 1 has a non-numeric probability",
        id="json-null-cell",
    ),
    pytest.param(
        "string.json",
        b'[{"id": "a", "label": 1, "probs": ["0.5", 0.5]}]',
        2, "{path}: record 1 has a non-numeric probability",
        id="json-string-cell",
    ),
    pytest.param(
        "true.json",
        b'[{"id": "a", "label": 1, "probs": [0.5, 0.5]},'
        b' {"id": "b", "label": 2, "probs": [0.5, true]}]',
        2, "{path}: record 2 has a non-numeric probability",
        id="json-bool-cell",
    ),
    pytest.param(
        "bool.json",
        b'[{"id": "a", "label": true, "probs": [0.5, 0.5]}]',
        2, "{path}: record 1 has non-integer label",
        id="json-bool-label",
    ),
    pytest.param(
        "float.json",
        b'[{"id": "a", "label": 1, "probs": [0.5, 0.5]},'
        b' {"id": "b", "label": 2.0, "probs": [0.5, 0.5]}]',
        2, "{path}: record 2 has non-integer label",
        id="json-float-label",
    ),
    pytest.param(
        "collide.json",
        b'[{"id": 1, "label": 1, "probs": [0.5, 0.5]},'
        b' {"id": "1", "label": 2, "probs": [0.5, 0.5]}]',
        2, "{path}: duplicate instance id '1' at rows 1 and 2",
        id="json-ids-collide-after-str",
    ),
    *(
        pytest.param(
            "ids.json",
            b'[{"id": "a", "label": 1, "probs": [0.5, 0.5]},'
            b' {"id": ' + ident + b', "label": 2, "probs": [0.5, 0.5]}]',
            2, "{path}: record 2 has an id that is not a string or a number",
            id=f"json-id-{kind}",
        )
        for kind, ident in (
            ("null", b"null"),
            ("bool", b"true"),
            ("array", b"[1, 2]"),
            ("object", b'{"a": 1}'),
        )
    ),
    pytest.param(
        "nan.json",
        b'[{"id": "a", "label": 1, "probs": [0.5, NaN]}]',
        2, "{path}: non-finite probability at row 1, class 2",
        id="json-nan",
    ),
    pytest.param(
        "inf.json",
        b'[{"id": "a", "label": 1, "probs": [1e999, 0.5]}]',
        2, "{path}: non-finite probability at row 1, class 1",
        id="json-overflow-to-inf",
    ),
    pytest.param(
        "range.json",
        b'[{"id": "a", "label": 1, "probs": [0.5, 0.5]},'
        b' {"id": "b", "label": 2, "probs": [-0.25, 0.5]}]',
        2, "{path}: probability out of [0, 1] at row 2, class 1: -0.25",
        id="json-probability-below-zero",
    ),
    pytest.param(
        "bom.json",
        b'\xef\xbb\xbf[{"id": "a", "label": 1, "probs": [0.5, 0.5]}]',
        2, "{path}: invalid JSON: Unexpected UTF-8 BOM (decode using "
        "utf-8-sig): line 1 column 1 (char 0)",
        id="json-bom",
    ),
    pytest.param(
        "keys.json",
        b'[{"id": "a", "probs": [0.5, 0.5]}]',
        2, "{path}: record 1 must have id, label, probs",
        id="json-missing-key",
    ),
    pytest.param(
        "record.json",
        b'[{"id": "a", "label": 1, "probs": [0.5, 0.5]}, [1, 2]]',
        2, "{path}: record 2 must have id, label, probs",
        id="json-record-not-object",
    ),
    pytest.param(
        "array.json", b"{}", 2, "{path}: expected a non-empty JSON array",
        id="json-not-array",
    ),
    pytest.param(
        "ragged.json",
        b'[{"id": "a", "label": 1, "probs": [0.5, 0.5]},'
        b' {"id": "b", "label": 1, "probs": [0.5]}]',
        2, "{path}: record 2 has 1 probabilities, expected 2",
        id="json-ragged",
    ),
    pytest.param(
        "int.json",
        b'[{"id": "a", "label": 1, "probs": 5}]',
        2, "{path}: record 1 probs must be a JSON array",
        id="json-probs-int",
    ),
    pytest.param(
        "null.json",
        b'[{"id": "a", "label": 1, "probs": [0.5, 0.5]},'
        b' {"id": "b", "label": 2, "probs": null}]',
        2, "{path}: record 2 probs must be a JSON array",
        id="json-probs-null",
    ),
    pytest.param(
        "true.json",
        b'[{"id": "a", "label": 1, "probs": true}]',
        2, "{path}: record 1 probs must be a JSON array",
        id="json-probs-bool",
    ),
    pytest.param(
        # a string is a sequence of the right length whose characters parse
        "string.json",
        b'[{"id": "a", "label": 1, "probs": [0.5, 0.5]},'
        b' {"id": "b", "label": 2, "probs": "01"}]',
        2, "{path}: record 2 probs must be a JSON array",
        id="json-probs-string",
    ),
    pytest.param(
        "big.json",
        b'[{"id": "a", "label": 1, "probs": [0.5, 0.5]},'
        b' {"id": "b", "label": 2, "probs": [0.5, 1' + b"0" * 400 + b']}]',
        2, "{path}: record 2 has a probability out of [0, 1]",
        id="json-int-probability-beyond-float",
    ),
    pytest.param(
        "label.csv",
        b"id,label,p_1,p_2\na,1,0.5,0.5\nb,99999999999999999999,0.5,0.5\n",
        2, "{path}: label out of range 1..2 at row 2: 99999999999999999999",
        id="csv-label-beyond-int64",
    ),
    pytest.param(
        "label.json",
        b'[{"id": "a", "label": 1, "probs": [0.5, 0.5]},'
        b' {"id": "b", "label": -99999999999999999999, "probs": [0.5, 0.5]}]',
        2, "{path}: label out of range 1..2 at row 2: -99999999999999999999",
        id="json-label-beyond-int64",
    ),
    # numpy reads a list of ints that holds one past int64 as float64
    pytest.param(
        "label.csv",
        b"id,label,p_1,p_2\na,1,0.5,0.5\nb,9223372036854775808,0.5,0.5\n",
        2, "{path}: label out of range 1..2 at row 2: 9223372036854775808",
        id="csv-label-2-to-the-63",
    ),
    pytest.param(
        "label.json",
        b'[{"id": "a", "label": 1, "probs": [0.5, 0.5]},'
        b' {"id": "b", "label": 18446744073709551615, "probs": [0.5, 0.5]}]',
        2, "{path}: label out of range 1..2 at row 2: 18446744073709551615",
        id="json-label-uint64-max",
    ),
    pytest.param(
        "digits.json",
        b'[{"id": "a", "label": 1, "probs": [0.5, 1' + b"0" * 4999 + b"]}]",
        2, "{path}: invalid JSON: a number has more than "
        f"{sys.get_int_max_str_digits()} digits",
        id="json-number-beyond-digit-limit",
    ),
    pytest.param(
        "deep.json", b"[" * 10**5 + b"]" * 10**5,
        2, "{path}: invalid JSON: nested too deeply",
        id="json-nested-too-deeply",
    ),
    pytest.param(
        "bytes.csv", CSV_NOT_UTF8,
        2, f"{{path}}: byte {CSV_NOT_UTF8.index(0xFF)} (0xff) is not valid UTF-8",
        id="csv-not-utf8",
    ),
    pytest.param(
        "bytes.json", JSON_NOT_UTF8,
        2, f"{{path}}: byte {JSON_NOT_UTF8.index(0xFF)} (0xff) is not valid UTF-8",
        id="json-not-utf8",
    ),
]


class TestLoaderErrors:
    """Malformed dataset files end in a one-line error, never a traceback."""

    @pytest.mark.parametrize("name, content, code, message", LOADER_CASES)
    def test_cli_exit_and_message(
        self, tmp_path, capsys, name, content, code, message
    ):
        path = tmp_path / name
        path.write_bytes(content)
        rc = main(["oracle", "--input", str(path), "--out", str(tmp_path / "o")])
        assert rc == code
        err = capsys.readouterr().err
        assert err == "error: " + message.format(path=path) + "\n"

    def test_optimize_names_a_lone_surrogate_id(self, tmp_path, capsys):
        # the escape loads as a str that UTF-8 cannot encode; optimize
        # fingerprinted it and ended in a UnicodeEncodeError traceback
        path = tmp_path / "ds.json"
        path.write_bytes(
            b'[{"id": "a", "label": 1, "probs": [0.5, 0.5]}, '
            b'{"id": "\\ud800b", "label": 2, "probs": [0.5, 0.5]}]'
        )
        rc = main(["optimize", "--input", str(path), "--seed", "0",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {path}: instance id at row 2 is not UTF-8 text: '\\ud800b'\n"
        )

    def test_blank_line_is_not_a_row(self, tmp_path, capsys):
        # a parse error and a dataset check name the same line alike
        body = b"id,label,p_1,p_2\na,1,0.5,0.5\n\n"
        for name, last, message in [
            ("dup.csv", b"a,2,0.5,0.5\n", "duplicate instance id 'a' at rows 1 and 2"),
            ("ragged.csv", b"b,2,0.5\n", "row 2 has 3 fields, expected 4"),
        ]:
            path = tmp_path / name
            path.write_bytes(body + last)
            rc = main(["oracle", "--input", str(path), "--out", str(tmp_path / "o")])
            assert rc == 2
            assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_unknown_format_names_the_file(self, tmp_path):
        path = tmp_path / "ds.csv"
        with pytest.raises(ValidationError) as exc:
            load_dataset(path, "xml")
        assert str(exc.value) == f"{path}: unknown dataset format 'xml'"


@contextlib.contextmanager
def collector(enabled):
    """The cyclic garbage collector switched on or off for the block."""
    before = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if before else gc.disable()


class TestCollectorPause:
    """``load_dataset`` parses with the collector off and then restores the
    caller's setting, whether the load returns or raises."""

    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_paused_during_the_parse(
        self, tmp_path, monkeypatch, four_row_dataset, suffix
    ):
        import dcs.data

        loader = f"_load_{suffix}"
        parse = getattr(dcs.data, loader)
        seen = []

        def spy(path):
            seen.append(gc.isenabled())
            return parse(path)

        monkeypatch.setattr(dcs.data, loader, spy)
        path = tmp_path / f"ds.{suffix}"
        save_dataset(four_row_dataset, path)
        with collector(True):
            load_dataset(path)
        assert seen == [False]

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_setting_restored(self, tmp_path, four_row_dataset, suffix, enabled):
        good = tmp_path / f"ds.{suffix}"
        save_dataset(four_row_dataset, good)
        bad = tmp_path / f"bad.{suffix}"
        bad.write_bytes(good.read_bytes().replace(b"0.9", b"1.9"))
        with collector(enabled):
            load_dataset(good)
            assert gc.isenabled() is enabled
            with pytest.raises(ValidationError, match="out of"):
                load_dataset(bad)
            assert gc.isenabled() is enabled


class TestLoaderFuzz:
    """Any bytes end in a dataset or a ValidationError, never another
    exception; the error's message starts with the path and names it once."""

    @pytest.mark.parametrize("suffix", ["csv", "json"])
    @settings(deadline=None, max_examples=150)
    @given(mutations=MUTATIONS)
    def test_mutated_file_loads_or_is_rejected(
        self, fuzz_dir, suffix, mutations
    ):
        content = GOLDEN_CSV if suffix == "csv" else GOLDEN_JSON
        path = fresh_file(fuzz_dir, suffix)
        path.write_bytes(mutated(content, mutations))
        try:
            load_dataset(path)
        except ValidationError as exc:
            message = str(exc)
            assert message.startswith(f"{path}: ")
            assert message.count(str(path)) == 1


def outcome(path):
    """``load_dataset``'s fingerprint for ``path``, or its error message."""
    try:
        return load_dataset(path).fingerprint()
    except ValidationError as exc:
        return str(exc)


def reference_outcome(path):
    """``outcome`` with the row loop reading every CSV file."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dcs.data, "_load_csv_numpy", lambda fh: None)
        return outcome(path)


def numpy_reads(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return dcs.data._load_csv_numpy(fh) is not None


HEADER = b"id,label,p_1,p_2\n"


def quoted_csv(quoting):
    """GOLDEN_CSV's rows written by ``csv.writer`` with ``quoting``, the
    header included, the labels as ints and the probabilities as floats."""
    rows = list(csv.reader(io.StringIO(GOLDEN_CSV.decode())))
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=quoting)
    writer.writerow(rows[0])
    writer.writerows(
        [ident, int(label), *map(float, probs)] for ident, label, *probs in rows[1:]
    )
    return buf.getvalue().encode()


# as R's write.csv(..., row.names = FALSE) writes GOLDEN_CSV's rows: the
# header and the ids quoted, the numbers bare at 15 significant digits
R_STYLE_CSV = (
    b'"id","label","p_1","p_2","p_3"\n'
    b'"a,b",1,0.333333333333,0.3,0\n'
    b'"say ""hi""",2,4.94065645841247e-324,1,0\n'
    b'"plain",3,0.123456789012,1e-17,0.666666666667\n'
    b'"x",1,0.5,1,1e-05\n'
)
# cells for the awkward-cell comparison: numbers in spaces that int(),
# float() and numpy's parsers may strip differently, numbers that only some
# of them read, and text near numbers
SPACE = st.sampled_from(["", " ", "\t", "\xa0", "\u2000", "\x1c"])
AWKWARD_CELL = st.one_of(
    st.tuples(
        SPACE,
        st.one_of(
            st.floats(0, 1).map(repr),
            st.sampled_from(
                ["1", "2", "+1", "01", "-0", ".5", "5e-1", "1e-400", "inf"]
            ),
            st.sampled_from(["1.0", "1_0", "0_5", "\u0663", '"1"']),
        ),
        SPACE,
    ).map("".join),
    st.text(alphabet='0123456789.-+eE_ \t\x0b\x1f\u0663nainfty,"\n', max_size=5),
)


class TestCsvReaders:
    """``load_dataset`` reads a CSV file with numpy's C reader where that
    reader gives what the row loop gives, and with the row loop elsewhere;
    either way the result is the row loop's."""

    @pytest.mark.parametrize(
        "content, fast",
        [
            pytest.param(GOLDEN_CSV, True, id="golden"),
            pytest.param(
                b"id,label,p_1,p_2\ra,1,0.5,0.5\rb,2, .25 ,+1\r", True,
                id="bare-cr",
            ),
            pytest.param(
                b'"id",label,p_1,p_2\na,1,0.5,0.5\n', True,
                id="header-not-literal",
            ),
            pytest.param(quoted_csv(csv.QUOTE_ALL), True, id="quote-all"),
            pytest.param(
                quoted_csv(csv.QUOTE_NONNUMERIC), True, id="quote-nonnumeric"
            ),
            pytest.param(R_STYLE_CSV, True, id="r-write-csv"),
            pytest.param(
                b"id,label,p_1\na,1,0.5\n", False, id="one-class-header"
            ),
            pytest.param(
                HEADER + b"a,3.0,0.5,0.5\n", False, id="loadtxt-raises"
            ),
            pytest.param(HEADER, False, id="loadtxt-warns-on-empty-body"),
            pytest.param(
                HEADER + b"a,1,0.5,0.5\n\r\n\r\nb,2,0.5,0.5\n\n", True,
                id="blank-lines",
            ),
            pytest.param(
                HEADER + b'"a\r\nb",1,0.5,0.5\n', False,
                id="quoted-line-break",
            ),
            pytest.param(
                HEADER + b"a,1,0.5,0." + b"5" * 200_000 + b"\n", False,
                id="line-beyond-field-limit",
            ),
            pytest.param(
                HEADER + b"a,1,0.5,0.5\x1c\n", False,
                id="separator-numpy-strips",
            ),
            pytest.param(
                HEADER + b"a\xff,1,0.5,0.5\n", False, id="not-utf8"
            ),
        ],
    )
    def test_which_reader(self, tmp_path, content, fast):
        path = tmp_path / "ds.csv"
        path.write_bytes(content)
        assert numpy_reads(path) is fast
        assert outcome(path) == reference_outcome(path)

    def test_refused_quoted_header_keeps_its_message(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_bytes(b'"id","lbl",p_1,p_2\na,1,0.5,0.5\n')
        assert not numpy_reads(path)
        assert outcome(path) == f"{path}: header must be id,label,p_1,...,p_N"

    def test_numpy_arrays_match_the_loop(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_bytes(GOLDEN_CSV)
        with path.open(newline="", encoding="utf-8") as fh:
            ids, labels, probs, n = dcs.data._load_csv_numpy(fh)
        ref_ids, ref_labels, flat, ref_n = dcs.data._load_csv_rows(path)
        assert (ids, labels.tolist(), n) == (ref_ids, ref_labels, ref_n)
        assert probs.tobytes() == np.array(flat).reshape(-1, n).tobytes()

    @settings(deadline=None, max_examples=150)
    @given(mutations=MUTATIONS)
    def test_mutated_file_as_the_loop_reads_it(self, fuzz_dir, mutations):
        path = fresh_file(fuzz_dir, "csv")
        path.write_bytes(mutated(GOLDEN_CSV, mutations))
        assert outcome(path) == reference_outcome(path)

    @settings(deadline=None, max_examples=150)
    @given(
        probs=st.lists(st.floats(0, 1), min_size=2, max_size=8),
        at=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        cell=AWKWARD_CELL,
        end=st.sampled_from(["\n", "\r\n", "\r"]),
        quoting=st.sampled_from(
            [csv.QUOTE_MINIMAL, csv.QUOTE_ALL, csv.QUOTE_NONNUMERIC]
        ),
    )
    def test_awkward_cell_as_the_loop_reads_it(
        self, fuzz_dir, probs, at, cell, end, quoting
    ):
        rows = [
            [f"r{i}", 1 + i % 2, repr(p1), repr(p2)]
            for i, (p1, p2) in enumerate(zip(probs[::2], probs[1::2]))
        ]
        rows[at[0] % len(rows)][at[1]] = cell
        path = fresh_file(fuzz_dir, "csv")
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator=end, quoting=quoting)
            writer.writerow(["id", "label", "p_1", "p_2"])
            writer.writerows(rows)
        assert outcome(path) == reference_outcome(path)


# characters per chunk that cut small files at many places
CHUNK_SIZES = (1, 7, 64, 4096)


@contextlib.contextmanager
def json_chunks(size):
    """``read_json_chunks`` reading ``size`` characters at a time, or its
    own ``_JSON_CHUNK_CHARS`` when ``size`` is None."""
    with pytest.MonkeyPatch.context() as mp:
        if size is not None:
            mp.setattr(dcs.records, "_JSON_CHUNK_CHARS", size)
        yield mp


@contextlib.contextmanager
def whole_file():
    """The chunked reader declining every JSON file, so that ``read_json``
    parses it whole."""

    def decline(path):
        raise ValueError("declined")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dcs.data, "read_json_chunks", decline)
        yield


def no_fallback(path):
    """A ``read_json`` for loads that must not read the file whole."""
    raise AssertionError(f"{path} was read whole")


def read_chunked(path):
    """The elements ``read_json_chunks`` yields, or ``"declined"``."""
    try:
        lists = list(dcs.records.read_json_chunks(path))
    except (ValueError, RecursionError):
        return "declined"
    assert all(lists)
    return [element for elements in lists for element in elements]


JSON_FORMATS = st.fixed_dictionaries(
    {
        "indent": st.sampled_from([None, 0, 1, "\t"]),
        "separators": st.sampled_from([(", ", ": "), (",", ":"), (" ,\r\n", "\t:")]),
        "ensure_ascii": st.booleans(),
    }
)
# any JSON value: a NaN would not equal itself
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
RECORD = '{"id": "%s", "label": %s, "probs": [0.5, 0.5]}'
# (content, message): files the chunked reader declines or takes, each
# with the message of the whole-file path
JSON_CHUNK_CASES = [
    # a bad record in the first chunk does not pre-empt the syntax error in
    # the last line, which is placed in the whole file
    pytest.param(
        (
            "[\n" + ",\n".join(
                [RECORD % ("a", '"x"')]
                + [RECORD % (f"r{i}", 1 + i % 2) for i in range(40)]
            )
            + ',\n{"id": "z", "label": 1 "probs": [0.5, 0.5]}\n]\n'
        ).encode(),
        "{path}: invalid JSON: Expecting ',' delimiter: "
        "line 43 column 24 (char 1983)",
        id="bad-record-first-syntax-error-last",
    ),
    pytest.param(
        ("[" + RECORD % ("a", 1) + ", ]").encode(),
        "{path}: invalid JSON: Expecting value: line 1 column 48 (char 47)",
        id="comma-before-end",
    ),
    pytest.param(
        ("[" + RECORD % ("a", 1) + "]\n[" + RECORD % ("b", 2) + "]\n").encode(),
        "{path}: invalid JSON: Extra data: line 2 column 1 (char 47)",
        id="data-after-the-array",
    ),
    pytest.param(
        (
            "[" + ", ".join(
                [RECORD % ("a}b", 1), RECORD % ("c}}", 2), RECORD % ("a}b", 2)]
            ) + "]"
        ).encode(),
        "{path}: duplicate instance id 'a}b' at rows 1 and 3",
        id="brace-in-an-id-at-a-cut",
    ),
    pytest.param(
        (
            "[" + ", ".join(
                [RECORD % ("a", 1), RECORD % ("b", 2**63), RECORD % ("c", 0)]
            ) + "]"
        ).encode(),
        "{path}: label out of range 1..2 at row 2: 9223372036854775808",
        id="label-past-int64",
    ),
    pytest.param(
        (
            "[" + ", ".join(
                [RECORD % ("a", 2**63), '{"id": "b", "label": 1, "probs": [1.5, 0.5]}']
            ) + "]"
        ).encode(),
        "{path}: probability out of [0, 1] at row 2, class 1: 1.5",
        id="label-past-int64-then-probability-out-of-range",
    ),
    pytest.param(b" \n[]\n", "{path}: expected a non-empty JSON array", id="empty"),
]


class TestJsonChunks:
    """``load_dataset`` reads a JSON dataset one chunk of text at a time, and
    reads it whole with ``read_json`` when the chunked reader fails, so
    every dataset and every message is the whole-file path's."""

    @settings(deadline=None, max_examples=100)
    @given(ds=datasets(), fmt=JSON_FORMATS)
    def test_loads_as_the_whole_file(self, fuzz_dir, ds, fmt):
        rows = zip(ds.instance_ids, ds.labels.tolist(), ds.probabilities.tolist())
        dumped = fresh_file(fuzz_dir, "json")
        dumped.write_text(
            json.dumps([{"id": i, "label": a, "probs": p} for i, a, p in rows], **fmt),
            encoding="utf-8",
        )
        saved = fresh_file(fuzz_dir, "json")
        save_dataset(ds, saved)
        expected = ds.fingerprint()  # ids, labels and probability bits
        for path in (dumped, saved):
            with whole_file():
                assert outcome(path) == expected
            for size in CHUNK_SIZES:
                with json_chunks(size):
                    assert outcome(path) == expected

    @settings(deadline=None, max_examples=100)
    @given(
        ds=datasets(
            ids=st.text(st.characters(exclude_categories=["Cs"]), min_size=1)
        )
    )
    def test_saved_files_never_fall_back(self, fuzz_dir, ds):
        # a "}" inside an id is a cut only where "," or "]" follows it, and
        # such a cut is carried to the next chunk
        path = fresh_file(fuzz_dir, "json")
        save_dataset(ds, path)
        expected = ds.fingerprint()
        for size in (*CHUNK_SIZES, None):
            with json_chunks(size) as mp:
                mp.setattr(dcs.data, "read_json", no_fallback)
                assert outcome(path) == expected

    @settings(deadline=None, max_examples=150)
    @given(
        value=st.lists(JSON_VALUES, max_size=4), fmt=JSON_FORMATS,
        size=st.sampled_from(CHUNK_SIZES),
    )
    def test_reader_gives_the_parse_or_declines(self, fuzz_dir, value, fmt, size):
        path = fresh_file(fuzz_dir, "json")
        path.write_text(json.dumps(value, **fmt), encoding="utf-8")
        with json_chunks(size):
            assert read_chunked(path) in ("declined", value)

    @settings(deadline=None, max_examples=150)
    @given(mutations=MUTATIONS, size=st.sampled_from(CHUNK_SIZES))
    def test_mutated_file_as_the_whole_file_reads_it(
        self, fuzz_dir, mutations, size
    ):
        path = fresh_file(fuzz_dir, "json")
        path.write_bytes(mutated(GOLDEN_JSON, mutations))
        with json_chunks(size):
            chunked = read_chunked(path)
            assert chunked == "declined" or chunked == dcs.records.read_json(path)
            loaded = outcome(path)
        with whole_file():
            assert loaded == outcome(path)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("", id="empty-file"),
            pytest.param(" [ ] ", id="empty-array"),
            pytest.param('{"a": 1}', id="object"),
            pytest.param('\ufeff[{"a": 1}]', id="bom"),
            pytest.param('[{"a": 1}, 2]', id="element-after-the-last-object"),
            pytest.param('[{"a": 1}] {"b": 2}', id="object-after-the-array"),
            pytest.param('[{"a": 1}]]', id="bracket-after-the-array"),
            pytest.param('({"a": 1}]', id="not-a-bracket"),
            pytest.param('[{"a": 1}; {"b": 2}]', id="not-a-comma"),
            # whitespace to str.strip() but not to JSON
            pytest.param('\xa0[{"a": 1}]', id="space-before"),
            pytest.param('[{"a": 1}\u2028, {"b": 2}]', id="space-between"),
            pytest.param('[{"a": 1}]\x1c', id="space-after"),
            pytest.param('[{"a": 1},, {"b": 2}]', id="two-commas"),
            pytest.param('[{"a": 1} {"b": 2}]', id="no-comma"),
        ],
    )
    def test_reader_declines(self, tmp_path, text):
        path = tmp_path / "x.json"
        path.write_text(text, encoding="utf-8")
        with json_chunks(7):
            assert read_chunked(path) == "declined"

    @pytest.mark.parametrize("carry, declined", [(34, True), (35, False)])
    def test_reader_declines_past_the_carried_text(
        self, tmp_path, carry, declined
    ):
        # every 7-character chunk ends in a nested object, so no cut parses
        # before the last chunk; the text held at the miss before it is 35
        # characters
        text = '[{"a": [' + "{}, " * 7 + "{}]}]"
        path = tmp_path / "x.json"
        path.write_text(text, encoding="utf-8")
        with json_chunks(7) as mp:
            mp.setattr(dcs.records, "_JSON_CARRY_CHARS", carry)
            assert read_chunked(path) == ("declined" if declined else json.loads(text))

    @pytest.mark.parametrize("size", [*CHUNK_SIZES, None])
    @pytest.mark.parametrize(
        "text",
        [
            pytest.param('[{"a": "}bcdefghij"}]', id="cut-in-a-string"),
            pytest.param('[{"a": {"b": 1}, "cdefghij": 2}]', id="cut-in-an-object"),
            pytest.param(
                r'[{"a": "\\}"}, {"b\"}": "}\\\"}"}, {"c": [{"d": "}"}]}]',
                id="escapes-around-cuts",
            ),
            pytest.param('[{"a": "}}}}}}}}}}}}}}}}}}"}, {"b": 1}]', id="braces-in-a-row"),
        ],
    )
    def test_reader_cuts_again(self, tmp_path, text, size):
        # a cut inside a string moves back before it, and one inside an
        # object is carried to the next chunk
        path = tmp_path / "x.json"
        path.write_text(text, encoding="utf-8")
        with json_chunks(size):
            assert read_chunked(path) == dcs.records.read_json(path)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("[" + RECORD % ("a", 1) + "]\n", id="one-record"),
            pytest.param(
                "[" + ", ".join(
                    RECORD % (i, 1 + n % 2)
                    for n, i in enumerate(("a}", "b]", "c},", "d}]", "}", "]"))
                ) + "]",
                id="brackets-in-ids",
            ),
            pytest.param(
                "[ " + " \n ,\t".join(
                    RECORD % (i, 1 + n % 2) for n, i in enumerate("abc")
                ) + " \r\n]",
                id="spaces-around-commas",
            ),
            pytest.param(
                "[" + ", ".join([RECORD % ("a", 1), RECORD % ("b", 2)])
                + "\n]\n\t \r\n",
                id="spaces-after-the-bracket",
            ),
        ],
    )
    def test_every_chunk_size_gives_the_elements(self, tmp_path, text):
        # every boundary, so also a last chunk of only "]" and whitespace
        path = tmp_path / "x.json"
        path.write_text(text, encoding="utf-8")
        expected = dcs.records.read_json(path)
        wrong = []
        for size in range(1, len(text) + 2):
            with json_chunks(size):
                if read_chunked(path) != expected:
                    wrong.append(size)
        assert wrong == []

    @pytest.mark.parametrize("size", [*CHUNK_SIZES, None])
    def test_braces_in_ids_stay_chunked(self, tmp_path, size):
        base = generate(benchmark_suite()[4].profile, 1_500)
        odd = ("r}", "}}", 'q"}', "\\}", "{}", "é}", "}\\")
        ids = [f"{odd[i % len(odd)]}{i}" for i in range(base.num_instances)]
        ds = make_dataset(base.probabilities, base.labels, ids)
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        with json_chunks(size) as mp:
            mp.setattr(dcs.data, "read_json", no_fallback)
            # about two records: a "}" in these ids is never followed by ","
            # or "]", so it is never a cut, and each cut falls at the end of
            # a record
            mp.setattr(dcs.records, "_JSON_CARRY_CHARS", 300)
            assert outcome(path) == ds.fingerprint()

    @pytest.mark.parametrize("size", [64, 4096])
    def test_chunk_ending_inside_an_id_loads_chunked(self, tmp_path, size):
        # the first chunk ends at the "}" inside the second id, which no ","
        # or "]" follows there, so the cut falls at the first record's end
        # and the file loads chunked under a carry cap of half a chunk
        head = "[" + RECORD % ("a", 1) + ", " + '{"id": "'
        padded = "x" * (size - 1 - len(head)) + "}b"
        text = "[" + ", ".join(
            [RECORD % ("a", 1), RECORD % (padded, 2), RECORD % ("c", 1)]
        ) + "]"
        assert text[size - 1] == "}" and text[size - 2] == "x"
        path = tmp_path / "ds.json"
        path.write_text(text, encoding="utf-8")
        with whole_file():
            expected = outcome(path)
        ds = make_dataset(np.full((3, 2), 0.5), [1, 2, 1], ["a", padded, "c"])
        assert expected == ds.fingerprint()
        with json_chunks(size) as mp:
            mp.setattr(dcs.data, "read_json", no_fallback)
            mp.setattr(dcs.records, "_JSON_CARRY_CHARS", size // 2)
            assert outcome(path) == expected

    @pytest.mark.parametrize("size", [*CHUNK_SIZES, None])
    def test_cuts_inside_ids_load_as_the_whole_file(self, tmp_path, size):
        # "}" then "," or "]" in an id looks like the end of a record: the
        # cut there does not parse and is carried, or the file is declined;
        # a newline in an id is written as the escape "\n", so "}\n," is
        # never such a cut
        base = generate(benchmark_suite()[4].profile, 1_500)
        odd = ("},", "}]", "} ,", "}\n,")
        ids = [f"{odd[i % len(odd)]}{i}" for i in range(base.num_instances)]
        ds = make_dataset(base.probabilities, base.labels, ids)
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        with whole_file():
            expected = outcome(path)
        assert expected == ds.fingerprint()
        with json_chunks(size):
            assert outcome(path) == expected

    @pytest.mark.parametrize("size", [*CHUNK_SIZES, None])
    @pytest.mark.parametrize(
        "field, value, message",
        [
            pytest.param("label", "x", "has non-integer label", id="string-label"),
            pytest.param(
                "probs", [0.25] * 4, "has 4 probabilities, expected 5",
                id="short-probs",
            ),
        ],
    )
    def test_bad_last_record_is_worded_without_a_whole_file_read(
        self, tmp_path, field, value, message, size
    ):
        # the chunked pass reads on to the end of the file, where no bad
        # JSON comes after the record, and raises the whole-file message
        ds = generate(benchmark_suite()[4].profile, 1_500)
        assert ds.num_classes == 5
        rows = zip(ds.instance_ids, ds.labels.tolist(), ds.probabilities.tolist())
        records = [{"id": i, "label": a, "probs": p} for i, a, p in rows]
        records[-1][field] = value
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(records), encoding="utf-8")
        expected = f"{path}: record 1500 {message}"
        with whole_file():
            assert outcome(path) == expected
        with json_chunks(size) as mp:
            mp.setattr(dcs.data, "read_json", no_fallback)
            assert outcome(path) == expected

    @pytest.mark.parametrize("size", [*CHUNK_SIZES, None])
    @pytest.mark.parametrize("content, message", JSON_CHUNK_CASES)
    def test_message_at_every_chunk_size(
        self, tmp_path, capsys, content, message, size
    ):
        path = tmp_path / "ds.json"
        path.write_bytes(content)
        with json_chunks(size):
            rc = main(["oracle", "--input", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        # replace, not format: an id in the message holds a brace
        assert capsys.readouterr().err == f"error: {message.replace('{path}', str(path))}\n"

    @pytest.mark.parametrize(
        "brace", [pytest.param("", id="plain-ids"), pytest.param("}", id="brace-ids")]
    )
    def test_peak_memory_is_under_half_the_whole_file(self, tmp_path, brace):
        path = tmp_path / "p5.json"
        ds = generate(benchmark_suite()[4].profile, 20_000)
        ids = [f"r{i}{brace}" for i in range(ds.num_instances)]
        save_dataset(make_dataset(ds.probabilities, ds.labels, ids), path)

        def traced(read):
            tracemalloc.start()
            try:
                ds = read(path)
                return tracemalloc.get_traced_memory()[1], ds.fingerprint()
            finally:
                tracemalloc.stop()

        with json_chunks(1 << 16) as mp:
            mp.setattr(dcs.data, "read_json", no_fallback)
            chunked_peak, chunked = traced(load_dataset)
        with whole_file():
            whole_peak, whole = traced(load_dataset)
        assert chunked == whole
        assert chunked_peak < whole_peak / 2


GOOD_RECORD = st.fixed_dictionaries(
    {
        "id": st.one_of(st.text(max_size=3), st.integers(), st.floats(allow_nan=False)),
        "label": st.integers(-1, 4),
        "probs": st.lists(
            st.one_of(CELLS, st.integers(0, 1)), min_size=3, max_size=3
        ),
    }
)
# for each part of a record, values of a type the loop rejects there, and
# labels past int64, which the loop leaves to the dataset's range check
ODD_JSON = {
    "id": st.one_of(st.booleans(), st.none(), st.lists(st.integers(), max_size=1)),
    "label": st.one_of(
        st.booleans(), st.floats(allow_nan=False), st.text(max_size=1), st.none(),
        st.sampled_from([2**63, -(2**63) - 1, 10**30]),
    ),
    "probs": st.one_of(
        st.text(max_size=2), st.none(), st.integers(), st.just({"a": 1})
    ),
    "cell": st.one_of(
        st.booleans(), st.text(max_size=1), st.none(), st.just(10**400),
        st.lists(st.floats(0, 1), max_size=1),
    ),
    "record": st.one_of(
        st.lists(st.integers(), max_size=3), st.text(max_size=2), st.integers(),
        st.none(),
    ),
}


@st.composite
def mutated_records(draw):
    """Chunks of dataset records, some of them mutated: a missing field, a
    field, a cell or the record swapped for a value of the wrong type, or a
    ragged probs list."""
    records = draw(st.lists(GOOD_RECORD, min_size=1, max_size=8))
    for r in draw(st.sets(st.integers(0, len(records) - 1), max_size=3)):
        kind = draw(st.sampled_from(["drop", "ragged", *ODD_JSON]))
        if kind == "drop":
            del records[r][draw(st.sampled_from(["id", "label", "probs"]))]
        elif kind == "ragged":
            del records[r]["probs"][draw(st.integers(0, 2)):]
        elif kind == "cell":
            records[r]["probs"][-1] = draw(ODD_JSON["cell"])
        elif kind == "record":
            records[r] = draw(ODD_JSON["record"])
        else:
            records[r][kind] = draw(ODD_JSON[kind])
    cuts = sorted(draw(st.sets(st.integers(1, len(records)), max_size=3)) | {0})
    return [records[a:b] for a, b in zip(cuts, [*cuts[1:], len(records)]) if a < b]


def plain_columns(chunks):
    """The ids, labels, probability bits and N of the records in ``chunks``
    read in plain Python, or the message ``_json_record_error`` gives for
    them as one list, numbered from 1."""
    records = [r for chunk in chunks for r in chunk]
    try:
        dcs.data._json_record_error(records, 0, None)
    except ValidationError as exc:
        return str(exc)
    labels = [r["label"] for r in records]
    cells = [float(p) for r in records for p in r["probs"]]
    return (
        [str(r["id"]) for r in records], labels, [int] * len(labels),
        struct.pack(f"{len(cells)}d", *cells), len(records[0]["probs"]),
    )


def columns(chunks):
    """``_json_columns``'s ids, labels, probability bits and N for
    ``chunks``, or the message of its ValidationError."""
    try:
        ids, labels, flat, n = dcs.data._json_columns(chunks)
    except ValidationError as exc:
        return str(exc)
    # int64, unless a label is past it
    in_int64 = isinstance(labels, np.ndarray)
    if in_int64:
        assert labels.dtype == np.int64
        labels = labels.tolist()
    assert in_int64 == all(-(2**63) <= label < 2**63 for label in labels)
    return ids, labels, [type(a) for a in labels], flat.tobytes(), n


class TestJsonColumns:
    """``_json_columns`` checks each chunk of records by column, and at a
    chunk outside the rules ``_json_record_error`` words the message of its
    first bad record."""

    @settings(deadline=None, max_examples=300)
    @given(chunks=mutated_records())
    def test_column_reader_rejects_where_the_loop_raises(self, chunks):
        # a chunk the reader rejects and the loop passes escapes as the
        # reader's own KeyError, TypeError, ValueError or OverflowError
        assert columns(chunks) == plain_columns(chunks)

    def test_a_rejected_chunk_never_loads(self, monkeypatch):
        # should the loop pass a chunk the checks reject, their error stands
        monkeypatch.setattr(dcs.data, "_json_record_error", lambda *args: None)
        with pytest.raises(ValueError, match="a record outside the rules"):
            dcs.data._json_columns([[{"id": "a", "label": True, "probs": [0.5, 0.5]}]])

    @settings(deadline=None, max_examples=100)
    @given(chunks=mutated_records())
    def test_load_gives_the_loop_outcome(self, fuzz_dir, chunks):
        records = [r for chunk in chunks for r in chunk]
        path = fresh_file(fuzz_dir, "json")
        path.write_text(json.dumps(records), encoding="utf-8")
        with whole_file():
            expected = outcome(path)
        for size in (7, None):
            with json_chunks(size):
                assert outcome(path) == expected


class TestSplit:
    def test_default_fraction_sizes(self):
        ds = make_dataset(
            np.full((100, 2), 0.5), np.tile([1, 2], 50)
        )
        split = split_dataset(ds, 0.05, seed=0)
        assert split.optimization_set.num_instances == 95
        assert split.dev_set.num_instances == 5

    def test_partition_is_exact(self):
        ds = make_dataset(np.full((40, 2), 0.5), np.tile([1, 2], 20))
        split = split_dataset(ds, 0.25, seed=3)
        opt_ids = set(split.optimization_set.instance_ids)
        dev_ids = set(split.dev_set.instance_ids)
        assert opt_ids | dev_ids == set(ds.instance_ids)
        assert opt_ids & dev_ids == set()

    def test_deterministic_per_seed(self):
        ds = make_dataset(np.full((30, 2), 0.5), np.tile([1, 2], 15))
        a = split_dataset(ds, 0.2, seed=7)
        b = split_dataset(ds, 0.2, seed=7)
        assert a.dev_set.instance_ids == b.dev_set.instance_ids
        c = split_dataset(ds, 0.2, seed=8)
        assert a.dev_set.instance_ids != c.dev_set.instance_ids

    def test_rejects_degenerate_fraction(self, four_row_dataset):
        with pytest.raises(ValidationError):
            split_dataset(four_row_dataset, 0.0, seed=0)
        with pytest.raises(ValidationError):
            split_dataset(four_row_dataset, 1.0, seed=0)

    def test_rejects_one_row(self):
        with pytest.raises(ValidationError, match="need at least 2 rows"):
            split_dataset(make_dataset([[0.5, 0.5]], [1]), 0.5, seed=0)

    @pytest.mark.parametrize(
        "seed, message",
        [
            # -1 ended in numpy's bare ValueError, True seeded as 1
            (-1, "seed must be a non-negative integer"),
            (True, "seeds must be integers, got True"),
            (1.5, "seeds must be integers, got 1.5"),
            ("1", "seeds must be integers, got '1'"),
        ],
    )
    def test_rejects_bad_seed(self, four_row_dataset, seed, message):
        with pytest.raises(ValidationError) as info:
            split_dataset(four_row_dataset, 0.5, seed)
        assert str(info.value) == message

    def test_numpy_int_seed_accepted(self, four_row_dataset):
        a = split_dataset(four_row_dataset, 0.5, np.int64(5))
        b = split_dataset(four_row_dataset, 0.5, 5)
        assert a.dev_set.instance_ids == b.dev_set.instance_ids

    @settings(deadline=None, max_examples=25)
    @given(
        m=st.integers(4, 60),
        frac_pct=st.integers(5, 95),
        seed=st.integers(0, 10),
    )
    def test_split_partition_property(self, m, frac_pct, seed):
        import math

        labels = [1 + (i % 2) for i in range(m)]
        ds = make_dataset(np.full((m, 2), 0.5), labels)
        frac = frac_pct / 100
        if math.ceil(m * (1.0 - frac)) == m:
            with pytest.raises(ValidationError):
                split_dataset(ds, frac, seed)
            return
        split = split_dataset(ds, frac, seed)
        n_opt = split.optimization_set.num_instances
        assert n_opt == math.ceil(m * (1.0 - frac))
        assert n_opt + split.dev_set.num_instances == m
        # parent row order preserved inside each part
        order = {rid: i for i, rid in enumerate(ds.instance_ids)}
        for part in (split.optimization_set, split.dev_set):
            idx = [order[rid] for rid in part.instance_ids]
            assert idx == sorted(idx)


# entries of every kind a caller might pass, in range or not: ints out to
# past +-2^64, floats (1.0 among them), bools, None and strings
ENTRIES = st.one_of(
    st.integers(-1, 6),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
)
INDEX_VECTORS = st.one_of(
    st.lists(ENTRIES, min_size=1, max_size=6),
    st.lists(ENTRIES, min_size=1, max_size=6).map(
        lambda v: np.array(v, dtype=object)
    ),
    hnp.arrays(
        st.one_of(hnp.integer_dtypes(), hnp.unsigned_integer_dtypes()),
        st.integers(1, 6),
        elements=st.integers(0, 7),
    ),
    hnp.arrays(
        st.one_of(
            hnp.integer_dtypes(),
            hnp.unsigned_integer_dtypes(),
            hnp.floating_dtypes(),
            hnp.boolean_dtypes(),
        ),
        st.integers(1, 6),
    ),
)


def accepted(values, top):
    """The drawn integers as Python ints if they form an index vector in
    1..top, else None."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        if values.dtype.kind not in "iu":
            return None
        items = values.tolist()
    else:
        items = list(values)
        if any(type(v) is bool or not isinstance(v, int) for v in items):
            return None
    return items if all(1 <= v <= top for v in items) else None


class TestIndexVectorRule:
    """Labels, selections and prediction counts accept the same vectors:
    the drawn integers come back exactly, and anything else is a
    ValidationError, never a TypeError, an OverflowError or a truncation."""

    @settings(deadline=None, max_examples=300)
    @given(values=INDEX_VECTORS, top=st.integers(2, 5))
    def test_one_rule_for_every_caller(self, values, top):
        m = len(values)
        catalog = FunctionSet(
            memberships=(TriangularMembership(0.0, 1.0, 1.0),),
            num_weights=top - 1,
        )
        callers = {
            "labels": lambda: LabeledDataset(
                np.full((m, top), 0.5), values, tuple(map(str, range(m)))
            ).labels.tolist(),
            "selection": lambda: list(validate_selection(catalog, values)),
            "accuracy": lambda: per_class_accuracy(values, values, top).tolist(),
        }
        outcomes = {}
        for name, call in callers.items():
            try:
                outcomes[name] = call()
            except ValidationError:
                outcomes[name] = None
        expected = accepted(values, top)
        assert outcomes["labels"] == expected
        assert outcomes["selection"] == expected
        if expected is None:
            assert outcomes["accuracy"] is None
        else:
            # 1.0 for every class among the values, NaN for the others
            accuracy = outcomes["accuracy"]
            assert [a == 1.0 for a in accuracy] == [
                j in expected for j in range(1, top + 1)
            ]
            assert all(a == 1.0 or math.isnan(a) for a in accuracy)


# a bad entry and its repr in the message
NON_NUMBERS = [
    # numpy would parse these
    pytest.param("0.5", "'0.5'", id="str"),
    pytest.param(b"0.5", "b'0.5'", id="bytes"),
    # numpy would read these as 1.0 and nan
    pytest.param(True, "True", id="bool"),
    pytest.param(None, "None", id="None"),
    pytest.param(1 + 0j, "(1+0j)", id="complex"),
]
WRONG_DTYPES = [
    pytest.param(np.array([0.5, 0.5]) > 0, "bool", id="bool"),
    pytest.param(np.array(["0.5", "0.5"]), "<U3", id="str"),
    pytest.param(np.array([0.5, 0.5], dtype=complex), "complex128", id="complex"),
]


class TestProbabilityRule:
    """``LabeledDataset`` and the correction kernels check probabilities
    through one helper, so they take the same values and word a bad one the
    same way: by row and class in a matrix, by entry in a vector, with no
    position for a scalar."""

    @pytest.mark.parametrize("bad, shown", NON_NUMBERS)
    def test_dataset_refuses_non_numbers(self, bad, shown):
        with pytest.raises(ValidationError) as info:
            LabeledDataset([[0.5, 0.5], [0.25, bad]], [1, 2], ("a", "b"))
        assert str(info.value) == f"non-numeric probability at row 2, class 2: {shown}"

    @pytest.mark.parametrize("bad, shown", NON_NUMBERS)
    def test_apply_selection_refuses_non_numbers(self, bad, shown):
        with pytest.raises(ValidationError) as info:
            apply_selection(default_function_set(), (1, 1), [0.25, bad])
        assert str(info.value) == f"non-numeric probability at entry 2: {shown}"

    @pytest.mark.parametrize("bad, shown", NON_NUMBERS)
    def test_eval_membership_refuses_non_numbers(self, bad, shown):
        with pytest.raises(ValidationError) as info:
            eval_membership(TriangularMembership(0.0, 1.0, 1.0), bad)
        assert str(info.value) == f"non-numeric probability: {shown}"

    @pytest.mark.parametrize("row, dtype", WRONG_DTYPES)
    def test_every_door_refuses_a_wrong_dtype(self, row, dtype):
        message = f"probabilities must be real, got dtype {dtype}"
        calls = [
            lambda: LabeledDataset(np.stack([row, row]), [1, 2], ("a", "b")),
            lambda: apply_selection(default_function_set(), (1, 1), row),
            lambda: eval_membership(TriangularMembership(0.0, 1.0, 1.0), row),
        ]
        for call in calls:
            with pytest.raises(ValidationError) as info:
                call()
            assert str(info.value) == message

    def test_real_numbers_of_any_type_are_taken(self):
        probs = [[1, 0], [np.float32(0.25), Fraction(3, 4)]]
        expected = np.array([[1.0, 0.0], [0.25, 0.75]])
        for values in (probs, np.array(probs, dtype=object)):
            ds = LabeledDataset(values, [1, 2], ("a", "b"))
            assert ds.probabilities.tobytes() == expected.tobytes()
            out = apply_selection(default_function_set(), (1, 1), values)
            assert out.tobytes() == expected.tobytes()
        assert eval_membership(TriangularMembership(0.0, 1.0, 1.0), np.uint8(1)) == 1.0

    def test_dataset_checks_its_shape_before_its_values(self):
        with pytest.raises(ValidationError) as info:
            LabeledDataset([["x", 0.5]], [1], ("a", "b"))
        assert str(info.value) == "expected 1 instance ids, got 2"

    def test_dataset_keeps_a_private_copy(self):
        probs = np.full((2, 2), 0.5)
        ds = LabeledDataset(probs, [1, 2], ("a", "b"))
        probs[0, 0] = 0.25
        assert ds.probabilities[0, 0] == 0.5

    @pytest.mark.parametrize("ids", ["ab", b"ab"], ids=["str", "bytes"])
    def test_one_string_is_not_a_list_of_ids(self, ids):
        # tuple("ab") would give the ids 'a' and 'b'
        with pytest.raises(ValidationError) as info:
            LabeledDataset([[0.5, 0.5], [0.2, 0.8]], [1, 2], ids)
        assert str(info.value) == "instance ids must be a sequence, not one string"

    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_one_message_whichever_door(self, data):
        m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(2, 5))
        dtype = data.draw(st.sampled_from([np.float16, np.float32, np.float64]))
        width = 8 * np.dtype(dtype).itemsize
        probs = data.draw(
            hnp.arrays(dtype, (m, n), elements=st.floats(0.0, 1.0, width=width))
        )
        fs, keep = default_function_set(), (1,) * n
        labels, ids = np.arange(m) % n + 1, tuple(map(str, range(m)))
        bits = np.asarray(probs, np.float64).tobytes()
        assert LabeledDataset(probs, labels, ids).probabilities.tobytes() == bits
        assert apply_selection(fs, keep, probs).tobytes() == bits

        r, c = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, n - 1))
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf, -0.25, 1.5]))
        probs[r, c] = bad
        if math.isfinite(bad):
            message = "probability out of [0, 1]{}: " + repr(bad)
        else:
            message = "non-finite probability{}"
        doors = {
            f" at row {r + 1}, class {c + 1}": [
                lambda: LabeledDataset(probs, labels, ids),
                lambda: apply_selection(fs, keep, probs),
            ],
            f" at entry {c + 1}": [lambda: apply_selection(fs, keep, probs[r])],
            "": [lambda: eval_membership(fs.memberships[0], probs[r, c])],
        }
        for where, calls in doors.items():
            for call in calls:
                with pytest.raises(ValidationError) as info:
                    call()
                assert str(info.value) == message.format(where)
