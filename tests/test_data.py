"""Dataset ingestion, validation, serialization, and splitting."""
import contextlib
import csv
import gc
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcs import LabeledDataset, ValidationError, load_dataset, save_dataset
from dcs.data import save_predictions, split_dataset
from dcs.cli import main
from conftest import make_dataset


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
        ],
    )
    def test_first_bad_id_is_named(self, ids, message):
        with pytest.raises(ValidationError) as info:
            make_dataset(np.full((len(ids), 2), 0.5), [1] * len(ids), ids=ids)
        assert str(info.value) == message

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


# a bad byte past the text stream's first decode chunk, so that the error
# must name its offset in the file, not in the chunk
CSV_NOT_UTF8 = b"id,label,p_1,p_2\n" + b"r,1,0.5,0.5\n" * 2000 + b"s,2,\xff,0.5\n"
JSON_NOT_UTF8 = b'[{"id": "a\xff", "label": 1, "probs": [0.5, 0.5]}]'

# (file name, content, exit code, stderr message); "{path}" is the input file
LOADER_CASES = [
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


# bytes a mutation draws from besides arbitrary ones: the two formats'
# delimiters, quotes, digits and keyword letters
STRUCTURAL = b',"\r\n[]{}: 0123456789.-+eEnaNItrufl\\'
MUTATION = st.tuples(
    st.integers(0, 2**16),
    st.one_of(
        st.binary(max_size=3),
        st.lists(st.sampled_from(STRUCTURAL), max_size=3).map(bytes),
    ),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestLoaderFuzz:
    """Any bytes end in a dataset or a ValidationError, never another
    exception; the error's message starts with the path and names it once."""

    @pytest.mark.parametrize("suffix", ["csv", "json"])
    @settings(deadline=None, max_examples=150)
    @given(mutations=st.lists(MUTATION, min_size=1, max_size=4))
    def test_mutated_file_loads_or_is_rejected(
        self, fuzz_dir, suffix, mutations
    ):
        content = GOLDEN_CSV if suffix == "csv" else GOLDEN_JSON
        for at, replacement in mutations:
            at %= len(content)
            # replace one byte; an empty replacement deletes it
            content = content[:at] + replacement + content[at + 1:]
        # a fresh file each time: replacing or deleting a file written
        # moments before can stall for a tenth of a second on ext4
        path = fuzz_dir / f"{len(list(fuzz_dir.iterdir()))}.{suffix}"
        path.write_bytes(content)
        try:
            load_dataset(path)
        except ValidationError as exc:
            message = str(exc)
            assert message.startswith(f"{path}: ")
            assert message.count(str(path)) == 1


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
