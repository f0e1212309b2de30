"""Labeled probability datasets: loading, validation, splitting, serialization.

Supported file formats:

* CSV with header ``id,label,p_1,...,p_N`` (UTF-8, ``.`` decimal separator).
* JSON: an array of objects ``{"id": str, "label": int, "probs": [float, ...]}``.

Probabilities are taken exactly as given; no renormalization happens anywhere
in the package, so rows may sum to any value as long as every entry lies in
[0, 1]. Labels are 1-based both on disk and in memory. The number of classes
is inferred from the header (CSV) or the first record (JSON).

CSV probability cells are written with 12 significant digits, which round-trips
values within 1e-12. JSON writes use ``repr`` floats and round-trip exactly.

A CSV file has two readers with one result. ``_load_csv_numpy`` parses the
body with numpy's C reader: one ``np.loadtxt`` call, streamed from the open
file after the header line into a structured (id, label, p) array.
``_load_csv_rows``, the reference reader, runs ``csv.reader`` and calls
``int()`` and ``float()`` on every cell. Both take the header through
``_csv_header``, the one header rule, which undoes csv quoting, so a header
that ``csv.QUOTE_ALL`` or R's ``write.csv`` writes passes it. The C reader
declines, and the row loop reads the whole file, unless the header passes
that rule, ``loadtxt`` raises no error and no warning, every line of the
body is one row or blank (no quoted line break), no line is longer than
``csv.field_size_limit()`` and no line holds one of the ASCII separators
that numpy strips around a number and ``int()`` and ``float()`` refuse. So
every message, row number and error precedence is the row loop's. A file
the C reader takes loads to the same bits: both readers call
``PyOS_string_to_double`` on the same ASCII text, and numpy refuses the
underscores and non-ASCII digits that ``int()`` and ``float()`` take.

A JSON file has one record reader, ``_json_columns``, and one message
finder, ``_json_record_error``. ``_load_json`` first runs
``records.read_json_chunks``, which parses the top-level array about 64 KiB
of text at a time, and the reader checks each chunk's records by column:
the fields through ``itemgetter``, one ``set(map(type, ...))`` each for
the labels, the ids and the probability cells against the rules below,
every probs length against the first record's and one ``fromlist`` per
record; the last three together refuse a probs that is not an array. No
Python code runs per record. Each chunk's records are freed before the
next is read. The labels are
collected as Python ints and converted to int64 once; a label past int64
is handed on as the list, and ``LabeledDataset``'s range check words it.
At a chunk outside the rules the message finder walks its records and
words the first bad one, numbered as in the file; it builds nothing. The
reader raises that message after it has run the chunked pass to the end
of the file, parsing and dropping the chunks after it, so a file whose
only fault is a bad record is parsed once. If the chunked reader fails,
on a text it declines or on bad JSON, before or after a bad record, the
file is parsed whole by ``read_json`` and read again by the same reader as
one chunk, so a syntax error after a bad record still wins. Only such a
file is parsed twice, the first time up to where the chunked pass
stopped. The rules: a
record is an object with ``id``, ``label`` and ``probs``; a label is an int
(not a bool); probs is an array of N numbers (ints or floats, not bools)
with N set by the first record; an id is a string or a number, taken as
its ``str``.

The row loop and the JSON reader stream every row into flat columns (ids,
int labels, and all probabilities, reshaped to (M, N) once at the end) and
keep nothing per row. The JSON reader stores the probabilities in an
``array("d")`` and the row loop in a list of floats. ``load_dataset`` runs
either format's parser with CPython's cyclic garbage collector paused, and
restores the caller's setting whether the load returns or raises. The
parsers make no reference cycles, so the pause leaves nothing behind for
the collector. Without it, every older-generation collection during a JSON
load rescans the record dicts and probability lists that ``json`` has
built.

``save_dataset`` and ``save_predictions`` write through
``records.write_rows``, which takes rendered rows. A dataset row is one
``%`` format, with ``%.12g`` cells in CSV and ``%r`` ones in JSON. A
prediction row is the quoted id plus the text of its (label, prediction)
cell, ``",{label},{prediction}\\r\\n"``, made once for each cell that occurs
and looked up by ``(label - 1) * N + prediction - 1``. Ids are quoted as
``csv.writer`` or ``json.dumps`` quote them, so the files keep those
writers' bytes. Rows go from numpy to Python ``_ROW_BATCH`` at a time
through ``tolist()`` and are zipped and joined in C, so no Python code runs
per row and neither the rows nor the file's text is held at once. A JSON
save costs about twice a CSV one, because shortest-``repr`` float
formatting sets its pace.
"""
from __future__ import annotations

import collections
import csv
import gc
import hashlib
import itertools
import math
import numbers
import operator
import struct
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .records import (
    _not_utf8,
    csv_fields,
    json_string,
    read_json,
    read_json_chunks,
    write_rows,
)

CSV_PROB_DIGITS = 12
# rows the writers convert, format and write at a time
_ROW_BATCH = 256
# characters of CSV body lines ``_load_csv_numpy`` reads per batch
_CSV_BATCH_CHARS = 1 << 16
# ASCII separators that numpy's number parsers strip as whitespace and
# int() and float() refuse
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
# the types of a JSON number as ``json.load`` returns it
_JSON_NUMBERS = frozenset({float, int})
# the types of a JSON id that ``str`` turns into its text
_JSON_IDS = _JSON_NUMBERS | {str}
# a dataset record's fields
_ID, _LABEL, _PROBS = map(operator.itemgetter, ("id", "label", "probs"))


def _require_integers(values, name: str, at: str | None = None) -> None:
    """Raise ValidationError at the first entry of ``values`` that is not a
    Python or numpy int, counted from 1 as ``{at} r`` when ``at`` is given.

    bool is an int subclass, but True is not an index: numpy would read
    [True, 2] as [1, 2].
    """
    if not set(map(type, values)) <= {int}:
        for r, v in enumerate(values):
            if type(v) is bool or not isinstance(v, (int, np.integer)):
                where = f" at {at} {r + 1}" if at else ""
                raise ValidationError(
                    f"{name}s must be integers, got {v!r}{where}"
                )


def _index_vector(
    values, top: int, name: str, at: str = "row", first: int = 1
) -> np.ndarray:
    """``values`` as a new 1-d int64 array of integers in first..top.

    The one rule for labels, predictions, selections, catalog indices and,
    0-based, the row indices of ``LabeledDataset.subset``. A
    numpy array must have an integer dtype; any other vector must hold
    Python or numpy ints (``_require_integers``), so a float (even 1.0), a
    bool, None or a string is rejected rather than truncated or read as 0 or
    1. Such a vector is compared as Python objects, before any cast, so an
    entry past int64 or a uint64 one is reported as it is. A ValidationError
    names the dtype or the first bad entry, counted from 1 as ``{at} r``.
    """
    if not isinstance(values, np.ndarray) or values.dtype == object:
        values = np.array(values, dtype=object)
        if values.ndim == 1:
            _require_integers(values, name, at)
    elif values.dtype.kind not in "iu":
        raise ValidationError(f"{name}s must be integers, got dtype {values.dtype}")
    if values.ndim != 1:
        raise ValidationError(f"{name}s must be a 1-d vector, got {values.shape}")
    bad = np.flatnonzero((values < first) | (values > top))
    if bad.size:
        raise ValidationError(
            f"{name} out of range {first}..{top} at {at} {bad[0] + 1}: "
            f"{values[bad[0]]}"
        )
    return values.astype(np.int64)


def _at(index: tuple) -> str:
    """Where an entry sits, counted from 1: `` at row r, class c`` in a
    matrix, `` at entry i`` in a vector and nothing for a scalar."""
    if len(index) == 2:
        return f" at row {index[0] + 1}, class {index[1] + 1}"
    return " at entry " + ", ".join(str(i + 1) for i in index) if index else ""


def _probabilities(values) -> np.ndarray:
    """``values`` as a float64 array of probabilities, each finite and in
    [0, 1].

    The one rule for dataset matrices and for the values the correction
    kernels take. A numpy array must have an integer or float dtype; any
    other input, an object array included, must hold real numbers that are
    not bools (``numbers.Real``, JSON's rule), so a string, a bool or None
    is refused rather than parsed or read as 1, 0 or NaN. A min/max test passes valid values; only a failure
    looks further, and names the first non-finite entry anywhere, else the
    first entry out of [0, 1] with its value. Every message names the dtype
    or says where its entry sits, as ``_at`` words it.
    """
    if not isinstance(values, np.ndarray) or values.dtype == object:
        values = np.array(values, dtype=object)
        if not set(map(type, values.flat)) <= _JSON_NUMBERS:
            for at, v in np.ndenumerate(values):
                if type(v) is bool or not isinstance(v, numbers.Real):
                    raise ValidationError(f"non-numeric probability{_at(at)}: {v!r}")
    elif values.dtype.kind not in "iuf":
        raise ValidationError(f"probabilities must be real, got dtype {values.dtype}")
    arr = np.asarray(values, dtype=np.float64)
    # negated, so that a NaN (which min and max propagate) fails it too
    if arr.size and not (np.min(arr) >= 0.0 and np.max(arr) <= 1.0):
        at = np.unravel_index(np.argmax(~np.isfinite(arr)), arr.shape)
        if not np.isfinite(arr[at]):
            raise ValidationError(f"non-finite probability{_at(at)}")
        at = np.unravel_index(np.argmax((arr < 0.0) | (arr > 1.0)), arr.shape)
        raise ValidationError(f"probability out of [0, 1]{_at(at)}: {arr[at].item()!r}")
    return arr


@dataclass(frozen=True)
class LabeledDataset:
    """An M x N matrix of class probabilities with 1-based true labels.

    Attributes
    ----------
    probabilities : np.ndarray
        Shape (M, N) float64, every entry in [0, 1]. Read-only after init.
    labels : np.ndarray
        Shape (M,) int64, values in {1..N}. Read-only after init.
    instance_ids : tuple[str, ...]
        M unique non-empty identifiers, one per row, order preserved, each
        text that UTF-8 can encode (no lone surrogate).
    """

    probabilities: np.ndarray
    labels: np.ndarray
    instance_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if isinstance(self.instance_ids, (str, bytes)):
            raise ValidationError("instance ids must be a sequence, not one string")
        try:
            shape = np.shape(self.probabilities)
        except ValueError:  # a ragged list, which numpy cannot shape
            shape = ()
        ids = tuple(self.instance_ids)

        if len(shape) != 2:
            raise ValidationError("probabilities must be a 2-d matrix")
        m, n = shape
        if m < 1:
            raise ValidationError("dataset must contain at least one instance")
        if n < 2:
            raise ValidationError("dataset must cover at least two classes")
        if len(ids) != m:
            raise ValidationError(f"expected {m} instance ids, got {len(ids)}")

        probs = _probabilities(self.probabilities).copy()
        # after the probabilities, so that a file reports them first
        labels = _index_vector(self.labels, n, "label")
        if labels.shape != (m,):
            raise ValidationError(f"expected {m} labels, got {labels.shape}")
        try:
            # in C: a TypeError on the first non-string, and a
            # UnicodeEncodeError on a lone surrogate, which no UTF-8 file can
            # hold (isascii reads a flag, so ASCII ids are not encoded)
            if not "".join(ids).isascii():
                "".join(ids).encode("utf-8")
            clean = all(ids) and len(set(ids)) == m
        except (TypeError, UnicodeEncodeError):
            clean = False
        if not clean:
            # name the first bad row
            seen: dict[str, int] = {}
            for r, ident in enumerate(ids):
                if not isinstance(ident, str):
                    raise ValidationError(
                        f"instance id at row {r + 1} is not a string: "
                        f"{ident!r}"
                    )
                if not ident:
                    raise ValidationError(f"empty instance id at row {r + 1}")
                # only a lone surrogate fails to come back
                if ident.encode("utf-8", "replace").decode("utf-8") != ident:
                    raise ValidationError(
                        f"instance id at row {r + 1} is not UTF-8 text: {ident!r}"
                    )
                if ident in seen:
                    raise ValidationError(
                        f"duplicate instance id {ident!r} at rows "
                        f"{seen[ident] + 1} and {r + 1}"
                    )
                seen[ident] = r

        probs.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "instance_ids", ids)

    @property
    def num_instances(self) -> int:
        return self.probabilities.shape[0]

    @property
    def num_classes(self) -> int:
        return self.probabilities.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        """Dataset restricted to the given row indices, in the given order.

        The indices take the index rule (``_index_vector``), 0-based: a 1-d
        vector of Python or numpy ints, each in 0..M-1, or an integer numpy
        array, which is checked by its dtype and one range test. A float, a
        bool (so a mask) or a nested list raises ValidationError.
        """
        idx = _index_vector(indices, self.num_instances - 1, "row", "entry", 0)
        return LabeledDataset(
            probabilities=self.probabilities[idx],
            labels=self.labels[idx],
            instance_ids=tuple(map(self.instance_ids.__getitem__, idx.tolist())),
        )

    def fingerprint(self) -> str:
        """SHA-256 hex digest over a canonical byte encoding of the content.

        Covers shape, ids, labels, and exact float64 probability bits, so any
        change to any field changes the digest.
        """
        h = hashlib.sha256()
        h.update(b"labeled-dataset-v1")
        h.update(struct.pack("<qq", self.num_instances, self.num_classes))
        for ident in self.instance_ids:
            raw = ident.encode("utf-8")
            h.update(struct.pack("<q", len(raw)))
            h.update(raw)
        h.update(np.ascontiguousarray(self.labels).astype("<i8").tobytes())
        h.update(np.ascontiguousarray(self.probabilities).astype("<f8").tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint optimization/dev partition of a parent dataset."""

    optimization_set: LabeledDataset
    dev_set: LabeledDataset


def _infer_format(path: Path, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("csv", "json"):
            raise ValidationError(f"unknown dataset format {fmt!r}")
        return fmt
    return "json" if path.suffix.lower() == ".json" else "csv"


def load_dataset(path: str | Path, fmt: str | None = None) -> LabeledDataset:
    """Load a dataset from ``path``.

    ``fmt`` may be "csv" or "json"; when omitted it is inferred from the file
    suffix (".json" means JSON, anything else CSV). An unknown ``fmt``,
    malformed content and content that fails ``LabeledDataset``'s checks
    raise ValidationError, whose message starts with the path and names the
    offending row; missing or unreadable files raise OSError. The cyclic
    garbage collector is off during the load and back in the caller's
    setting afterwards.
    """
    path = Path(path)
    collecting = gc.isenabled()
    gc.disable()
    try:
        parse = _load_json if _infer_format(path, fmt) == "json" else _load_csv
        ids, labels, flat, n = parse(path)
        return LabeledDataset(
            probabilities=np.asarray(flat, dtype=np.float64).reshape(len(ids), n),
            labels=labels,
            instance_ids=tuple(ids),
        )
    except UnicodeDecodeError as exc:
        problem = _not_utf8(path, exc)
    except ValidationError as exc:
        problem = exc
    finally:
        if collecting:
            gc.enable()
    raise ValidationError(f"{path}: {problem}")


def _load_csv(path: Path):
    """The ids, labels, probabilities and class count of a CSV file."""
    with path.open(newline="", encoding="utf-8") as fh:
        parsed = _load_csv_numpy(fh)
    return _load_csv_rows(path) if parsed is None else parsed


def _csv_header(reader) -> int:
    """The class count N of the header ``id,label,p_1,...,p_N``, the next
    row of ``reader``, a ``csv.reader``: the one header rule of both CSV
    readers. Any quoting that ``csv.reader`` undoes is allowed; a missing,
    malformed or misnamed header raises ValidationError."""
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("empty file") from None
    except csv.Error as exc:
        raise ValidationError(f"header row: {exc}") from None
    if len(header) < 4 or header[0] != "id" or header[1] != "label":
        raise ValidationError("header must be id,label,p_1,...,p_N")
    n = len(header) - 2
    if header[2:] != [f"p_{j}" for j in range(1, n + 1)]:
        raise ValidationError(f"probability columns must be named p_1..p_{n}")
    return n


def _load_csv_numpy(fh):
    """What ``_load_csv_rows`` returns for the CSV file open in ``fh``,
    read by numpy's C reader, or None if the file is one it declines (see
    the module docstring).

    A file that passes every check has one well-formed row on each line
    that is not blank and no field past the csv limit, and ``loadtxt``
    splits and unquotes it as ``csv.reader`` does.
    """
    limit = csv.field_size_limit()
    rows = 0  # lines that are not blank

    def body():
        nonlocal rows
        while batch := fh.readlines(_CSV_BATCH_CHARS):
            text = "".join(batch)
            if max(map(len, batch)) > limit or any(
                c in text for c in _NUMPY_ONLY_SPACE
            ):
                raise ValueError  # ends the parse, which declines
            rows += len(batch) - sum(map(batch.count, ("\n", "\r\n", "\r")))
            yield batch

    try:
        # the header rule reads one row, and numpy the lines after it
        n = _csv_header(csv.reader(fh))
        dtype = [("id", object), ("label", np.int64), ("p", np.float64, (n,))]
        with warnings.catch_warnings():
            # numpy 1.x reads "3.0" as the int 3 with a DeprecationWarning;
            # an empty body warns as well
            warnings.simplefilter("error")
            table = np.loadtxt(
                itertools.chain.from_iterable(body()), dtype=dtype,
                delimiter=",", comments=None, quotechar='"', ndmin=1,
            )
    except Exception:
        # a refused header or a decode error too: the row loop words it, or
        # an error before it
        return None
    # numpy skips blank lines, as the row loop does, and joins a quoted line
    # break into its row, where a field can outgrow every line
    if len(table) != rows:
        return None
    return table["id"].tolist(), table["label"], table["p"], n


def _load_csv_rows(path: Path) -> tuple[list[str], list[int], list[float], int]:
    """The ids, labels, flat probabilities and class count of a CSV file,
    read row by row: the reference reader, which decides every file
    ``_load_csv_numpy`` declines."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        n = _csv_header(reader)
        ids: list[str] = []
        labels: list[int] = []
        flat: list[float] = []
        row_no = 0
        try:
            # row_no counts data rows, as LabeledDataset's checks do
            for row in reader:
                if not row:
                    continue
                row_no += 1
                if len(row) != n + 2:
                    raise ValidationError(
                        f"row {row_no} has {len(row)} fields, expected {n + 2}"
                    )
                ids.append(row[0])
                try:
                    labels.append(int(row[1]))
                except ValueError:
                    raise ValidationError(
                        f"row {row_no} has non-integer label {row[1]!r}"
                    ) from None
                try:
                    flat += map(float, row[2:])
                except ValueError:
                    raise ValidationError(
                        f"row {row_no} has a non-numeric probability"
                    ) from None
        except csv.Error as exc:
            # raised by the reader while it reads the row after ``row_no``
            raise ValidationError(f"row {row_no + 1}: {exc}") from None
    if not ids:
        raise ValidationError("no data rows")
    return ids, labels, flat, n


def _load_json(path: Path) -> tuple[list[str], np.ndarray | list[int], array, int]:
    """The ids, labels, flat probabilities and class count of a JSON file,
    read and checked one chunk at a time, or as a whole when the chunked
    reader fails."""
    try:
        return _json_columns(read_json_chunks(path))
    except ValidationError:
        raise  # a bad record, in a file the chunked pass read to its end
    except (ValueError, RecursionError):
        # a text the chunked reader declines or a parse error: the
        # whole-file parse decides what is wrong, and what first
        pass
    records = read_json(path)
    if not isinstance(records, list) or not records:
        raise ValidationError("expected a non-empty JSON array")
    return _json_columns([records])


def _json_columns(chunks) -> tuple[list[str], np.ndarray | list[int], array, int]:
    """The ids, labels, flat probabilities and class count of the dataset
    records in ``chunks``, non-empty lists of records, checked by column.
    The labels come as int64, or as the list of ints when one is past int64,
    for ``LabeledDataset``'s range check to word. At a chunk outside the
    rules, ``_json_record_error`` words its first bad record, which is
    raised after the rest of ``chunks`` is read, so that their reader's
    error, as on bad JSON later in the file, comes first."""
    n: int | None = None
    ids: list = []
    labels: list[int] = []
    flat = array("d")
    id_types: set[type] = set()
    for records in chunks:
        before = len(ids)  # the records in the chunks before
        try:
            # KeyError: a missing field; TypeError: a record that is not an
            # object, or a probs without a length
            ids += map(_ID, records)
            labels += map(_LABEL, records)
            probs = list(map(_PROBS, records))
            id_types |= set(map(type, ids[before:]))
            if n is None:
                n = len(probs[0])
            if not (
                set(map(type, labels[before:])) == {int}
                and set(map(len, probs)) == {n}
                and _JSON_NUMBERS.issuperset(
                    map(type, itertools.chain.from_iterable(probs))
                )
                and _JSON_IDS.issuperset(id_types)
            ):
                raise ValueError("a record outside the rules")
            # TypeError: a probs that is not an array, such as "" when N is
            # 0; OverflowError: a probability past float range; one
            # fromlist per record, run out in C
            collections.deque(map(flat.fromlist, probs), 0)
        except (KeyError, TypeError, ValueError, OverflowError):
            try:
                _json_record_error(records, before, n)
            finally:
                # the rest of the pass, whose reader errors come first
                collections.deque(chunks, 0)
            raise  # not reached: the loop finds what the checks reject
    if id_types != {str}:
        ids = list(map(str, ids))
    try:
        # int64 labels skip the object-array check of Python ints
        return ids, np.array(labels, dtype=np.int64), flat, n
    except OverflowError:
        return ids, labels, flat, n


def _json_record_error(records, before: int, n: int | None) -> None:
    """Raise the ValidationError of the first record of ``records`` outside
    the rules, with the records numbered from ``before + 1`` and ``n`` the
    class count, or None to take it from the first record. Builds no
    column: it words the message of a chunk ``_json_columns`` rejects."""
    # json.load builds plain dicts, lists and ints, so ``type(x) is`` tests
    # stand in for isinstance, and a boolean label is not an int
    for row_no, rec in enumerate(records, start=before + 1):
        try:
            ident, label, probs = rec["id"], rec["label"], rec["probs"]
        except (KeyError, TypeError):
            # TypeError: the record is an array, a string or a scalar
            raise ValidationError(
                f"record {row_no} must have id, label, probs"
            ) from None
        if type(probs) is not list:
            raise ValidationError(f"record {row_no} probs must be a JSON array")
        if n is None:
            n = len(probs)
        if len(probs) != n:
            raise ValidationError(
                f"record {row_no} has {len(probs)} probabilities, expected {n}"
            )
        if type(label) is not int:
            raise ValidationError(f"record {row_no} has non-integer label")
        # float() would take a string or a boolean as well
        if not _JSON_NUMBERS.issuperset(map(type, probs)):
            raise ValidationError(f"record {row_no} has a non-numeric probability")
        try:
            # float() of every cell, kept nowhere
            collections.deque(map(float, probs), 0)
        except OverflowError:
            # an integer too large for a float
            raise ValidationError(
                f"record {row_no} has a probability out of [0, 1]"
            ) from None
        # a number is read as its text; null, booleans, arrays and objects
        # would turn into 'None', 'True', '[1, 2]' or "{'a': 1}"
        if type(ident) not in _JSON_IDS:
            raise ValidationError(
                f"record {row_no} has an id that is not a string or a number"
            )


def _rendered(ds: LabeledDataset, quote, row_format: str):
    """The rows ``row_format % (id, label, *probabilities[r])`` of ``ds``,
    the ids through ``quote``, in batches of ``_ROW_BATCH``: each converted
    to Python values with one ``tolist()`` per column, zipped and formatted
    in C."""
    for s in range(0, ds.num_instances, _ROW_BATCH):
        rows = slice(s, s + _ROW_BATCH)
        yield map(row_format.__mod__, zip(
            quote(ds.instance_ids[rows]),
            ds.labels[rows].tolist(),
            *ds.probabilities[rows].T.tolist(),
        ))


def save_dataset(
    ds: LabeledDataset, path: str | Path, fmt: str | None = None
) -> None:
    """Write ``ds`` to ``path`` in CSV or JSON form (inferred from suffix)."""
    path = Path(path)
    n = ds.num_classes
    if _infer_format(path, fmt) == "csv":
        names = ",".join(f"p_{j}" for j in range(1, n + 1))
        cells = ",".join([f"%.{CSV_PROB_DIGITS}g"] * n)
        write_rows(
            path, f"id,label,{names}\r\n",
            _rendered(ds, csv_fields, f"%s,%d,{cells}\r\n"),
        )
    else:
        probs = ", ".join(["%r"] * n)
        write_rows(
            path, "[",
            _rendered(
                ds, lambda ids: map(json_string, ids),
                f'{{"id": %s, "label": %d, "probs": [{probs}]}}',
            ),
            "]\n", ", ",
        )


class _CellText(dict):
    """The text ``",{label},{prediction}\\r\\n"`` of each prediction cell
    ``(label - 1) * N + prediction - 1``, made when the cell is first looked
    up, so the table holds only the cells that occur, at most one per row,
    and never N² entries."""

    def __init__(self, num_classes: int):
        super().__init__()
        self.num_classes = num_classes

    def __missing__(self, cell: int) -> str:
        label, prediction = divmod(cell, self.num_classes)
        text = self[cell] = f",{label + 1},{prediction + 1}\r\n"
        return text


def save_predictions(
    ds: LabeledDataset, predictions: np.ndarray, path: str | Path
) -> None:
    """Write a CSV with header ``id,label,prediction``, one row per instance.

    Each row is its quoted id and the text of its (label, prediction) cell,
    made once per cell that occurs (``_CellText``)."""
    preds = _index_vector(predictions, ds.num_classes, "prediction")
    if preds.shape != (ds.num_instances,):
        raise ValidationError(
            f"expected {ds.num_instances} predictions, got {preds.shape}"
        )
    n = ds.num_classes
    cells = (ds.labels - 1) * n + (preds - 1)
    suffix = _CellText(n).__getitem__
    write_rows(
        path, "id,label,prediction\r\n",
        (
            map(
                operator.add,
                csv_fields(ds.instance_ids[s:s + _ROW_BATCH]),
                map(suffix, cells[s:s + _ROW_BATCH].tolist()),
            )
            for s in range(0, ds.num_instances, _ROW_BATCH)
        ),
    )


def split_dataset(
    ds: LabeledDataset, dev_fraction: float, seed: int
) -> DatasetSplit:
    """Seeded uniform shuffle, then partition into optimization and dev parts.

    The optimization part gets ceil(M * (1 - dev_fraction)) rows and the dev
    part the remainder. Row membership is a uniform draw over permutations
    driven by ``seed``; within each part the parent row order is preserved.
    """
    if not 0.0 < dev_fraction < 1.0:
        raise ValidationError(
            f"dev_fraction must be in (0, 1), got {dev_fraction}"
        )
    _require_integers((seed,), "seed")
    if seed < 0:
        raise ValidationError("seed must be a non-negative integer")
    m = ds.num_instances
    if m < 2:
        raise ValidationError("dataset too small to split: need at least 2 rows")
    n_opt = math.ceil(m * (1.0 - dev_fraction))
    if m - n_opt < 1:
        raise ValidationError(
            f"dev fraction {dev_fraction} yields an empty dev set for M={m}"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    opt_idx = np.sort(perm[:n_opt])
    dev_idx = np.sort(perm[n_opt:])
    return DatasetSplit(
        optimization_set=ds.subset(opt_idx),
        dev_set=ds.subset(dev_idx),
    )
