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

The parsers stream every row into flat lists (ids, int labels, and one list
of all probabilities, reshaped to (M, N) once at the end) and keep no list
per row. ``load_dataset`` runs either parser with CPython's cyclic garbage
collector paused, and restores the caller's setting whether the load returns
or raises. The parsers make no reference cycles, so the pause leaves nothing
behind for the collector. Without it, every older-generation collection
during a JSON load rescans the record dicts and probability lists that
``json.load`` has built, 2 x 10^5 containers for 10^5 rows. The writers
walk ``tolist()`` values rather than indexing numpy scalars row by row.
"""
from __future__ import annotations

import csv
import gc
import hashlib
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .records import PathError, _not_utf8, read_json, write_csv, write_json_rows

CSV_PROB_DIGITS = 12
# the types of a JSON number as ``json.load`` returns it
_JSON_NUMBERS = frozenset({float, int})


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
        M unique non-empty identifiers, one per row, order preserved.
    """

    probabilities: np.ndarray
    labels: np.ndarray
    instance_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        probs = np.array(self.probabilities, dtype=np.float64)
        try:
            labels = np.array(self.labels, dtype=np.int64)
        except OverflowError:
            # a label beyond int64 is out of range; as a Python int it
            # reaches the range check below, which reports its row
            labels = np.array(self.labels, dtype=object)
        ids = tuple(self.instance_ids)

        if probs.ndim != 2:
            raise ValidationError("probabilities must be a 2-d matrix")
        m, n = probs.shape
        if m < 1:
            raise ValidationError("dataset must contain at least one instance")
        if n < 2:
            raise ValidationError("dataset must cover at least two classes")
        if labels.shape != (m,):
            raise ValidationError(f"expected {m} labels, got {labels.shape}")
        if len(ids) != m:
            raise ValidationError(f"expected {m} instance ids, got {len(ids)}")

        if not np.all(np.isfinite(probs)):
            r, c = np.argwhere(~np.isfinite(probs))[0]
            raise ValidationError(
                f"non-finite probability at row {r + 1}, class {c + 1}"
            )
        bad = np.argwhere((probs < 0.0) | (probs > 1.0))
        if bad.size:
            r, c = bad[0]
            raise ValidationError(
                f"probability out of [0, 1] at row {r + 1}, class {c + 1}: "
                f"{float(probs[r, c])!r}"
            )
        bad_label = np.flatnonzero((labels < 1) | (labels > n))
        if bad_label.size:
            r = bad_label[0]
            raise ValidationError(
                f"label out of range 1..{n} at row {r + 1}: {labels[r]}"
            )
        if not all(ids) or len(set(ids)) != m:
            # name the first bad row
            seen: dict[str, int] = {}
            for r, ident in enumerate(ids):
                if not ident:
                    raise ValidationError(f"empty instance id at row {r + 1}")
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

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        """Dataset restricted to the given row indices, in the given order."""
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(
            probabilities=self.probabilities[idx],
            labels=self.labels[idx],
            instance_ids=tuple(self.instance_ids[i] for i in idx),
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
            probabilities=np.array(flat, dtype=np.float64).reshape(len(ids), n),
            labels=labels,
            instance_ids=tuple(ids),
        )
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except PathError:
        raise
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    finally:
        if collecting:
            gc.enable()


def _load_csv(path: Path) -> tuple[list[str], list[int], list[float], int]:
    """The ids, labels, flat probabilities and class count of a CSV file."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("empty file") from None
        except csv.Error as exc:
            raise ValidationError(f"header row: {exc}") from None
        if len(header) < 4 or header[0] != "id" or header[1] != "label":
            raise ValidationError("header must be id,label,p_1,...,p_N")
        n = len(header) - 2
        expected = [f"p_{j}" for j in range(1, n + 1)]
        if header[2:] != expected:
            raise ValidationError(f"probability columns must be named p_1..p_{n}")
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


def _load_json(path: Path) -> tuple[list[str], list[int], list[float], int]:
    """The ids, labels, flat probabilities and class count of a JSON file."""
    records = read_json(path)
    if not isinstance(records, list) or not records:
        raise ValidationError("expected a non-empty JSON array")
    n: int | None = None
    ids: list[str] = []
    labels: list[int] = []
    flat: list[float] = []
    # json.load builds plain dicts, lists and ints, so ``type(x) is`` tests
    # stand in for isinstance, and a boolean label is not an int
    for row_no, rec in enumerate(records, start=1):
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
            flat += map(float, probs)
        except OverflowError:
            # an integer too large for a float
            raise ValidationError(
                f"record {row_no} has a probability out of [0, 1]"
            ) from None
        # a number is read as its text; null, booleans, arrays and objects
        # would turn into 'None', 'True', '[1, 2]' or "{'a': 1}"
        if type(ident) is not str and type(ident) not in _JSON_NUMBERS:
            raise ValidationError(
                f"record {row_no} has an id that is not a string or a number"
            )
        ids.append(str(ident))
        labels.append(label)
    return ids, labels, flat, n


def save_dataset(
    ds: LabeledDataset, path: str | Path, fmt: str | None = None
) -> None:
    """Write ``ds`` to ``path`` in CSV or JSON form (inferred from suffix)."""
    path = Path(path)
    fmt = _infer_format(path, fmt)
    rows = zip(ds.instance_ids, ds.labels.tolist(), ds.probabilities.tolist())
    if fmt == "csv":
        n = ds.num_classes
        cell = f"%.{CSV_PROB_DIGITS}g"
        write_csv(
            path,
            ["id", "label"] + [f"p_{j}" for j in range(1, n + 1)],
            (
                [ident, label] + [cell % v for v in probs]
                for ident, label, probs in rows
            ),
        )
    else:
        write_json_rows(
            path,
            (
                {"id": ident, "label": label, "probs": probs}
                for ident, label, probs in rows
            ),
        )


def save_predictions(
    ds: LabeledDataset, predictions: np.ndarray, path: str | Path
) -> None:
    """Write a CSV with header ``id,label,prediction``, one row per instance."""
    preds = np.asarray(predictions, dtype=np.int64)
    if preds.shape != (ds.num_instances,):
        raise ValidationError(
            f"expected {ds.num_instances} predictions, got {preds.shape}"
        )
    write_csv(
        path,
        ["id", "label", "prediction"],
        zip(ds.instance_ids, ds.labels.tolist(), preds.tolist()),
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
