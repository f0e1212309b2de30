"""Saved correction schemes: the selection plus everything needed to audit it.

A scheme file is self-describing JSON: the full function catalog, the
selected per-class indices, the objective weights and annealing schedule that
produced them, the achieved objective value, and a fingerprint of the
optimization dataset. Floats are written with ``repr`` precision, so save
followed by load reproduces every value bit-for-bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .annealing import AnnealConfig
from .corrections import FunctionSet, validate_selection
from .data import LabeledDataset
from .errors import ValidationError
from .objective import ObjectiveWeights
from .records import Record, _convert, read_record, write_json

SCHEME_VERSION = 1
# the prefix of the fields a scheme file nests as "dataset_fingerprint"
_DATASET = "dataset_"


@dataclass(frozen=True)
class CorrectionScheme(Record):
    """A portable, auditable per-class correction assignment.

    Its file is its ``to_dict``: ``version`` and ``num_classes``, then the
    fields in declaration order, with the ``dataset_*`` ones nested as
    ``dataset_fingerprint``."""

    catalog: FunctionSet
    selection: tuple[int, ...]
    objective: ObjectiveWeights
    anneal_config: AnnealConfig
    best_z: float
    dataset_num_instances: int
    dataset_num_classes: int
    dataset_sha256: str

    def __post_init__(self) -> None:
        # the catalog first, since the selection is checked against it; the
        # selection before the other fields, by the index rule's messages
        object.__setattr__(
            self, "catalog", _convert(FunctionSet, self.catalog, "catalog")
        )
        entries = validate_selection(self.catalog, self.selection)
        object.__setattr__(self, "selection", entries)
        self._check_fields()
        if not math.isfinite(self.best_z):
            raise ValidationError(f"best_z must be finite, got {self.best_z!r}")
        if self.dataset_num_classes != len(entries):
            raise ValidationError(
                f"selection covers {len(entries)} classes but the dataset "
                f"fingerprint says {self.dataset_num_classes}"
            )

    @property
    def num_classes(self) -> int:
        return len(self.selection)

    def matches_dataset(self, ds: LabeledDataset) -> bool:
        """True when ``ds`` is byte-identical to the optimization set."""
        return (
            ds.num_instances == self.dataset_num_instances
            and ds.num_classes == self.dataset_num_classes
            and ds.fingerprint() == self.dataset_sha256
        )

    def to_dict(self) -> dict:
        own = super().to_dict()
        dataset = [name for name in own if name.startswith(_DATASET)]
        fingerprint = {name.removeprefix(_DATASET): own.pop(name) for name in dataset}
        head = {"version": SCHEME_VERSION, "num_classes": self.num_classes}
        return {**head, **own, "dataset_fingerprint": fingerprint}

    @classmethod
    def from_dict(cls, payload, where: str = ""):
        """The version first, then the fields only the file holds, then the
        scheme's own, and last whether ``num_classes`` fits the selection."""
        version = payload.get("version") if isinstance(payload, dict) else None
        if version not in (None, SCHEME_VERSION):
            raise ValidationError(f"unsupported scheme version {version!r}")
        file = _SchemeFile.from_dict(payload, where)
        fingerprint = file.dataset_fingerprint.to_dict()
        dataset = {_DATASET + name: v for name, v in fingerprint.items()}
        scheme = super().from_dict({**payload, **dataset}, where)
        if file.num_classes != scheme.num_classes:
            raise ValidationError(
                f"num_classes is {file.num_classes} but the selection covers "
                f"{scheme.num_classes} classes"
            )
        return scheme


@dataclass(frozen=True)
class _Fingerprint(Record):
    num_instances: int
    num_classes: int
    sha256: str


@dataclass(frozen=True)
class _SchemeFile(Record):
    """The fields a scheme file holds besides the scheme's own."""

    version: int
    num_classes: int
    dataset_fingerprint: _Fingerprint


def save_scheme(scheme: CorrectionScheme, path: str | Path) -> None:
    """Write the scheme atomically (see ``records``): an interrupted save
    leaves any earlier file whole and never a half-written one."""
    write_json(path, scheme.to_dict())


def load_scheme(path: str | Path) -> CorrectionScheme:
    return read_record(path, CorrectionScheme, "scheme")
