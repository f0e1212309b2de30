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
from .errors import PreconditionError, ValidationError
from .objective import ObjectiveWeights
from .records import FieldError, Record, read_json, write_json

SCHEME_VERSION = 1


@dataclass(frozen=True)
class CorrectionScheme:
    """A portable, auditable per-class correction assignment."""

    catalog: FunctionSet
    selection: tuple[int, ...]
    objective: ObjectiveWeights
    anneal_config: AnnealConfig
    best_z: float
    dataset_num_instances: int
    dataset_num_classes: int
    dataset_sha256: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.best_z):
            raise ValidationError(f"best_z must be finite, got {self.best_z!r}")
        entries = validate_selection(self.catalog, self.selection)
        object.__setattr__(self, "selection", entries)
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
        return _SchemeFile(
            SCHEME_VERSION,
            self.num_classes,
            self.catalog,
            self.selection,
            self.objective,
            self.anneal_config,
            self.best_z,
            _Fingerprint(
                self.dataset_num_instances,
                self.dataset_num_classes,
                self.dataset_sha256,
            ),
        ).to_dict()


@dataclass(frozen=True)
class _Fingerprint(Record):
    num_instances: int
    num_classes: int
    sha256: str


@dataclass(frozen=True)
class _SchemeFile(Record):
    """The layout of a scheme file; field order is the file's key order."""

    version: int
    num_classes: int
    catalog: FunctionSet
    selection: tuple[int, ...]
    objective: ObjectiveWeights
    anneal_config: AnnealConfig
    best_z: float
    dataset_fingerprint: _Fingerprint

    def __post_init__(self) -> None:
        if self.num_classes != len(self.selection):
            raise ValidationError(
                f"num_classes is {self.num_classes} but the selection covers "
                f"{len(self.selection)} classes"
            )


def save_scheme(scheme: CorrectionScheme, path: str | Path) -> None:
    """Write the scheme atomically (see ``records``): an interrupted save
    leaves any earlier file whole and never a half-written one."""
    write_json(path, scheme.to_dict())


def load_scheme(path: str | Path) -> CorrectionScheme:
    payload = read_json(path)
    version = payload.get("version") if isinstance(payload, dict) else None
    if version not in (None, SCHEME_VERSION):
        raise ValidationError(f"{path}: unsupported scheme version {version!r}")
    try:
        file = _SchemeFile.from_dict(payload)
        fp = file.dataset_fingerprint
        return CorrectionScheme(
            catalog=file.catalog,
            selection=file.selection,
            objective=file.objective,
            anneal_config=file.anneal_config,
            best_z=file.best_z,
            dataset_num_instances=fp.num_instances,
            dataset_num_classes=fp.num_classes,
            dataset_sha256=fp.sha256,
        )
    except FieldError as exc:
        raise ValidationError(f"{path}: malformed scheme file: {exc}") from None
    except PreconditionError as exc:
        # a bad schedule in a file is bad input, not a solver precondition
        raise ValidationError(f"{path}: invalid anneal_config: {exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"{path}: invalid scheme: {exc}") from None
