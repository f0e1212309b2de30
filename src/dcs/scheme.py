"""Saved correction schemes: the selection plus everything needed to audit it.

A scheme file is self-describing JSON: the full function catalog, the
selected per-class indices, the objective weights and annealing schedule that
produced them, the achieved objective value, and a fingerprint of the
optimization dataset. Floats are written with ``repr`` precision, so save
followed by load reproduces every value bit-for-bit.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

from .annealing import AnnealConfig
from .corrections import (
    FunctionSet,
    catalog_from_dict,
    catalog_to_dict,
    validate_selection,
)
from .data import LabeledDataset
from .errors import PreconditionError, ValidationError
from .objective import ObjectiveWeights

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
        return {
            "version": SCHEME_VERSION,
            "num_classes": self.num_classes,
            "catalog": catalog_to_dict(self.catalog),
            "selection": list(self.selection),
            # field order is the file's key order
            "objective": asdict(self.objective),
            "anneal_config": asdict(self.anneal_config),
            "best_z": self.best_z,
            "dataset_fingerprint": {
                "num_instances": self.dataset_num_instances,
                "num_classes": self.dataset_num_classes,
                "sha256": self.dataset_sha256,
            },
        }


def save_scheme(scheme: CorrectionScheme, path: str | Path) -> None:
    """Write the scheme atomically: it goes to a sibling temp file that then
    replaces ``path``, so an interrupted save leaves any earlier file whole
    and never a half-written one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            json.dump(scheme.to_dict(), fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_scheme(path: str | Path) -> CorrectionScheme:
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    try:
        if payload["version"] != SCHEME_VERSION:
            raise ValidationError(
                f"{path}: unsupported scheme version {payload['version']!r}"
            )
        catalog = catalog_from_dict(payload["catalog"])
        obj = payload["objective"]
        cfg = payload["anneal_config"]
        fp = payload["dataset_fingerprint"]
        try:
            anneal_config = AnnealConfig(
                seed=int(cfg["seed"]),
                initial_temperature=float(cfg["initial_temperature"]),
                cooling_rate=float(cfg["cooling_rate"]),
                lambda1=float(cfg["lambda1"]),
                lambda2=float(cfg["lambda2"]),
                min_temperature=float(cfg["min_temperature"]),
                max_outer_loops=int(cfg["max_outer_loops"]),
            )
        except PreconditionError as exc:
            # a bad schedule in a file is bad input, not a solver precondition
            raise ValidationError(f"{path}: invalid anneal_config: {exc}") from None
        return CorrectionScheme(
            catalog=catalog,
            selection=tuple(int(k) for k in payload["selection"]),
            objective=ObjectiveWeights(
                beta=float(obj["beta"]),
                tau=float(obj["tau"]),
                enable_err=bool(obj["enable_err"]),
                enable_cobias=bool(obj["enable_cobias"]),
                enable_pmi=bool(obj["enable_pmi"]),
            ),
            anneal_config=anneal_config,
            best_z=float(payload["best_z"]),
            dataset_num_instances=int(fp["num_instances"]),
            dataset_num_classes=int(fp["num_classes"]),
            dataset_sha256=str(fp["sha256"]),
        )
    except (ValidationError, PreconditionError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed scheme file: {exc}") from None
