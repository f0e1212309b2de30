"""Shared fixtures: tiny hand-checkable datasets and small catalogs."""
import platform

import numpy as np
import pytest

from dcs import FunctionSet, LabeledDataset, TriangularMembership


def pytest_report_header(config):
    # golden traces and the pairwise-sum pin hold bit for bit only on the
    # numpy they were recorded with (RNG streams, summation order)
    return f"python {platform.python_version()}, numpy {np.__version__}"


def make_dataset(probs, labels, ids=None) -> LabeledDataset:
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if ids is None:
        ids = tuple(f"r{i}" for i in range(len(labels)))
    return LabeledDataset(
        probabilities=probs, labels=labels, instance_ids=tuple(ids)
    )


@pytest.fixture
def four_row_dataset() -> LabeledDataset:
    # raw argmax gives preds (1, 1, 2, 2) against labels (1, 2, 2, 2):
    # one error, A_1 = 1, A_2 = 2/3
    return make_dataset(
        [
            [0.9, 0.1],
            [0.8, 0.2],
            [0.3, 0.7],
            [0.4, 0.6],
        ],
        [1, 2, 2, 2],
    )


@pytest.fixture
def tiny_catalog() -> FunctionSet:
    # Don't Change, one left shoulder, two weights (0.5 and 1.0)
    return FunctionSet(
        memberships=(
            TriangularMembership(0.0, 1.0, 1.0),
            TriangularMembership(0.0, 0.0, 0.6),
        ),
        num_weights=2,
    )
