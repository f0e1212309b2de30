"""Shared fixtures: tiny hand-checkable datasets and small catalogs."""
import platform

import numpy as np
import pytest
from hypothesis import strategies as st

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


# bytes a mutation draws from besides arbitrary ones: the delimiters,
# quotes, digits and keyword letters of CSV and JSON
STRUCTURAL = b',"\r\n[]{}: 0123456789.-+eEnaNItrufl\\'
# 1 to 4 mutations; each replaces the byte at an offset with 0 to 3 bytes,
# so it deletes, replaces or inserts
MUTATIONS = st.lists(
    st.tuples(
        st.integers(0, 2**16),
        st.one_of(
            st.binary(max_size=3),
            st.lists(st.sampled_from(STRUCTURAL), max_size=3).map(bytes),
        ),
    ),
    min_size=1,
    max_size=4,
)


def mutated(content: bytes, mutations) -> bytes:
    for at, replacement in mutations:
        at %= len(content)
        content = content[:at] + replacement + content[at + 1:]
    return content


def fresh_file(directory, suffix):
    # a fresh file each time: replacing or deleting a file written
    # moments before can stall for a tenth of a second on ext4
    return directory / f"{len(list(directory.iterdir()))}.{suffix}"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# allowed index sets that break the index rule under the stock catalog (49
# functions), each with the message of the index rule that every search
# entry point raises as ValidationError
BAD_ALLOWED = [
    ((1.7, 2.2, True), "allowed values must be integers, got 1.7 at entry 1"),
    ((2, True), "allowed values must be integers, got True at entry 2"),
    ((1, 50), "allowed value out of range 1..49 at entry 2: 50"),
    ((1, 0), "allowed value out of range 1..49 at entry 2: 0"),
    ((1, np.float64(3.0)),
     f"allowed values must be integers, got {np.float64(3.0)!r} at entry 2"),
]


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
