"""Byte goldens for the JSON files dcs writes.

Each file is produced from fixed seeds and compared byte for byte with its
copy in ``golden_files/``, so key order, indentation, float ``repr`` and the
trailing newline are all pinned. ``solve.json``'s ``wall_time`` differs from
run to run and is masked. Re-record (only when a format change is intended)
with

    PYTHONPATH=src python tests/test_file_goldens.py --record
"""
import re
import sys
import tempfile
from pathlib import Path

import pytest

from dcs import (
    BiasProfile,
    default_function_set,
    generate,
    save_catalog,
    save_dataset,
    save_profile,
)
from dcs.cli import main

GOLDEN_DIR = Path(__file__).with_name("golden_files")
NAMES = (
    "scheme.json",
    "solve.json",
    "dev_report.json",
    "oracle.json",
    "catalog.json",
    "profile.json",
)
FAST = ["--init-temp", "100.0", "--alpha", "0.6", "--min-temp", "0.01"]
WALL_TIME = re.compile(rb'"wall_time": [^,\n]+')


def _profile(num_classes: int, seed: int) -> BiasProfile:
    priors = (1 / 3, 1 / 3, 1 / 3) if num_classes == 3 else (0.5, 0.5)
    targets = (0.9, 0.25, 0.85) if num_classes == 3 else (0.9, 0.3)
    return BiasProfile(
        num_classes=num_classes,
        class_priors=priors,
        target_accuracy=targets,
        confusion_temperature=1.0,
        seed=seed,
    )


def write_files(out: Path) -> dict[str, bytes]:
    """Every golden file, written into ``out`` by the library and the CLI."""
    train = out / "train.csv"
    save_dataset(generate(_profile(3, 3), 300), train)
    assert main(["optimize", "--input", str(train), "--seed", "0",
                 "--out", str(out / "run"), *FAST]) == 0
    small = out / "small.csv"
    save_dataset(generate(_profile(2, 5), 50), small)
    assert main(["oracle", "--input", str(small), "--mode", "dnip",
                 "--out", str(out / "orc")]) == 0
    save_catalog(default_function_set(), out / "catalog.json")
    save_profile(_profile(3, 9), out / "profile.json")
    paths = {
        "scheme.json": out / "run" / "scheme.json",
        "solve.json": out / "run" / "solve.json",
        "dev_report.json": out / "run" / "dev_report.json",
        "oracle.json": out / "orc" / "oracle.json",
        "catalog.json": out / "catalog.json",
        "profile.json": out / "profile.json",
    }
    files = {name: path.read_bytes() for name, path in paths.items()}
    files["solve.json"] = WALL_TIME.sub(
        b'"wall_time": "<masked>"', files["solve.json"]
    )
    return files


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    return write_files(tmp_path_factory.mktemp("goldens"))


@pytest.mark.parametrize("name", NAMES)
def test_file_bytes(written, name):
    assert written[name] == (GOLDEN_DIR / name).read_bytes()


def _record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in write_files(Path(tmp)).items():
            (GOLDEN_DIR / name).write_bytes(content)
    print(f"recorded {len(NAMES)} files -> {GOLDEN_DIR}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_file_goldens.py --record")
    _record()
