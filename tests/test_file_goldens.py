"""Byte goldens for the JSON and CSV files dcs writes.

Each file is produced from fixed seeds and compared byte for byte with its
copy in ``golden_files/``, so key order, indentation, float ``repr``, CSV
quoting and line endings and the trailing newline are all pinned. The
``wall_time`` of ``solve.json``, ``runs.csv`` and the ``report`` table
differs from run to run and is masked. Re-record (only when a format change
is intended) with

    PYTHONPATH=src python tests/test_file_goldens.py --record
"""
import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
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
    "optimization_set.json",
    "dev_set.json",
    "catalog.json",
    "profile.json",
    "trace.csv",
    "dev_report.csv",
    "predictions.csv",
    "report.csv",
    "report_absent_class.csv",
    "runs.csv",
    "summary.csv",
    "solve_report.csv",
    "solve_report_stdout.csv",
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


def _mask_csv_column(content: bytes, column: str) -> bytes:
    """``content`` with every cell of ``column`` below the header masked;
    the masked tables hold no quoted commas, so a plain split is exact."""
    lines = content.split(b"\r\n")
    col = lines[0].split(b",").index(column.encode())
    for i in range(1, len(lines)):
        if lines[i]:
            cells = lines[i].split(b",")
            cells[col] = b"<masked>"
            lines[i] = b",".join(cells)
    return b"\r\n".join(lines)


def write_files(out: Path) -> dict[str, bytes]:
    """Every golden file, written into ``out`` by the library and the CLI."""
    train = out / "train.csv"
    save_dataset(generate(_profile(3, 3), 300), train)
    assert main(["optimize", "--input", str(train), "--seed", "0",
                 "--out", str(out / "run"), *FAST]) == 0
    held = generate(_profile(3, 3), 40, replica=1)
    save_dataset(held, out / "held_out.csv")
    # class 2 absent: its accuracy cell is empty
    save_dataset(held.subset(np.flatnonzero(held.labels != 2)), out / "absent.csv")
    for name, app in (("held_out.csv", "app"), ("absent.csv", "app_absent")):
        assert main(["apply", "--scheme", str(out / "run" / "scheme.json"),
                     "--input", str(out / name), "--out", str(out / app)]) == 0
    assert main(["compare", "--input", str(train), "--mode", "dcs,furud",
                 "--seed", "0,1", "--out", str(out / "cmp"), *FAST]) == 0
    solve = str(out / "run" / "solve.json")
    assert main(["report", solve, "--out", str(out / "solve_report.csv")]) == 0
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["report", solve]) == 0
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
        "optimization_set.json": out / "run" / "optimization_set.json",
        "dev_set.json": out / "run" / "dev_set.json",
        "catalog.json": out / "catalog.json",
        "profile.json": out / "profile.json",
        "trace.csv": out / "run" / "trace.csv",
        "dev_report.csv": out / "run" / "dev_report.csv",
        "predictions.csv": out / "app" / "predictions.csv",
        "report.csv": out / "app" / "report.csv",
        "report_absent_class.csv": out / "app_absent" / "report.csv",
        "runs.csv": out / "cmp" / "runs.csv",
        "summary.csv": out / "cmp" / "summary.csv",
        "solve_report.csv": out / "solve_report.csv",
    }
    files = {name: path.read_bytes() for name, path in paths.items()}
    files["solve_report_stdout.csv"] = stdout.getvalue().encode("utf-8")
    files["solve.json"] = WALL_TIME.sub(
        b'"wall_time": "<masked>"', files["solve.json"]
    )
    for name in ("runs.csv", "solve_report.csv", "solve_report_stdout.csv"):
        files[name] = _mask_csv_column(files[name], "wall_time")
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
