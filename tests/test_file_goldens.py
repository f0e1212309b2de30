"""Byte goldens for the JSON and CSV files dcs writes.

Each file is produced from fixed seeds and compared byte for byte with its
copy in ``golden_files/``, so key order, indentation, float ``repr``, CSV
quoting and line endings and the trailing newline are all pinned. The
``wall_time`` of ``solve.json``, ``runs.csv`` and the ``report`` table
differs from run to run and is masked, and so are the run time and the
output directory in the stdout of ``optimize`` and ``apply`` and the input
path in ``apply``'s ``report.json``. The ``--help`` text of ``dcs`` and of
each subcommand is pinned at 80 columns, as argparse formats it. Re-record
(only when a format change is intended) with

    PYTHONPATH=src python tests/test_file_goldens.py --record
"""
import contextlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

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
COMMANDS = ("dcs", "optimize", "apply", "compare", "report", "oracle", "generate")
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
    "dev_baseline.json",
    "apply_report.json",
    "optimize_stdout.txt",
    "apply_stdout.txt",
    *(f"help_{command}.txt" for command in COMMANDS),
)
FAST = ["--init-temp", "100.0", "--alpha", "0.6", "--min-temp", "0.01"]
WALL_TIME = re.compile(rb'"wall_time": [^,\n]+')
RUN_TIME = re.compile(r"\(\d+\.\d+s\)")
DATASET = re.compile(rb'"dataset": "[^"\n]*"')


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


def _stdout(out: Path, *argvs: list[str]) -> bytes:
    """What ``main`` prints for each argv in turn, with the run time and the
    directory ``out`` masked."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for argv in argvs:
            assert main(argv) == 0
    text = RUN_TIME.sub("(<masked>s)", stdout.getvalue())
    return text.replace(str(out), "<out>").encode("utf-8")


def _help(command: str) -> bytes:
    """``dcs --help`` or ``dcs <command> --help`` at 80 columns."""
    argv = ["--help"] if command == "dcs" else [command, "--help"]
    stdout = io.StringIO()
    with (
        mock.patch.dict(os.environ, {"COLUMNS": "80"}),
        contextlib.redirect_stdout(stdout),
        pytest.raises(SystemExit) as exc,
    ):
        main(argv)
    assert exc.value.code == 0
    return stdout.getvalue().encode("utf-8")


def write_files(out: Path) -> dict[str, bytes]:
    """Every golden file, written into ``out`` by the library and the CLI."""
    train = out / "train.csv"
    save_dataset(generate(_profile(3, 3), 300), train)
    optimize_stdout = _stdout(out, ["optimize", "--input", str(train), "--seed",
                                    "0", "--out", str(out / "run"), *FAST])
    held = generate(_profile(3, 3), 40, replica=1)
    save_dataset(held, out / "held_out.csv")
    # class 2 absent: its accuracy cell is empty
    save_dataset(held.subset(np.flatnonzero(held.labels != 2)), out / "absent.csv")
    # the scheme's own optimization set: recorded best_z reproduced
    applied = (("held_out.csv", "app"), ("absent.csv", "app_absent"),
               ("run/optimization_set.json", "app_own"))
    apply_stdout = _stdout(out, *(
        ["apply", "--scheme", str(out / "run" / "scheme.json"),
         "--input", str(out / name), "--out", str(out / app)]
        for name, app in applied
    ))
    assert main(["compare", "--input", str(train), "--mode", "dcs,furud",
                 "--seed", "0,1", "--out", str(out / "cmp"), *FAST]) == 0
    solve = str(out / "run" / "solve.json")
    assert main(["report", solve, "--out", str(out / "solve_report.csv")]) == 0
    report_stdout = _stdout(out, ["report", solve])
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
        "dev_baseline.json": out / "run" / "dev_baseline.json",
        "apply_report.json": out / "app" / "report.json",
    }
    files = {name: path.read_bytes() for name, path in paths.items()}
    files["solve_report_stdout.csv"] = report_stdout
    files["optimize_stdout.txt"] = optimize_stdout
    files["apply_stdout.txt"] = apply_stdout
    files["apply_report.json"] = DATASET.sub(
        b'"dataset": "<masked>"', files["apply_report.json"]
    )
    for command in COMMANDS:
        files[f"help_{command}.txt"] = _help(command)
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
