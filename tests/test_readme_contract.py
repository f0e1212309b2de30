"""The README's error contract, run row by row.

README.md's "File formats" section holds one table between
``<!-- contract -->`` and ``<!-- /contract -->``, with the columns
Case | Raises | Exit | Message. Its Case is one of three kinds:

* a ``dcs …`` command, run through ``dcs.cli.main``: the exit code must be
  the row's, stderr the one line ``error: <Message>``, and ``{out}`` must
  not exist afterwards, since a refused run writes nothing;
* a file: its bytes (``name`` = ``bytes``, where ``\\n`` is a line break),
  or a fixture file with fields set (``name`` = ``{scheme}`` with
  ``field`` = ``json value``, ...). It is written under its name, read by
  the command ``READERS`` gives for that name, and checked as a command
  is; a file that fails to load (exit 2) is named first in the message;
* one Python call, evaluated over ``NAMES``: it must raise the row's
  exception class, with ``str(exc)`` equal to the Message, and its Exit
  is "—".

``{train}``, ``{profile}``, ``{scheme}`` and ``{opt}`` stand for the
fixture files of ``workdir`` (``FILES``) and ``{out}`` for a directory of
the row's own. A row the code does not produce fails, and so does a README
without the table.
"""
import builtins
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import dcs
from dcs import (
    annealing, cli, corrections, data, errors, objective, oracle, records, scheme, synth,
)
from dcs.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
HEADER = ["Case", "Raises", "Exit", "Message"]
# the exit code of each error family in dcs.cli.main
EXITS = {"ValidationError": "2", "PreconditionError": "3", "OSError": "4"}
FAMILIES = {code: family for family, code in EXITS.items()}
# the command that reads a file row's file, by its name; any other name is
# a dataset
READERS = {
    "scheme.json": "dcs apply --scheme scheme.json --input {opt} --out {out}",
    "cat.json": "dcs optimize --input {train} --catalog cat.json --seed 0 --out {out}",
}
DATASET_READER = "dcs apply --scheme {scheme} --input {file} --out {out}"
# the fixture files, relative to ``workdir``
FILES = {
    "{train}": "train.csv",
    "{profile}": "p.json",
    "{scheme}": "run/scheme.json",
    "{opt}": "run/optimization_set.json",
}
PROFILE = synth.BiasProfile(
    num_classes=3,
    class_priors=(1 / 3, 1 / 3, 1 / 3),
    target_accuracy=(0.9, 0.25, 0.85),
    confusion_temperature=1.0,
    seed=3,
)
NAMES = {
    **{name: getattr(dcs, name) for name in dcs.__all__},
    **{m.__name__.rpartition(".")[2]: m for m in (
        annealing, cli, corrections, data, errors, objective, oracle, records,
        scheme, synth,
    )},
    "np": np,
    "fs": dcs.default_function_set(),
    "ds": dcs.LabeledDataset(
        [[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]], [1, 2, 2], ("a", "b", "c")
    ),
    "rng": np.random.default_rng(0),
}
CODE = re.compile(r"`([^`]*)`")
FILE_ROW = re.compile(r"`([\w.]+)` = (.*)")
EDITED = re.compile(r"`(\{\w+\})` with (.*)")


def contract_rows(text: str) -> list[list[str]]:
    """The rows of the table between the contract markers, as their four
    cells, or [] when the markers or the table are missing."""
    found = re.search(
        r"^<!-- contract -->$(.*?)^<!-- /contract -->$", text, re.M | re.S
    )
    if found is None:
        return []
    lines = [line for line in found.group(1).splitlines() if line.startswith("|")]
    rows = [[cell.strip() for cell in line.strip("|").split(" | ")] for line in lines]
    if len(rows) < 3 or rows[0] != HEADER:
        return []
    return rows[2:]


ROWS = contract_rows(README.read_text(encoding="utf-8"))


def _code(cell: str) -> str:
    """A cell that is one code span, unwrapped."""
    return CODE.fullmatch(cell).group(1)


def _fill(text: str, out: Path) -> str:
    for name, path in FILES.items():
        text = text.replace(name, path)
    return text.replace("{out}", str(out))


def _set_field(payload: dict, dotted: str, value) -> None:
    *outer, last = dotted.split(".")
    for key in outer:
        payload = payload[key]
    payload[last] = value


def _write_file_row(name: str, content: str) -> None:
    """Write a file row's file into the current directory."""
    edited = EDITED.fullmatch(content)
    if edited is None:
        Path(name).write_bytes(_code(content).replace("\\n", "\n").encode("utf-8"))
        return
    source, edits = edited.groups()
    payload = json.loads(Path(FILES[source]).read_text(encoding="utf-8"))
    for edit in edits.split(", "):
        field, value = CODE.findall(edit)
        _set_field(payload, field, json.loads(value))
    Path(name).write_text(json.dumps(payload), encoding="utf-8")


def outcome(case: str, raises: str, out: Path, capsys) -> tuple[str, str, str]:
    """(error family, exit code, message) that the row's case gives.

    A command's family is the one its exit code stands for, and its message
    is stderr with one ``error: `` in front and one line break after; a
    call's family is ``raises`` when the exception is one, else its own
    class name, and its exit is "—"."""
    file_row = FILE_ROW.fullmatch(case)
    if file_row is not None:
        name, content = file_row.groups()
        _write_file_row(name, content)
        command = READERS.get(name, DATASET_READER).replace("{file}", name)
    elif case.startswith("`dcs "):
        command = _code(case)
    else:
        expected = getattr(dcs, raises, None) or getattr(builtins, raises)
        try:
            eval(_code(case), dict(NAMES))
        except expected as exc:
            return raises, "—", str(exc)
        except Exception as exc:
            return type(exc).__name__, "—", str(exc)
        return "no error", "—", ""
    code = main(shlex.split(_fill(command, out))[1:])
    err = capsys.readouterr().err
    if err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"):
        err = err[len("error: "):-1]
    return FAMILIES.get(str(code), "no error"), str(code), err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A 200-row, three-class set, its profile, and a scheme fitted on it
    in three outer loops, with the optimization set that fit wrote."""
    root = tmp_path_factory.mktemp("contract")
    dcs.save_dataset(synth.generate(PROFILE, 200), root / FILES["{train}"])
    synth.save_profile(PROFILE, root / FILES["{profile}"])
    fit = ["optimize", "--input", str(root / FILES["{train}"]), "--seed", "0",
           "--max-outer", "3", "--out", str(root / "run")]
    assert main(fit) == 0
    return root


def test_readme_holds_the_table():
    assert ROWS, "README.md has no contract table between its markers"


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_row(row, workdir, tmp_path, monkeypatch, capsys):
    case, raises, exit_code, message = row
    monkeypatch.chdir(workdir)
    capsys.readouterr()
    out = tmp_path / "out"
    raises = _code(raises)
    got = outcome(case, raises, out, capsys)
    message = _code(message)
    if exit_code != "—":
        assert EXITS[raises] == exit_code, "a command's family must match its exit"
        message = _fill(message, out)
    file_row = FILE_ROW.fullmatch(case)
    if file_row is not None and exit_code == "2":
        # a file that fails to load is named first
        assert message.startswith(f"{file_row.group(1)}: ")
    assert got == (raises, exit_code, message)
    # a refused run writes nothing
    assert not out.exists()
