"""The one-writer rule: only ``dcs.records`` writes files, and how it writes.

Every other module in ``src/dcs`` goes through ``records.write_json``,
``records.write_json_rows`` and ``records.write_csv``, which replace their
targets atomically. The scan
below reads each module's syntax tree and fails on any call that opens a
file for writing (or with a mode it cannot read), writes through
``write_text``/``write_bytes``, or calls ``json.dump`` or ``os.replace``.
"""
import ast
import json
from pathlib import Path

import pytest

from dcs.records import _JSON_SLICE, write_csv, write_json, write_json_rows

SRC = Path(__file__).resolve().parents[1] / "src" / "dcs"


def _writes(source: str) -> list[str]:
    """The file-writing calls in ``source``, as ``line N: <callee>``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):  # path.open(mode), json.dump
            name, owner, mode_at = func.attr, getattr(func.value, "id", None), 0
        elif isinstance(func, ast.Name):  # open(file, mode)
            name, owner, mode_at = func.id, None, 1
        else:
            continue
        modes = node.args[mode_at:mode_at + 1]
        modes += [kw.value for kw in node.keywords if kw.arg == "mode"]
        opens_for_writing = name == "open" and any(
            not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
            for m in modes
        )
        if (
            opens_for_writing
            or name in ("write_text", "write_bytes")
            or (owner, name) in (("json", "dump"), ("os", "replace"))
        ):
            found.append(f"line {node.lineno}: {ast.unparse(func)}")
    return found


def test_only_records_writes_files():
    offenders = {
        path.name: writes
        for path in sorted(SRC.glob("*.py"))
        if path.name != "records.py"
        and (writes := _writes(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_scan_finds_each_kind_of_write():
    sample = "\n".join(
        [
            "open(p, 'a')",
            "open(p, mode=m)",
            "p.open('w', newline='')",
            "p.write_bytes(b'')",
            "json.dump(x, fh)",
            "os.replace(a, b)",
            # reads, which the scan must leave alone
            "open(p)",
            "open('x.json', 'r')",
            "p.open(newline='', encoding='utf-8')",
            "json.load(fh)",
        ]
    )
    assert [w.split(":")[0] for w in _writes(sample)] == [
        f"line {n}" for n in range(1, 7)
    ]
    assert len(_writes((SRC / "records.py").read_text(encoding="utf-8"))) == 3


def test_symlink_at_target_is_replaced_not_followed(tmp_path):
    elsewhere = tmp_path / "elsewhere.txt"
    elsewhere.write_text("keep\n")
    for name, write in (
        ("out.json", lambda path: write_json(path, {"z": 0.5})),
        ("out.csv", lambda path: write_csv(path, ["z"], [[0.5]])),
    ):
        link = tmp_path / name
        link.symlink_to(elsewhere)
        write(link)
        assert not link.is_symlink()
        assert elsewhere.read_text() == "keep\n"
    assert (tmp_path / "out.json").read_text() == '{\n  "z": 0.5\n}\n'
    assert (tmp_path / "out.csv").read_bytes() == b"z\r\n0.5\r\n"


@pytest.mark.parametrize(
    "count", [0, 1, _JSON_SLICE - 1, _JSON_SLICE, _JSON_SLICE + 1,
              2 * _JSON_SLICE + 1]
)
def test_json_rows_bytes_equal_one_dump(tmp_path, count):
    # rows are encoded a slice at a time; the joins between slices must
    # leave the bytes of one json.dump of the whole list
    rows = [
        {"id": f"r{i}", "label": i % 3 + 1, "probs": [i / 7, -0.0, 1e-300]}
        for i in range(count)
    ]
    path = tmp_path / "rows.json"
    write_json_rows(path, iter(rows))
    expected = tmp_path / "expected.json"
    with expected.open("w", encoding="utf-8") as fh:
        json.dump(list(rows), fh, indent=None)
        fh.write("\n")
    assert path.read_bytes() == expected.read_bytes()
