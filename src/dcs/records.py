"""The file formats of every file dcs writes, and of the JSON it reads.

``read_json`` is the package's one JSON reader. Whatever bytes a file holds,
it returns the parsed value or raises ``ValidationError`` with a one-line
message that starts with the file's path: bytes that are not UTF-8 (with
the offset of the first bad byte), malformed or truncated JSON, an integer
longer than Python's digit limit for string conversion, and arrays or
objects nested too deeply to parse. A missing or unreadable file raises
``OSError``.

``write_json``, ``write_json_rows`` and ``write_csv`` are the package's only
writers. JSON floats go out as ``repr``, so a write followed by a read
returns every value bit for bit; CSV cells go through ``csv.writer`` as they
are (floats as ``repr``, None as an empty cell). Each writes a sibling temp
file, ``.<name>.<pid>.tmp``, and ``os.replace``s it over the target, so a
reader sees the earlier file or the new one, never a half-written one, and
an interrupted write leaves the earlier file and no temp file. The new file
gets the umask's permissions, not the earlier file's. A symlink or device at
the target is not written through: the rename replaces it with a regular
file, or the write fails with an ``OSError`` (exit 4 from the CLI).

``Record`` gives a frozen dataclass its JSON form from its fields.
``to_dict`` lists them in declaration order, tuples as lists and nested
records as dicts; ``from_dict`` converts each value by the field's type
annotation and raises ``FieldError`` naming a missing or mistyped field.
A record that takes input built in Python runs the same rule on its own
fields (``_check_fields``), so what it holds saves and loads back as it is.
"""
from __future__ import annotations

import csv
import functools
import itertools
import json
import numbers
import os
import sys
import typing
from dataclasses import fields
from pathlib import Path

from .errors import PreconditionError, ValidationError

# a dataclass's fields and their types, in declaration order
_type_hints = functools.cache(typing.get_type_hints)
# rows ``write_json_rows`` encodes per ``json.dumps`` call
_JSON_SLICE = 256


class FieldError(ValidationError):
    """A record payload lacks a field or holds a value of the wrong type."""


class PathError(ValidationError):
    """A ValidationError whose message already starts with the file's path,
    so a loader that prefixes its errors with the path passes it on as is."""


def read_json(path: str | Path):
    """The parsed content of the JSON file at ``path``."""
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except json.JSONDecodeError as exc:
        detail = str(exc)
    except ValueError:
        # the one other ValueError json.load raises: int() past the digit limit
        detail = f"a number has more than {sys.get_int_max_str_digits()} digits"
    except RecursionError:
        detail = "nested too deeply"
    raise PathError(f"{path}: invalid JSON: {detail}")


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> PathError:
    # a decode error from a text stream counts from the start of the chunk it
    # was decoding; decode the whole file once more to get the file offset
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as whole:
        exc = whole
    return PathError(
        f"{path}: byte {exc.start} (0x{exc.object[exc.start]:02x}) "
        "is not valid UTF-8"
    )


def _replace(path: str | Path, dump) -> None:
    """Write ``path`` atomically: ``dump(fh)`` fills a sibling temp file,
    which then replaces ``path``; on any exception the temp file goes."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline="", encoding="utf-8") as fh:
            dump(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload) -> None:
    def dump(fh) -> None:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    _replace(path, dump)


def write_json_rows(path: str | Path, rows) -> None:
    """A JSON array of ``rows`` on one line, with the bytes ``json.dump``
    gives ``list(rows)`` at ``indent=None``.

    ``json.dump`` always runs the pure-Python encoder; ``json.dumps`` runs
    the C one. So the rows go through ``json.dumps`` ``_JSON_SLICE`` at
    a time, and neither the whole list nor the file's text is held at once.
    """

    def dump(fh) -> None:
        fh.write("[")
        rows_left = iter(rows)
        separator = ""
        while batch := list(itertools.islice(rows_left, _JSON_SLICE)):
            fh.write(separator)
            fh.write(json.dumps(batch)[1:-1])
            separator = ", "
        fh.write("]\n")

    _replace(path, dump)


def write_csv(path: str | Path, header, rows) -> None:
    """``header`` and then each of ``rows``, one CSV line each."""

    def dump(fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    _replace(path, dump)


def read_record(path: str | Path, cls, what: str):
    """``cls.from_dict`` of the JSON file at ``path``; a missing or mistyped
    field is reported as ``<path>: malformed <what>: <field problem>``, and
    a value that fails ``cls``'s own checks as ``<path>: invalid <what>:
    <problem>``, a ``PreconditionError`` too (a bad schedule in a file is
    bad input, not a solver precondition)."""
    payload = read_json(path)
    try:
        return cls.from_dict(payload)
    except FieldError as exc:
        raise ValidationError(f"{path}: malformed {what}: {exc}") from None
    except (ValidationError, PreconditionError) as exc:
        raise ValidationError(f"{path}: invalid {what}: {exc}") from None


class Record:
    """JSON form for a frozen dataclass, driven by its fields."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload, where: str = ""):
        """``where`` is the payload's field path in an enclosing record."""
        if not isinstance(payload, dict):
            raise _mistyped(where, "an object", payload)
        values = {}
        for name, tp in _type_hints(cls).items():
            key = f"{where}.{name}" if where else name
            if name not in payload:
                raise FieldError(f"missing field {key!r}")
            values[name] = _convert(tp, payload[name], key)
        return cls(**values)

    def _check_fields(self) -> None:
        """Put every field through ``from_dict``'s rule, in place: a numpy
        int or float becomes a Python one, a value of the wrong type raises
        ``FieldError`` naming the field."""
        for name, tp in _type_hints(type(self)).items():
            object.__setattr__(self, name, _convert(tp, getattr(self, name), name))


def _plain(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _convert(tp, value, where: str):
    """``value`` as type ``tp``: X | None, tuple[X, ...], tuple[X, Y],
    a Record, float (which takes integers too), int, bool, str or dict.

    A value of type ``tp`` itself is returned as it is. Otherwise int and
    float take any ``numbers.Integral`` or ``numbers.Real`` but a bool, and
    return a Python int or float, so a numpy scalar is converted too."""
    if type(value) is tp:
        return value
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else _convert(args[0], value, where)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise _mistyped(where, "an array", value)
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(args) != len(value):
            raise _mistyped(where, f"an array of {len(args)}", value)
        return tuple(
            _convert(a, v, f"{where}[{i}]")
            for i, (a, v) in enumerate(zip(args, value))
        )
    if issubclass(tp, Record):
        return tp.from_dict(value, where)
    if isinstance(value, bool) and tp is not bool:
        raise _mistyped(where, tp.__name__, value)
    if tp is float and isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:
            raise _mistyped(where, "within float range", value) from None
    if tp is int and isinstance(value, numbers.Integral):
        return int(value)
    raise _mistyped(where, tp.__name__, value)


def _mistyped(where: str, expected: str, value) -> FieldError:
    subject = f"field {where!r}" if where else "the top level"
    return FieldError(f"{subject} must be {expected}, got {value!r:.40}")
