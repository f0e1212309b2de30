"""The file formats of every file dcs writes, and of the JSON it reads.

``read_json`` and ``read_json_chunks`` are the package's JSON readers.
``read_json`` reads a file whole. Whatever bytes a file holds, it returns
the parsed value or raises ``ValidationError`` with a one-line message that
starts with the file's path: bytes that are not UTF-8 (with the offset of
the first bad byte), malformed or truncated JSON, an integer longer than
Python's digit limit for string conversion, and arrays or objects nested
too deeply to parse. A missing or unreadable file raises ``OSError``.
``read_json_chunks`` parses a top-level array of objects one chunk of text
at a time, so that a dataset's records need not all be held at once. It
cuts each chunk after a ``}`` that JSON whitespace and then ``,``, ``]`` or
the end of the text read so far follow, and keeps only cuts that parse. It
gives ``read_json``'s elements or raises, without a message of its own: a
caller that gets an error, which bad JSON or a text the reader declines
gives, reads the file again with ``read_json``, which decides what is
wrong. A file that parses is read once.

``write_json``, ``write_csv`` and ``write_rows`` are the package's only
writers. JSON floats go out as ``repr``, so a write followed by a read
returns every value bit for bit; CSV cells go through ``csv.writer`` as they
are (floats as ``repr``, None as an empty cell). ``write_rows`` writes the
large files, datasets and predictions, from rows its callers render; they
spell out the bytes ``csv.writer`` or ``json.dump`` would give the same
row, with ids quoted by ``csv_fields`` or ``json_string``.
Each writes a sibling temp file, ``.<name>.<pid>.tmp``, and ``os.replace``s
it over the target, so a reader sees the earlier file or the new one, never
a half-written one, and an interrupted write leaves the earlier file and no
temp file. The new file gets the umask's permissions, not the earlier
file's. A symlink or device at the target is not written through: the
rename replaces it with a regular file, or the write fails with an
``OSError`` (exit 4 from the CLI). No write calls ``fsync``. On ext4,
whose default ``auto_da_alloc`` writes the new data out before a rename
replaces a file, that makes replacing a file written moments before slow;
unlinking the target first would avoid the stall, but after a crash it can
leave no file, and after a power loss an empty one.

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
import json
import numbers
import os
import re
import sys
import typing
from dataclasses import fields
from json.encoder import encode_basestring_ascii as json_string
from pathlib import Path

from .errors import PreconditionError, ValidationError

# a dataclass's fields and their types, in declaration order
_type_hints = functools.cache(typing.get_type_hints)
# characters that make ``csv.writer``'s default dialect quote a field
_CSV_QUOTED = ',"\r\n'
# characters of a JSON file ``read_json_chunks`` reads at a time
_JSON_CHUNK_CHARS = 1 << 16
# the whitespace JSON allows between tokens
_JSON_SPACE = " \t\n\r"
# a "}" that can end an array element: JSON whitespace, then "," or "]" or
# the end of the text read so far
_JSON_ELEMENT_END = re.compile(r"\}[ \t\n\r]*(?:[,\]]|\Z)")
# characters of text that ``read_json_chunks`` carries over cuts that do
# not parse before it declines a file
_JSON_CARRY_CHARS = 4 * _JSON_CHUNK_CHARS


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


def read_json_chunks(path: str | Path):
    """The elements of the JSON array in the file at ``path``, yielded as
    non-empty lists, one ``json.loads`` of ``_JSON_CHUNK_CHARS`` characters
    or so at a time. On any text it does not take, which need not be bad
    JSON, it raises a ``ValueError``, or a ``RecursionError`` on nesting too
    deep to parse.

    The file is opened as ``read_json`` opens it, so both parse the same
    characters. Each segment runs to the last ``}`` read so far that can end
    an element (``_JSON_ELEMENT_END``): only JSON whitespace and then ``,``,
    ``]`` or the end of the text read so far follow it. After its leading
    ``[`` or ``,``, the segment parses as the body of one array, which it
    can only when the cut ends an element, not inside a string or a nested
    object. When the cut's ``}`` ends the text read so far, as where a
    chunk ends inside an id, and the segment does not parse, the ``}``
    before it that can end an element is tried once. When there is no such
    ``}`` or the segment does not parse, the text is kept and cut again
    with the next chunk that holds a ``}``, up to ``_JSON_CARRY_CHARS``
    characters of it: past that, the file is declined. So a ``}`` inside an
    id costs one more parse where a chunk ends at it, and nothing else
    unless ``,`` or ``]`` follows it there: then the cut costs one carried
    chunk, and ids that mostly hold ``},`` or ``}]`` get the file declined.
    A file that keeps failing costs a few parses of at most that much text
    more than one that fails at its first cut. Only JSON whitespace may
    come before the first ``[`` or a later ``,``, and only ``]`` and
    whitespace after the last segment.
    """
    with Path(path).open(encoding="utf-8") as fh:
        pieces: list[str] = []  # the text since the last cut
        opener = "["
        while chunk := fh.read(_JSON_CHUNK_CHARS):
            pieces.append(chunk)
            if "}" not in chunk:
                continue
            text = "".join(pieces)
            cut = _element_end(text, len(text))
            elements = _parse_segment(text, cut, opener)
            if elements is None and not text[cut:].strip(_JSON_SPACE):
                # the text ends at this "}", which may lie inside an id
                cut = _element_end(text, cut - 1)
                elements = _parse_segment(text, cut, opener)
            if elements is None:
                if len(text) > _JSON_CARRY_CHARS:
                    raise ValueError("no cut parses in the carried text")
                pieces = [text]
                continue
            yield elements
            pieces = [text[cut:]]
            opener = ","
        if opener == "[" or "".join(pieces).strip(_JSON_SPACE) != "]":
            raise ValueError("no object, or text after the last one")


def _element_end(text: str, end: int) -> int:
    """One past the last ``}`` before ``end`` in ``text`` that can end an
    element (``_JSON_ELEMENT_END``), or 0 if there is none."""
    cut = text.rfind("}", 0, end)
    while cut >= 0 and not _JSON_ELEMENT_END.match(text, cut):
        cut = text.rfind("}", 0, cut)
    return cut + 1


def _parse_segment(text: str, cut: int, opener: str) -> list | None:
    """The elements in ``text[:cut]``, which runs from an element's leading
    ``opener`` (after JSON whitespace) to a ``}``, or None if ``cut`` is 0
    or the text does not parse, as when the cut falls inside an element."""
    start = len(text) - len(text.lstrip(_JSON_SPACE))
    if text[start:start + 1] != opener:
        raise ValueError(f"a segment does not start with {opener!r}")
    try:
        return json.loads(f"[{text[start + 1:cut]}]") if cut else None
    except json.JSONDecodeError:
        return None


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


def write_rows(
    path: str | Path, head: str, batches, tail: str = "", separator: str = ""
) -> None:
    """``head``, then the rows (texts) of each of ``batches``, joined by
    ``separator``, then ``tail``.

    Each batch is joined and written at once, so the caller's batch size
    bounds the rows and the text held; no batch may be empty.
    """

    def dump(fh) -> None:
        fh.write(head)
        joint = ""
        for batch in batches:
            fh.write(joint + separator.join(batch))
            joint = separator
        fh.write(tail)

    _replace(path, dump)


def csv_fields(texts):
    """``texts`` as ``csv.writer``'s default dialect writes them as fields:
    one that holds a comma, a quote or a line break goes in quotes, with
    each quote doubled."""
    if not any(c in "".join(texts) for c in _CSV_QUOTED):
        return texts
    return [
        '"%s"' % t.replace('"', '""') if any(c in t for c in _CSV_QUOTED) else t
        for t in texts
    ]


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
