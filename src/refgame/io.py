"""Small file helpers: atomic writes so batch jobs never leave torn files,
one JSON writer, one CSV writer, and one strict reader that builds record
dataclasses from JSON objects.

Every JSON file the package writes goes through one writer,
``atomic_write_json``, in one layout: a top-level list or object holds one
record per line, each as ``json.dumps(record, ensure_ascii=False)``
encodes it, so a file is valid, deterministic and written a record at a
time.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import MISSING, fields
from functools import cache
from io import StringIO
from pathlib import Path
from typing import Iterable, Sequence

from .errors import SchemaError


def atomic_write_bytes(path, *chunks) -> None:
    """Write the bytes-like ``chunks`` one after another to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path, obj) -> None:
    """Write ``obj`` in the canonical layout (``json_chunks``) plus a
    newline, in UTF-8."""
    atomic_write_bytes(path, *(chunk.encode("utf-8") for chunk in json_chunks(obj)), b"\n")


def json_chunks(obj) -> list[str]:
    """Pieces that join to the canonical layout of ``obj``: a non-empty
    top-level list or object is its opening bracket, one line per item
    indented two spaces, then its closing bracket; each item (each
    ``"key": value`` entry) is encoded as ``json.dumps(item,
    ensure_ascii=False)`` encodes it.  Any other value is one line.  A piece
    holds one item, so a file is written without one string of it all."""
    encode = json.JSONEncoder(ensure_ascii=False).encode
    if isinstance(obj, (list, tuple)) and obj:
        brackets, items = "[]", map(encode, obj)
    elif isinstance(obj, dict) and obj:
        brackets, items = "{}", (encode({key: value})[1:-1] for key, value in obj.items())
    else:
        return [encode(obj)]
    chunks = [",\n  " + item for item in items]
    chunks[0] = brackets[0] + chunks[0][1:]
    chunks.append("\n" + brackets[1])
    return chunks


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """CSV with "\n" line ends; a cell is quoted only when it holds a comma,
    a quote or a line break."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def read_json(path):
    """The JSON value in ``path``; a file that is not JSON raises SchemaError
    naming it."""
    with open(path, encoding="utf-8", newline="") as f:
        try:
            return json.loads(f.read())
        except ValueError as exc:
            raise SchemaError(f"{path}: not JSON: {exc}") from None


# --- strict record reading ----------------------------------------------------

_NUMBER = frozenset((float, int))

# the JSON types a field accepts, by its annotation (or the type a reader is
# given); matched by exact type, so a bool is never a number and an int is
# never a bool
_JSON_TYPES = {
    "str": frozenset((str,)),
    "int": frozenset((int,)),
    "float": _NUMBER,
    "bool": frozenset((bool,)),
    "str | None": frozenset((str, type(None))),
    "int | str": frozenset((int, str)),
    "float | str": frozenset((float, int, str)),
    "dict": frozenset((dict,)),
    "list": frozenset((list,)),
}


def _kinds(kind) -> tuple[str, frozenset]:
    name = getattr(kind, "__name__", str(kind))
    return name, _JSON_TYPES[name]


def _reject(field: str, value, kind: str):
    if value is MISSING:
        raise SchemaError(f"{field} is missing")
    raise SchemaError(f"{field} must be {kind}, got {value!r:.60}")


def _too_large(field: str, value):
    # a JSON integer too large for a float
    raise SchemaError(f"{field} is too large for a float, got {value!r:.60}")


@cache
def _layout(cls) -> tuple:
    return tuple((f.name, _JSON_TYPES.get(f.type, frozenset()), f.default, f.type) for f in fields(cls))


def from_record(cls, record, **parsed):
    """Build the dataclass ``cls`` from the JSON object ``record``.

    Each field not given in ``parsed`` is read from the key of its name and
    must have the JSON type its annotation names (a float field also takes
    an int); a missing key takes the field's default.  Fields that need
    parsing (tuples, sets, nested records) arrive built in ``parsed``.
    Extra keys are ignored.  Raises SchemaError naming the field, also
    when ``cls`` itself rejects the values with a ValueError.
    """
    if type(record) is not dict:
        raise SchemaError(f"{cls.__name__} record must be an object, got {type(record).__name__}")
    for name, kinds, default, annotation in _layout(cls):
        if name in parsed:
            continue
        value = record.get(name, default)
        if type(value) not in kinds:
            _reject(f"{cls.__name__}.{name}", value, annotation)
        try:
            parsed[name] = float(value) if kinds is _NUMBER else value
        except OverflowError:
            _too_large(f"{cls.__name__}.{name}", value)
    try:
        return cls(**parsed)
    except ValueError as exc:
        raise SchemaError(f"{cls.__name__}: {exc}") from None


def _object(record, key: str) -> dict:
    if type(record) is not dict:
        raise SchemaError(f"expected an object holding {key!r}, got {type(record).__name__}")
    return record


def read_value(record, key: str, kind, default=MISSING):
    """The JSON value ``record[key]``, which must be of ``kind`` (a type or a
    union such as ``int | str``; a ``float`` may be an int and comes back as
    a float).  A missing key gives ``default`` if one is given."""
    record = _object(record, key)
    if key not in record and default is not MISSING:
        return default
    value = record.get(key, MISSING)
    name, kinds = _kinds(kind)
    if type(value) not in kinds:
        _reject(repr(key), value, name)
    try:
        return float(value) if kinds is _NUMBER else value
    except OverflowError:
        _too_large(repr(key), value)


def read_list(record, key: str, kind) -> list:
    """The JSON list ``record[key]``, whose items must all be of ``kind``
    (``float`` items may be ints and come back as floats)."""
    items = _object(record, key).get(key)
    name, kinds = _kinds(kind)
    if type(items) is not list or not kinds.issuperset(map(type, items)):
        raise SchemaError(f"{key!r} must be a list of {name}, got {items!r:.60}")
    try:
        return [float(v) for v in items] if kinds is _NUMBER else items
    except OverflowError:
        _too_large(f"an item of {key!r}", items)


def read_records(path, parse) -> list:
    """Parse every record of the JSON list in ``path``; a damaged record
    raises SchemaError naming the file and the record's index."""
    data = read_json(path)
    if type(data) is not list:
        raise SchemaError(f"{path} must hold a JSON list")
    out = []
    for i, record in enumerate(data):
        try:
            out.append(parse(record))
        except SchemaError as exc:
            raise SchemaError(f"{path}, record {i}: {exc}") from None
    return out

