"""Small file helpers: atomic writes so batch jobs never leave torn files,
one JSON writer, one CSV writer, and one strict reader that builds record
dataclasses from JSON objects.

Every JSON file the package writes goes through one writer,
``atomic_write_json``: UTF-8 text byte for byte equal to
``json.dumps(obj, indent=2, ensure_ascii=False)`` plus a newline.  With
``indent`` set, ``json.dumps`` runs the pure-Python encoder.  The writer's
``json_chunks`` runs Python's C encoder instead, with a line break and the
indent of a depth as its item separator, so that a list or dict of
scalars comes out in the indented layout from one call; the lists and
dicts of one nesting depth go through it together, and Python walks only
the nesting above the scalars.  Without the C encoder it falls back to
``json.dumps``.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import MISSING, fields
from functools import cache
from io import StringIO
from json.encoder import c_make_encoder, encode_basestring
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
    """Write ``obj`` as ``json.dumps(obj, indent=2, ensure_ascii=False)``
    plus a newline, in UTF-8."""
    atomic_write_bytes(path, *(chunk.encode("utf-8") for chunk in json_chunks(obj)), b"\n")


# --- indented JSON through the C encoder ----------------------------------------

_INDENT = "  "
_SCALARS = frozenset((str, int, float, bool, type(None)))
_all_scalars = _SCALARS.issuperset  # of an iterable of types
# items of a top-level list encoded together
_ITEMS_PER_BATCH = 256


@cache
def _encoder(depth: int):
    """The C encoder for a container whose items sit at ``depth``: with a line
    break and that depth's indent as item separator, its one-line output is
    the indented layout but for the line breaks next to the brackets."""
    return c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring, None,
        ": ", ",\n" + _INDENT * depth, False, False, True,
    )


def _encoded_all(values, depth: int) -> list[str]:
    """Each of ``values`` laid out as ``json.dumps(indent=2)`` lays it out
    with its opening bracket at ``depth``.

    The values are encoded a level at a time.  All the lists of scalars go
    through one C call, and so do all the dicts, with null in place of each
    list or dict they hold; those nested values, all of them at once, are
    the next level, and their encodings replace the nulls.  No encoded
    scalar or string holds a line break or ends in "]" or "}", so ",\n"
    and the indent end an item, and "],\n" or "},\n" followed by it and a
    bracket ends a container: a nested value's lines are indented deeper,
    but for its closing bracket, which no opening bracket follows.
    """
    inner, outer = _INDENT * (depth + 1), _INDENT * depth
    sep = ",\n" + inner
    out = [""] * len(values)
    dicts, flats, lists = [], [], []
    for i, v in enumerate(values):
        if isinstance(v, dict):
            if v:
                dicts.append((i, v))
            else:
                out[i] = "{}"
        elif isinstance(v, (list, tuple)):
            if not v:
                out[i] = "[]"
            elif _all_scalars(map(type, v)):
                flats.append((i, v))
            else:
                lists.append((i, v))
        else:
            out[i] = "".join(_encoder(depth)(v, 0))
    if flats:
        text = "".join(_encoder(depth + 1)([v for _, v in flats], 0))
        for (i, _), body in zip(flats, text[2:-2].split("],\n" + inner + "[")):
            out[i] = f"[\n{inner}{body}\n{outer}]"
    if lists:
        encoded = _encoded_all([item for _, v in lists for item in v], depth + 1)
        at = 0
        for i, v in lists:
            out[i] = f"[\n{inner}{sep.join(encoded[at: at + len(v)])}\n{outer}]"
            at += len(v)
    if dicts:
        # the item number of each null, counted over all the dicts
        rows, nulls, nested, at = [], [], [], 0
        for _, d in dicts:
            if _all_scalars(map(type, d.values())):
                rows.append(d)
                at += len(d)
                continue
            row = {}
            for k, v in d.items():
                if type(v) in _SCALARS:
                    row[k] = v
                else:
                    row[k] = None
                    nulls.append(at)
                    nested.append(v)
                at += 1
            rows.append(row)
        text = "".join(_encoder(depth + 1)(rows, 0))[2:-2]
        if nested:
            items = text.split(sep)
            for at, value in zip(nulls, _encoded_all(nested, depth + 1)):
                item = items[at]
                # "null", or "null}" as the last item of a dict
                items[at] = item[:-4] + value if item[-1] == "l" else item[:-5] + value + "}"
            text = sep.join(items)
        for (i, _), body in zip(dicts, text.split("},\n" + inner + "{")):
            out[i] = f"{{\n{inner}{body}\n{outer}}}"
    return out


def json_chunks(obj) -> list[str]:
    """Pieces that join to ``json.dumps(obj, indent=2, ensure_ascii=False)``:
    one per item of a top-level list, so a file is written without one
    string of it all."""
    if c_make_encoder is None:
        return [json.dumps(obj, indent=2, ensure_ascii=False)]
    try:
        if not isinstance(obj, (list, tuple)) or not obj or _all_scalars(map(type, obj)):
            return _encoded_all([obj], 0)
        items = []
        for lo in range(0, len(obj), _ITEMS_PER_BATCH):
            items += _encoded_all(obj[lo: lo + _ITEMS_PER_BATCH], 1)
    except RecursionError:
        # a list or dict that holds itself: json.dumps names the cycle
        return [json.dumps(obj, indent=2, ensure_ascii=False)]
    chunks = [f",\n{_INDENT}{item}" for item in items]
    chunks[0] = f"[\n{_INDENT}{items[0]}"
    chunks.append("\n]")
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

