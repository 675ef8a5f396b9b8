"""Small file helpers: atomic writes so batch jobs never leave torn files,
and one strict reader that builds record dataclasses from JSON objects."""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import MISSING, fields
from functools import cache
from pathlib import Path

from .errors import SchemaError


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path, obj, *, indent: int | None = 2) -> None:
    atomic_write_text(path, json.dumps(obj, indent=indent, ensure_ascii=False) + "\n")


def read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# --- strict record reading ----------------------------------------------------

_NUMBER = frozenset((float, int))

# the JSON types a record field accepts, by the field's annotation; matched by
# exact type, so a bool is never a number and an int is never a bool
_JSON_TYPES = {
    "str": frozenset((str,)),
    "int": frozenset((int,)),
    "float": _NUMBER,
    "bool": frozenset((bool,)),
    "str | None": frozenset((str, type(None))),
    "dict": frozenset((dict,)),
}


@cache
def _layout(cls) -> tuple:
    return tuple((f.name, _JSON_TYPES.get(f.type, frozenset()), f.default, f.type) for f in fields(cls))


def from_record(cls, record, **parsed):
    """Build the dataclass ``cls`` from the JSON object ``record``.

    Each field not given in ``parsed`` is read from the key of its name and
    must have the JSON type its annotation names (a float field also takes
    an int); a missing key takes the field's default.  Fields that need
    parsing (tuples, sets, nested records) arrive built in ``parsed``.
    Extra keys are ignored.  Raises SchemaError naming the field.
    """
    if type(record) is not dict:
        raise SchemaError(f"{cls.__name__} record must be an object, got {type(record).__name__}")
    for name, kinds, default, annotation in _layout(cls):
        if name in parsed:
            continue
        value = record.get(name, default)
        if type(value) not in kinds:
            if value is MISSING:
                raise SchemaError(f"{cls.__name__} record lacks {name!r}")
            raise SchemaError(f"{cls.__name__}.{name} must be {annotation}, got {value!r:.60}")
        parsed[name] = float(value) if kinds is _NUMBER else value
    return cls(**parsed)


def read_list(record, key: str, kind: type) -> list:
    """The JSON list ``record[key]``, whose items must all be of ``kind``
    (``float`` items may be ints and come back as floats)."""
    if type(record) is not dict:
        raise SchemaError(f"expected an object holding {key!r}, got {type(record).__name__}")
    items = record.get(key)
    kinds = _JSON_TYPES[kind.__name__]
    if type(items) is not list or not kinds.issuperset(map(type, items)):
        raise SchemaError(f"{key!r} must be a list of {kind.__name__}, got {items!r:.60}")
    return [float(v) for v in items] if kinds is _NUMBER else items


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

