"""Versioned key-value configuration files.

Format: first non-empty line is a version header ``# refgame-config v1``;
every other line is ``key = value`` (dotted keys, ``#`` comments, blank
lines allowed).  ``refgame generate`` and ``refgame selfplay`` read the
``scenario.*`` keys of such a file and reject any other key."""

from __future__ import annotations

from pathlib import Path

from .errors import SchemaError

HEADER = "# refgame-config v1"


def load_config(path) -> dict[str, str]:
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln.strip() for ln in text.splitlines()]
    body = [ln for ln in lines if ln]
    if not body or body[0] != HEADER:
        raise SchemaError(f"{path}: missing header line {HEADER!r}")
    out: dict[str, str] = {}
    for ln in body[1:]:
        if ln.startswith("#"):
            continue
        if "=" not in ln:
            raise SchemaError(f"{path}: malformed line {ln!r}")
        key, value = ln.split("=", 1)
        out[key.strip()] = value.strip()
    return out
