from __future__ import annotations

import json

import pytest

from refgame.cli import main
from refgame.config import HEADER, load_config, typed
from refgame.errors import SchemaError


def dump_config(values: dict[str, str]) -> str:
    return "\n".join([HEADER, *(f"{key} = {values[key]}" for key in sorted(values))]) + "\n"


def test_roundtrip(tmp_path):
    values = {"scenario.view_radius": "0.8", "train.epochs": "12"}
    path = tmp_path / "lab.cfg"
    path.write_text(dump_config(values))
    assert load_config(path) == values


def test_header_required(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("scenario.view_radius = 0.8\n")
    with pytest.raises(SchemaError):
        load_config(path)


def test_comments_and_blanks(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text(f"{HEADER}\n\n# a comment\nkey = value with spaces\n")
    assert load_config(path) == {"key": "value with spaces"}


def test_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(f"{HEADER}\njust-words\n")
    with pytest.raises(SchemaError):
        load_config(path)


def test_typed_casts():
    values = {"a": "3", "b": "0.5", "c": "yes"}
    assert typed(values, "a", int, None) == 3
    assert typed(values, "b", float, None) == 0.5
    assert typed(values, "c", bool, None) is True
    assert typed(values, "missing", int, 7) == 7
    with pytest.raises(SchemaError):
        typed({"a": "xx"}, "a", int, None)


def test_cli_generate_honors_config(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(f"{HEADER}\nscenario.view_radius = 0.5\nscenario.size_max = 0.05\n")
    out = tmp_path / "scen.json"
    assert main([
        "generate", "--shared", "5", "--count", "2", "--seed", "1",
        "--config", str(cfg), "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    for record in payload:
        assert record["views"]["A"]["radius"] == 0.5
        for e in record["entities"]:
            assert e["size"] <= 0.05
