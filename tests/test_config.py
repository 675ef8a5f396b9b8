from __future__ import annotations

import argparse
import json

import pytest

from refgame.cli import _scenario_config, main
from refgame.config import HEADER, load_config
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


def test_cli_config_casts_by_field_type(tmp_path):
    path = tmp_path / "lab.cfg"
    path.write_text(dump_config({
        "scenario.max_attempts": "3",
        "scenario.min_separation": "0.5",
        "scenario.center_distance_4": "0.9",
    }))
    config = _scenario_config(argparse.Namespace(config=path))
    assert config.max_attempts == 3 and type(config.max_attempts) is int
    assert config.min_separation == 0.5
    assert config.center_distance == {4: 0.9, 5: 0.75, 6: 0.5}


@pytest.mark.parametrize("line", [
    "scenario.max_attempts = 1.5",
    "scenario.view_radius = abc",
    "scenario.view_raduis = 0.5",
    "train.epochs = 12",
], ids=["int-field", "float-field", "misspelt-key", "key-no-command-reads"])
def test_cli_bad_config_reports_schema_error(tmp_path, capsys, line):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(f"{HEADER}\n{line}\n")
    for command in ("generate", "selfplay"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "SchemaError" and line.split()[0] in error["message"]
