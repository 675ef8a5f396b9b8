from __future__ import annotations

import json
import re

import pytest

from refgame.cli import main
from refgame.errors import SchemaError
from refgame.model import ModelConfig
from refgame.scenario import ScenarioConfig, load_scenario_config
from refgame.tagger import TaggerConfig


def write_config(tmp_path, values) -> str:
    path = tmp_path / "lab.json"
    path.write_text(json.dumps(values))
    return str(path)


def test_cli_generate_honors_config(tmp_path):
    cfg = write_config(tmp_path, {"view_radius": 0.5, "size_max": 0.05})
    out = tmp_path / "scen.json"
    assert main([
        "generate", "--shared", "5", "--count", "2", "--seed", "1",
        "--config", cfg, "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    for record in payload:
        assert record["views"]["A"]["radius"] == 0.5
        for e in record["entities"]:
            assert e["size"] <= 0.05


def test_cli_config_casts_by_field_type(tmp_path):
    config = load_scenario_config(write_config(tmp_path, {
        "max_attempts": 3, "min_separation": 1, "center_distance": {"4": 0.9},
    }))
    assert config.max_attempts == 3 and type(config.max_attempts) is int
    assert config.min_separation == 1.0 and type(config.min_separation) is float
    assert config.center_distance == {4: 0.9, 5: 0.75, 6: 0.5}


@pytest.mark.parametrize("text,fragment", [
    ('{"max_attempts": 1.5}', "max_attempts"),
    ('{"view_radius": "abc"}', "view_radius"),
    ('{"size_max": true}', "size_max"),
    ('{"view_raduis": 0.5}', "view_raduis"),
    ('{"epochs": 12}', "epochs"),
    ('{"center_distance": {"7": 0.4}}', "center_distance.7"),
    ('{"center_distance": {"5": false}}', "'5'"),
    ('{"size_min": 0.1, "size_max": 0.05}', "degenerate size range"),
    ("[]", "object"),
    ("# refgame-config v1\nscenario.view_radius = 0.8\n", "not JSON"),
    ('{"min_separation": NaN}', "not finite: min_separation"),
    ('{"view_radius": NaN}', "not finite: view_radius"),
    ('{"view_radius": Infinity}', "not finite: view_radius"),
    ('{"center_distance": {"5": NaN}}', "not finite: center_distance[5]"),
    ('{"center_distance": {"4": Infinity}}', "not finite: center_distance[4]"),
    ('{"world_max": Infinity}', "not finite: world_max"),
    ('{"world_min": -1e308, "world_max": 1e308}', "not finite: world_max - world_min"),
    ('{"center_distance": {"6": -0.5}}', "center_distance values must be >= 0"),
    ('{"world_max": 1' + "0" * 400 + "}", "ScenarioConfig.world_max is too large for a float"),
    ('{"center_distance": {"4": 1' + "0" * 400 + "}}", "'4' is too large for a float"),
], ids=["int-field", "float-field", "bool", "misspelt-key", "key-no-command-reads",
        "center-distance-key", "center-distance-bool", "bounds", "not-an-object", "text-format",
        "nan-separation", "nan-radius", "infinite-radius", "nan-center-distance",
        "infinite-center-distance", "infinite-world", "world-range-overflows",
        "negative-center-distance", "huge-int-field", "huge-int-center-distance"])
def test_cli_bad_config_reports_schema_error(tmp_path, capsys, text, fragment):
    cfg = tmp_path / "lab.json"
    cfg.write_text(text)
    with pytest.raises(SchemaError, match=re.escape(str(cfg))):
        load_scenario_config(cfg)
    for command in ("generate", "selfplay"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "SchemaError"
        assert str(cfg) in error["message"] and fragment in error["message"]


@pytest.mark.parametrize("values,fragment", [
    ({"world_max": 10**400}, "not finite: world_max"),
    ({"size_min": -(10**400)}, "not finite: size_min"),
    ({"center_distance": {4: 10**400, 5: 0.75, 6: 0.5}}, "not finite: center_distance[4]"),
    ({"world_min": -(10**308), "world_max": 10**308}, "not finite: world_max - world_min"),
], ids=["huge-field", "huge-negative-field", "huge-center-distance", "range-past-float"])
def test_config_refuses_ints_too_large_for_a_float(values, fragment):
    # the Python API takes ints where config files would refuse them first
    with pytest.raises(ValueError, match=re.escape(fragment)):
        ScenarioConfig(**values)


@pytest.mark.parametrize("cls", [ModelConfig, TaggerConfig])
@pytest.mark.parametrize("patience", [0, -1])
def test_training_configs_refuse_a_patience_below_one(cls, patience):
    # fit would stop at the first epoch without improvement, as with patience 1
    with pytest.raises(ValueError, match=f"patience must be at least 1, got {patience}"):
        cls(patience=patience)
    assert cls(patience=1).patience == 1
