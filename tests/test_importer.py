"""The import adapter maps a release-style bundle (pixel units, hex colors,
string entity ids, char-offset spans) into the canonical schema."""

from __future__ import annotations

import json
import re

import pytest

from refgame.corpus import corpus_stats
from refgame.errors import IntegrityError, SchemaError
from refgame.importer import _char_span_to_tokens, import_bundle
from refgame.scenario import ScenarioConfig


def _entity(eid, x, y, size, color):
    return {"id": eid, "x": x, "y": y, "size": size, "color": color}


def make_bundle(tmp_path):
    shared = [
        _entity("s0", 100, 100, 8, "#222222"),
        _entity("s1", 200, 150, 10, "#888888"),
        _entity("s2", 150, 250, 12, "#cccccc"),
        _entity("s3", 250, 300, 9, 64),
    ]
    a_private = [
        _entity("a0", 50, 60, 7, 10),
        _entity("a1", 60, 200, 11, 120),
        _entity("a2", 90, 320, 13, 240),
    ]
    b_private = [
        _entity("b0", 330, 80, 8, 30),
        _entity("b1", 360, 210, 9, 150),
        _entity("b2", 310, 340, 10, 250),
    ]
    scenarios = [{"uuid": "scn-1", "kbs": [shared + a_private, shared + b_private]}]
    transcripts = [
        {
            "uuid": "dlg-1",
            "scenario_uuid": "scn-1",
            "events": [
                {"action": "message", "agent": 0, "data": "i have a dark dot"},
                {"action": "message", "agent": 1, "data": "yes i see it"},
                {"action": "select", "agent": 0, "data": "s0"},
                {"action": "select", "agent": 1, "data": "s0"},
            ],
        }
    ]
    # "a dark dot" = chars 7..17 of "i have a dark dot"
    markables = [
        {
            "markable_id": "mk-1",
            "dialogue_uuid": "dlg-1",
            "utterance": 0,
            "speaker": 0,
            "start_char": 7,
            "end_char": 17,
        },
        {
            "markable_id": "mk-2",
            "dialogue_uuid": "dlg-1",
            "utterance": 1,
            "speaker": 1,
            "start_token": 3,
            "end_token": 4,
        },
    ]
    judgements = [
        {"markable_id": "mk-1", "annotator": f"w{i}", "referents": ["s0"]}
        for i in range(3)
    ] + [
        {"markable_id": "mk-2", "annotator": f"w{i}", "referents": ["s0"],
         "ambiguous": i == 0}
        for i in range(3)
    ]
    for name, payload in [
        ("scenarios.json", scenarios),
        ("transcripts.json", transcripts),
        ("markables.json", markables),
        ("judgements.json", judgements),
    ]:
        (tmp_path / name).write_text(json.dumps(payload))
    return tmp_path


def test_bundle_imports_and_validates(tmp_path):
    corpus = import_bundle(make_bundle(tmp_path))
    stats = corpus_stats(corpus)
    assert stats.n_dialogues == 1
    assert stats.n_markables == 2
    assert stats.n_judgements == 6
    assert stats.pct_ambiguous == pytest.approx(100 / 6)


def test_units_rescaled_into_schema(tmp_path):
    corpus = import_bundle(make_bundle(tmp_path))
    cfg = ScenarioConfig()
    scenario = corpus.scenarios["scn-1"]
    assert scenario.num_shared == 4
    for e in scenario.entities:
        assert -1.0 <= e.x <= 1.0 and -1.0 <= e.y <= 1.0
        assert cfg.size_min <= e.size <= cfg.size_max
        assert 0.0 <= e.color < 256.0
    # hex gray #888888 -> 136
    dark = corpus.scenarios["scn-1"]
    grays = sorted(e.color for e in dark.entities)
    assert any(abs(c - 136.0) < 1e-9 for c in grays)


def test_char_spans_become_token_spans(tmp_path):
    corpus = import_bundle(make_bundle(tmp_path))
    m = corpus.markables["mk-1"]
    assert (m.start_token, m.end_token) == (2, 5)
    assert corpus.markable_tokens(m) == ("a", "dark", "dot")


def test_char_span_must_align():
    with pytest.raises(SchemaError):
        _char_span_to_tokens(("i", "have", "a"), 1, 4)


def test_unknown_scenario_rejected(tmp_path):
    src = make_bundle(tmp_path)
    bad = json.loads((src / "transcripts.json").read_text())
    bad[0]["scenario_uuid"] = "nope"
    (src / "transcripts.json").write_text(json.dumps(bad))
    with pytest.raises(SchemaError):
        import_bundle(src)


@pytest.mark.parametrize("name", ["transcripts.json", "scenarios.json"])
def test_duplicate_uuid_rejected(tmp_path, name):
    src = make_bundle(tmp_path)
    records = json.loads((src / name).read_text())
    records.append(records[0])
    (src / name).write_text(json.dumps(records))
    with pytest.raises(IntegrityError, match=f"duplicate .* id {re.escape(records[0]['uuid'])}"):
        import_bundle(src)


def test_wrong_kb_size_rejected(tmp_path):
    src = make_bundle(tmp_path)
    scen = json.loads((src / "scenarios.json").read_text())
    scen[0]["kbs"][0] = scen[0]["kbs"][0][:6]
    (src / "scenarios.json").write_text(json.dumps(scen))
    with pytest.raises(SchemaError):
        import_bundle(src)


@pytest.mark.parametrize("name,index,key,value", [
    ("markables.json", 0, "no_referent", "false"),
    ("markables.json", 1, "generic", 0),
    ("judgements.json", 3, "ambiguous", "no"),
])
def test_flag_must_be_boolean(tmp_path, name, index, key, value):
    bundle = make_bundle(tmp_path)
    records = json.loads((bundle / name).read_text())
    records[index][key] = value
    (bundle / name).write_text(json.dumps(records))
    with pytest.raises(SchemaError, match=key):
        import_bundle(bundle)


DROP = object()


# (file, path into the file, key, new value or DROP): a dropped key, a value
# of the wrong JSON type, an unknown id or an index outside its range
@pytest.mark.parametrize("name,path,key,value", [
    ("judgements.json", (0,), "markable_id", DROP),
    ("judgements.json", (0,), "annotator", DROP),
    ("judgements.json", (0,), "referents", ["zz"]),
    ("judgements.json", (0,), "referents", "s0"),
    ("judgements.json", (0,), "referents", [True]),
    ("transcripts.json", (0,), "scenario_uuid", DROP),
    ("transcripts.json", (0, "events", 1), "agent", True),
    ("transcripts.json", (0, "events", 2), "data", "zz"),
    ("scenarios.json", (0, "kbs", 0, 4), "x", DROP),
    ("scenarios.json", (0, "kbs", 0, 0), "x", "abc"),
    ("scenarios.json", (0, "kbs", 0, 4), "x", True),
    ("scenarios.json", (0, "kbs", 0, 4), "color", True),
    ("scenarios.json", (0, "kbs", 0), 6, _entity("a1", 60, 200, 11, 120)),
    ("markables.json", (1,), "utterance", 1.9),
    ("markables.json", (1,), "utterance", -1),
    ("markables.json", (1,), "start_token", "3"),
    ("markables.json", (1,), "end_token", 9),
    ("markables.json", (1,), "speaker", True),
], ids=[
    "judgement-without-markable-id", "judgement-without-annotator", "unknown-referent",
    "referents-string", "referent-bool", "transcript-without-scenario", "agent-bool",
    "select-unknown-entity", "entity-without-x", "x-string", "x-bool", "color-bool", "entity-listed-twice",
    "utterance-float", "utterance-negative", "start-token-string", "end-token-past-utterance",
    "speaker-bool",
])
def test_damaged_bundle_raises_schema_error(tmp_path, name, path, key, value):
    bundle = make_bundle(tmp_path)
    records = json.loads((bundle / name).read_text())
    target = records
    for step in path:
        target = target[step]
    if value is DROP:
        del target[key]
    else:
        target[key] = value
    (bundle / name).write_text(json.dumps(records))
    with pytest.raises(SchemaError, match=re.escape(f"{name}, record {path[0]}: ")):
        import_bundle(bundle)
