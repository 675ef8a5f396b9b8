"""Hypothesis fuzz of the readers of release bundles and checkpoints: a
dropped key, a value of a wrong JSON type (a bool for a number included),
a truncated checkpoint payload or an offset outside its utterance either
still loads (a dropped optional key) or raises SchemaError; no other
exception escapes.  A training config either raises ValueError when it
is built or trains to a best epoch."""

from __future__ import annotations

import copy
import json
import math
import tempfile
from dataclasses import fields, replace
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from refgame.agreement import aggregate_corpus_gold
from refgame.corpus import split_dataset
from refgame.errors import SchemaError
from refgame.importer import import_bundle
from refgame.model import GroundingModel, ModelConfig, Vocabulary, train_model
from refgame.synth import make_synthetic_corpus
from refgame.tagger import MarkableTagger, TaggerConfig, train_tagger
from test_importer import make_bundle

JSON_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-3, 300),
    "float": st.floats(-3, 300, allow_nan=False),
    "str": st.text(max_size=4),
    "list": st.lists(st.integers(0, 6), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
# the JSON kinds each field kind accepts; a field kind "[k]" is a list of k
ACCEPTS = {
    "number": {"int", "float"},
    "id": {"int", "str"},
    "color": {"int", "float", "str"},
    "str|null": {"str", "null"},
}


def _wrong_value(accepted: str):
    """A JSON value of a kind the field does not accept."""
    item = accepted[1:-1] if accepted.startswith("[") else None
    allowed = {"list"} if item else ACCEPTS.get(accepted, {accepted})
    wrong = st.sampled_from(sorted(JSON_KINDS.keys() - allowed)).flatmap(JSON_KINDS.get)
    if item is None:
        return wrong
    return st.one_of(wrong, st.lists(_wrong_value(item), min_size=1, max_size=3))


@st.composite
def _mutated(draw, files: dict, field_table: list):
    """``files`` with one field of the table dropped or set to a wrong kind;
    returns (mutation, files)."""
    name, path, key, accepted = draw(st.sampled_from(field_table))
    files = copy.deepcopy(files)
    target = files[name]
    for step in path:
        target = target[step]
    mutation = draw(st.sampled_from(("drop", "wrong type")))
    if mutation == "drop":
        target.pop(key, None)
    else:
        target[key] = draw(_wrong_value(accepted))
    return mutation, files


def _load(loader, files: dict, mutation: str):
    """Write ``files`` (name -> JSON value, or bytes written as they are) and
    call ``loader`` on their directory.  Only a dropped key may load; every
    other mutation must raise SchemaError."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            if isinstance(data, bytes):
                (Path(tmp) / name).write_bytes(data)
            else:
                (Path(tmp) / name).write_text(json.dumps(data))
        if mutation == "drop":
            try:
                loader(Path(tmp))
            except SchemaError:
                pass
        else:
            with pytest.raises(SchemaError):
                loader(Path(tmp))


# --- release bundles -------------------------------------------------------------

@cache
def _bundle() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        make_bundle(Path(tmp))
        return {p.name: json.loads(p.read_text()) for p in Path(tmp).iterdir()}


# (file, path to a record, key, field kind); transcript event 0 is a message
# and event 2 a selection, markable 0 has a char span and markable 1 a token span
BUNDLE_FIELDS = [
    ("scenarios.json", (0,), "uuid", "str"),
    ("scenarios.json", (0,), "kbs", "[list]"),
    *[("scenarios.json", (0, "kbs", kb, i), "id", "id") for kb, i in ((0, 0), (1, 6))],
    *[("scenarios.json", (0, "kbs", kb, i), key, "number")
      for kb, i in ((0, 0), (1, 6)) for key in ("x", "y", "size")],
    *[("scenarios.json", (0, "kbs", kb, i), "color", "color") for kb, i in ((0, 0), (1, 6))],
    *[("transcripts.json", (0,), key, "str") for key in ("uuid", "scenario_uuid")],
    ("transcripts.json", (0,), "events", "[object]"),
    *[("transcripts.json", (0, "events", i), "action", "str") for i in (0, 2)],
    *[("transcripts.json", (0, "events", i), "agent", "id") for i in (0, 2)],
    ("transcripts.json", (0, "events", 0), "data", "str"),
    ("transcripts.json", (0, "events", 2), "data", "id"),
    *[("markables.json", (i,), key, kind) for i in (0, 1) for key, kind in (
        ("markable_id", "str"), ("dialogue_uuid", "str"), ("utterance", "int"), ("speaker", "id"),
    )],
    *[("markables.json", (0,), key, "int") for key in ("start_char", "end_char")],
    *[("markables.json", (1,), key, "int") for key in ("start_token", "end_token")],
    *[("markables.json", (1,), key, "bool") for key in ("generic", "all_referents", "no_referent")],
    *[("markables.json", (0,), key, "str|null") for key in ("anaphora_of", "cataphora_of")],
    *[("judgements.json", (i,), key, kind) for i in (0, 3) for key, kind in (
        ("markable_id", "str"), ("annotator", "str"), ("referents", "[id]"),
    )],
    *[("judgements.json", (3,), key, "bool") for key in ("ambiguous", "unidentifiable")],
]


@settings(max_examples=200, deadline=None)
@given(_mutated(_bundle(), BUNDLE_FIELDS))
def test_mutated_bundle_schema_error(mutated):
    mutation, files = mutated
    _load(import_bundle, files, mutation)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(0, "start_char"), (0, "end_char"), (0, "utterance"),
                     (1, "start_token"), (1, "end_token"), (1, "utterance")]),
    st.one_of(st.integers(max_value=-1), st.integers(min_value=20)),
)
def test_out_of_range_offset_schema_error(field, offset):
    index, key = field
    files = copy.deepcopy(_bundle())
    files["markables.json"][index][key] = offset
    _load(import_bundle, files, "out of range")


# --- checkpoints ---------------------------------------------------------------

NETS = {
    "model": (GroundingModel, ModelConfig(
        variant="TSEL-REF-DIAL", embed_dim=4, hidden_dim=5, attr_dim=3, rel_dim=2,
        attn_dim=4, mlp_dim=5,
    )),
    "tagger": (MarkableTagger, TaggerConfig(embed_dim=4, hidden_dim=5, dtype="float32")),
}
FIELD_KINDS = {"str": "str", "int": "int", "float": "number"}


def _vocab() -> Vocabulary:
    corpus = make_synthetic_corpus(2, seed=4)
    return Vocabulary.from_corpus(corpus, sorted(corpus.dialogues))


@cache
def _checkpoint(net: str) -> tuple[dict, bytes]:
    """A saved checkpoint's header and payload."""
    cls, config = NETS[net]
    with tempfile.TemporaryDirectory() as tmp:
        cls(config, _vocab()).save(Path(tmp) / "net")
        line, payload = (Path(tmp) / "net.ckpt").read_bytes().split(b"\n", 1)
    return json.loads(line), payload


def _files(header: dict, payload: bytes) -> dict:
    return {"net.ckpt": json.dumps(header).encode() + b"\n" + payload}


def _checkpoint_fields(net: str) -> list:
    """(part, path, key, field kind) for the header and its config.  The
    header's "refgame" version is left out: the loader does not read it."""
    config = NETS[net][1]
    header = (("format", "str"), ("version", "int"), ("config", "object"), ("vocab", "[str]"),
              ("params", "[list]"), ("payload_sha256", "str"))
    return [
        *[("header", (), key, kind) for key, kind in header],
        *[("header", ("config",), f.name, FIELD_KINDS[f.type]) for f in fields(config)],
    ]


@pytest.mark.parametrize("net", sorted(NETS))
def test_mutated_checkpoint_schema_error(net):
    cls = NETS[net][0]
    header, payload = _checkpoint(net)

    @settings(max_examples=150, deadline=None)
    @given(_mutated({"header": header}, _checkpoint_fields(net)))
    def check(mutated):
        mutation, parts = mutated
        _load(lambda path: cls.load(path / "net"), _files(parts["header"], payload), mutation)

    check()


@pytest.mark.parametrize("net", sorted(NETS))
def test_truncated_payload_schema_error(net):
    cls = NETS[net][0]
    header, payload = _checkpoint(net)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, len(payload) - 1))
    def check(length):
        _load(lambda path: cls.load(path / "net"), _files(header, payload[:length]), "truncated")

    check()


# each edit maps a saved header's params to a layout that its config and
# vocabulary do not declare; the payload and its hash stay the file's own
LAYOUT_EDITS = {
    "reordered": lambda params: params[::-1],
    "an undeclared name": lambda params: [["extra", params[0][1]], *params[1:]],
    "shapes of floats": lambda params: [[name, [float(n) for n in shape]] for name, shape in params],
}


@pytest.mark.parametrize("edit", sorted(LAYOUT_EDITS))
@pytest.mark.parametrize("net", sorted(NETS))
def test_undeclared_layout_schema_error(net, edit, tmp_path):
    cls = NETS[net][0]
    header, payload = _checkpoint(net)
    edited = {**header, "params": LAYOUT_EDITS[edit](header["params"])}
    (tmp_path / "net.ckpt").write_bytes(_files(edited, payload)["net.ckpt"])
    with pytest.raises(SchemaError, match="net.ckpt: the parameters do not match"):
        cls.load(tmp_path / "net")


@pytest.mark.parametrize("net", sorted(NETS))
def test_swapped_params_file_schema_error(net, tmp_path):
    # b's payload fits a's config and vocabulary, so only the hash tells them apart
    cls, config = NETS[net]
    cls(config, _vocab()).save(tmp_path / "a")
    cls(replace(config, seed=config.seed + 1), _vocab()).save(tmp_path / "b")
    header = (tmp_path / "a.ckpt").read_bytes().split(b"\n", 1)[0]
    payload = (tmp_path / "b.ckpt").read_bytes().split(b"\n", 1)[1]
    (tmp_path / "a.ckpt").write_bytes(header + b"\n" + payload)
    with pytest.raises(SchemaError, match="a.ckpt: the payload's SHA-256"):
        cls.load(tmp_path / "a")


# --- training configs ------------------------------------------------------------

@cache
def _training_data():
    corpus = make_synthetic_corpus(12, seed=6)
    return corpus, split_dataset(corpus, 0), aggregate_corpus_gold(corpus)


def _config_values(cls):
    """(cls, field values): every int field but seed from -1..3, dropout and
    lr from values on both sides of their bounds."""
    values = {f.name: st.integers(-1, 3) for f in fields(cls) if f.type == "int" and f.name != "seed"}
    values["lr"] = st.sampled_from([math.nan, -1e-3, 1e-3])
    if cls is ModelConfig:
        values["dropout"] = st.sampled_from([-0.5, 0.0, 0.5, 1.0])
    return st.tuples(st.just(cls), st.fixed_dictionaries(values))


SMALLEST = dict(embed_dim=1, hidden_dim=1, batch_size=1, epochs=2, patience=1, lr=1e-3)


@settings(max_examples=25, deadline=None)
@given(st.one_of(_config_values(ModelConfig), _config_values(TaggerConfig)))
@example((ModelConfig, dict(SMALLEST, attr_dim=1, rel_dim=1, attn_dim=1, mlp_dim=1, dropout=0.5)))
@example((TaggerConfig, SMALLEST))
def test_a_config_is_refused_or_trains(drawn):
    cls, values = drawn
    try:
        config = cls(**values)
    except ValueError:
        return
    corpus, split, gold = _training_data()
    if cls is ModelConfig:
        result = train_model(config, corpus, split, gold)
    else:
        result = train_tagger(corpus, split, config)
    assert result.best_epoch >= 0
