from __future__ import annotations

import copy
import hashlib
import json
import pickle
import re
import tempfile
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refgame.corpus import (
    FILES,
    AnnotatedCorpus,
    Dialogue,
    GoldEntry,
    Markable,
    Message,
    ReferentJudgement,
    Selection,
    Split,
    corpus_stats,
    load_corpus,
    propagate_auto_referents,
    save_corpus,
    split_dataset,
)
from refgame.errors import IntegrityError, SchemaError
from refgame.scenario import ScenarioConfig, generate_scenario
from refgame.synth import make_synthetic_corpus


@pytest.fixture(scope="module")
def scenario():
    return generate_scenario(ScenarioConfig(), 4, np.random.default_rng(0))


def _dialogue(scenario, events=None, outcome=None):
    shared = sorted(scenario.shared_ids)
    base = [
        Message(speaker="A", tokens=("i", "see", "a", "dark", "dot")),
        Message(speaker="B", tokens=("yes", "i", "see", "it", "too")),
        Selection(speaker="A", entity_id=shared[0]),
        Selection(speaker="B", entity_id=shared[0]),
    ]
    return Dialogue(
        id="d0",
        scenario_id=scenario.id,
        events=tuple(events if events is not None else base),
        outcome=outcome if outcome is not None else True,
    )


def _mark(scenario, **kw):
    defaults = dict(
        id="m0", dialogue_id="d0", utterance_index=0, start_token=2, end_token=5, speaker="A"
    )
    defaults.update(kw)
    return Markable(**defaults)


class TestDialogue:
    def test_messages_and_selections_are_built_once(self, scenario):
        d = _dialogue(scenario)
        assert d.messages is d.messages
        assert d.messages == tuple(e for e in d.events if isinstance(e, Message))
        assert d.selections is d.selections
        assert d.selections == {"A": d.events[2].entity_id, "B": d.events[3].entity_id}

    def test_equality_hashing_and_pickling_see_only_the_fields(self, scenario):
        d, fresh = _dialogue(scenario), _dialogue(scenario)
        pickled, hashed = pickle.dumps(d), hash(d)
        assert d.messages and d.selections
        assert pickle.dumps(d) == pickled == pickle.dumps(fresh)
        assert hash(d) == hashed == hash(fresh)
        assert d == fresh and repr(d) == repr(fresh)
        clone = pickle.loads(pickle.dumps(d))
        assert clone == d and "messages" not in vars(clone)
        assert clone.messages == d.messages and clone.selections == d.selections
        assert copy.deepcopy(d) == d
        assert d != _dialogue(scenario, outcome=False)


class TestValidation:
    def test_valid_corpus_builds(self, scenario):
        c = AnnotatedCorpus.build([scenario], [_dialogue(scenario)], [_mark(scenario)], [])
        assert len(c.dialogues) == 1

    def test_bad_span_names_markable(self, scenario):
        bad = _mark(scenario, start_token=4, end_token=4)
        with pytest.raises(IntegrityError, match="m0"):
            AnnotatedCorpus.build([scenario], [_dialogue(scenario)], [bad], [])

    def test_overlap_rejected(self, scenario):
        m1 = _mark(scenario, id="m1", start_token=2, end_token=5)
        m2 = _mark(scenario, id="m2", start_token=4, end_token=5)
        with pytest.raises(IntegrityError, match="overlap"):
            AnnotatedCorpus.build([scenario], [_dialogue(scenario)], [m1, m2], [])

    def test_speaker_mismatch_rejected(self, scenario):
        bad = _mark(scenario, speaker="B")
        with pytest.raises(IntegrityError, match="speaker"):
            AnnotatedCorpus.build([scenario], [_dialogue(scenario)], [bad], [])

    def test_two_flags_rejected(self, scenario):
        bad = _mark(scenario, generic=True, no_referent=True)
        with pytest.raises(IntegrityError, match="flag"):
            AnnotatedCorpus.build([scenario], [_dialogue(scenario)], [bad], [])

    def test_missing_selection_rejected(self, scenario):
        events = [
            Message(speaker="A", tokens=("hi",)),
            Selection(speaker="A", entity_id=sorted(scenario.shared_ids)[0]),
        ]
        with pytest.raises(IntegrityError, match="selection"):
            AnnotatedCorpus.build(
                [scenario], [_dialogue(scenario, events=events)], [], []
            )

    def test_selection_outside_view_rejected(self, scenario):
        a_private = next(
            e for e in scenario.view_a.visible if e not in scenario.view_b.visible
        )
        events = [
            Selection(speaker="A", entity_id=a_private),
            Selection(speaker="B", entity_id=a_private),
        ]
        with pytest.raises(IntegrityError, match="outside"):
            AnnotatedCorpus.build(
                [scenario], [_dialogue(scenario, events=events)], [], []
            )

    def test_outcome_consistency_enforced(self, scenario):
        with pytest.raises(IntegrityError, match="outcome"):
            AnnotatedCorpus.build([scenario], [_dialogue(scenario, outcome=False)], [], [])

    def test_referents_outside_view_rejected(self, scenario):
        a_private = next(
            e for e in scenario.view_a.visible if e not in scenario.view_b.visible
        )
        m = _mark(scenario, utterance_index=1, speaker="B", start_token=3, end_token=4)
        j = ReferentJudgement("m0", "ann0", frozenset({a_private}))
        with pytest.raises(IntegrityError, match="view"):
            AnnotatedCorpus.build([scenario], [_dialogue(scenario)], [m], [j])

    def test_link_direction_enforced(self, scenario):
        m1 = _mark(scenario, id="m1", start_token=2, end_token=3, anaphora_of="m2")
        m2 = _mark(scenario, id="m2", start_token=4, end_token=5)
        with pytest.raises(IntegrityError, match="backwards"):
            AnnotatedCorpus.build([scenario], [_dialogue(scenario)], [m1, m2], [])

    def test_link_to_generic_rejected(self, scenario):
        m1 = _mark(scenario, id="m1", start_token=2, end_token=3, generic=True)
        m2 = _mark(scenario, id="m2", start_token=4, end_token=5, anaphora_of="m1")
        with pytest.raises(IntegrityError, match="generic"):
            AnnotatedCorpus.build([scenario], [_dialogue(scenario)], [m1, m2], [])

    def test_link_cycle_rejected(self, scenario):
        m0 = _mark(scenario, id="m0", start_token=2, end_token=3, cataphora_of="m1")
        m1 = _mark(scenario, id="m1", start_token=4, end_token=5, anaphora_of="m0")
        with pytest.raises(IntegrityError, match="cyclic markable links: m0 -> m1 -> m0"):
            AnnotatedCorpus.build([scenario], [_dialogue(scenario)], [m0, m1], [])


class TestPropagation:
    def test_no_referent_flag(self, scenario):
        m = _mark(scenario, no_referent=True)
        c = AnnotatedCorpus.build([scenario], [_dialogue(scenario)], [m], [])
        gold = propagate_auto_referents(c, {})
        assert gold["m0"] == GoldEntry(frozenset())

    def test_all_referents_flag(self, scenario):
        m = _mark(scenario, all_referents=True)
        c = AnnotatedCorpus.build([scenario], [_dialogue(scenario)], [m], [])
        gold = propagate_auto_referents(c, {})
        assert gold["m0"].referents == frozenset(scenario.view_a.visible)

    def test_anaphora_copies_gold(self, scenario):
        m1 = _mark(scenario, id="m1", start_token=2, end_token=3)
        m2 = _mark(scenario, id="m2", start_token=4, end_token=5, anaphora_of="m1")
        c = AnnotatedCorpus.build([scenario], [_dialogue(scenario)], [m1, m2], [])
        e3 = sorted(scenario.shared_ids)[0]
        gold = propagate_auto_referents(c, {"m1": GoldEntry(frozenset({e3}))})
        assert gold["m2"].referents == frozenset({e3})

    def test_chain_transitive(self, scenario):
        m1 = _mark(scenario, id="m1", start_token=0, end_token=1)
        m2 = _mark(scenario, id="m2", start_token=2, end_token=3, anaphora_of="m1")
        m3 = _mark(scenario, id="m3", start_token=4, end_token=5, anaphora_of="m2")
        c = AnnotatedCorpus.build([scenario], [_dialogue(scenario)], [m1, m2, m3], [])
        ids = sorted(scenario.shared_ids)[:2]
        gold = propagate_auto_referents(c, {"m1": GoldEntry(frozenset(ids))})
        assert gold["m3"].referents == frozenset(ids)
        assert gold["m2"].referents == frozenset(ids)

    def test_missing_manual_gold_raises(self, scenario):
        m1 = _mark(scenario, id="m1", start_token=2, end_token=3)
        m2 = _mark(scenario, id="m2", start_token=4, end_token=5, anaphora_of="m1")
        c = AnnotatedCorpus.build([scenario], [_dialogue(scenario)], [m1, m2], [])
        with pytest.raises(IntegrityError, match="m1"):
            propagate_auto_referents(c, {})

    def test_idempotent(self, medium_corpus):
        from refgame.agreement import aggregate_corpus_gold

        manual = {
            mid: entry
            for mid, entry in aggregate_corpus_gold(medium_corpus).items()
            if medium_corpus.markables[mid].is_manual
        }
        first = propagate_auto_referents(medium_corpus, manual)
        again = propagate_auto_referents(medium_corpus, {**manual, **first})
        assert first == again


class TestStats:
    def test_counts_add_up(self, medium_corpus):
        st = corpus_stats(medium_corpus)
        assert st.n_manual == (
            st.n_markables - st.n_all_referents - st.n_no_referent - st.n_anaphora - st.n_cataphora
        )
        assert st.n_dialogues == 60
        assert st.n_judgements == sum(len(v) for v in medium_corpus.judgements.values())
        assert 0 <= st.pct_ambiguous <= 100
        assert 0 <= st.pct_unidentifiable <= 100
        assert st.vocab_size == len(medium_corpus.vocabulary)

    def test_table_renders(self, small_corpus):
        assert "markables" in corpus_stats(small_corpus).table()


class TestSplit:
    def test_sizes_8_1_1(self):
        corpus = make_synthetic_corpus(10, seed=2)
        split = split_dataset(corpus, seed=0)
        assert (len(split.train), len(split.valid), len(split.test)) == (8, 1, 1)

    def test_sizes_follow_floor_rule(self):
        # stub corpus: split touches only the dialogue id set
        dialogues = {
            f"d{i}": Dialogue(id=f"d{i}", scenario_id="s", events=(), outcome=True)
            for i in range(5191)
        }
        corpus = AnnotatedCorpus(
            scenarios={}, dialogues=dialogues, markables={}, judgements={}
        )
        split = split_dataset(corpus, seed=1)
        assert (len(split.train), len(split.valid), len(split.test)) == (4153, 519, 519)

    def test_deterministic_and_disjoint(self, medium_corpus):
        s1 = split_dataset(medium_corpus, seed=9)
        s2 = split_dataset(medium_corpus, seed=9)
        assert s1 == s2
        all_ids = set(s1.train) | set(s1.valid) | set(s1.test)
        assert len(all_ids) == len(s1.train) + len(s1.valid) + len(s1.test)
        assert all_ids == set(medium_corpus.dialogues)

    def test_ids_must_be_a_list_of_strings(self):
        with pytest.raises(SchemaError, match="'train' must be a list of str"):
            Split.from_dict({"train": "abc", "valid": [], "test": [], "seed": 0})

    def test_too_small_corpus(self):
        corpus = make_synthetic_corpus(6, seed=2)
        with pytest.raises(ValueError):
            split_dataset(corpus, seed=0)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path, medium_corpus):
        save_corpus(medium_corpus, tmp_path / "c")
        loaded = load_corpus(tmp_path / "c")
        assert loaded.scenarios == medium_corpus.scenarios
        assert loaded.dialogues == medium_corpus.dialogues
        assert loaded.markables == medium_corpus.markables
        assert loaded.judgements == medium_corpus.judgements
        assert loaded.vocabulary == medium_corpus.vocabulary

    def test_empty_corpus_roundtrip(self, tmp_path):
        empty = AnnotatedCorpus.build([], [], [], [])
        save_corpus(empty, tmp_path / "empty")
        loaded = load_corpus(tmp_path / "empty")
        assert not loaded.dialogues and not loaded.markables

    def test_missing_file_schema_error(self, tmp_path):
        with pytest.raises(SchemaError):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("damage", ["event_not_object", "events_as_object", "link_is_list"])
    def test_damaged_record_schema_error(self, tmp_path, damage):
        save_corpus(make_synthetic_corpus(12, seed=3), tmp_path)
        name = "markables.json" if damage == "link_is_list" else "dialogues.json"
        records = json.loads((tmp_path / name).read_text())
        if damage == "event_not_object":
            records[0]["events"][0] = "hello"
        elif damage == "events_as_object":
            records[0]["events"] = {"type": "message", "speaker": "A", "tokens": ["hi"]}
        else:
            records[0]["anaphora_of"] = [records[1]["id"]]
        (tmp_path / name).write_text(json.dumps(records))
        with pytest.raises(SchemaError):
            load_corpus(tmp_path)

    # one coercion the loaders once made per case: (file, record, key, damaged value)
    @pytest.mark.parametrize("name,locate,key,value", [
        ("dialogues.json", lambda r: r["events"][0], "tokens", "hello"),
        ("dialogues.json", lambda r: r, "outcome", "false"),
        ("markables.json", lambda r: r, "generic", "no"),
        ("markables.json", lambda r: r, "start_token", 0.9),
        ("markables.json", lambda r: r, "end_token", True),
        ("judgements.json", lambda r: r, "referents", "12"),
        ("scenarios.json", lambda r: r["entities"][0], "id", 3.7),
    ], ids=["tokens", "outcome", "generic", "start_token", "end_token", "referents", "entity_id"])
    def test_coercible_value_schema_error(self, tmp_path, name, locate, key, value):
        save_corpus(make_synthetic_corpus(12, seed=3), tmp_path)
        records = json.loads((tmp_path / name).read_text())
        locate(records[1])[key] = value
        (tmp_path / name).write_text(json.dumps(records))
        with pytest.raises(SchemaError, match=re.escape(f"{name}, record 1: ") + f".*{key}"):
            load_corpus(tmp_path)

    # a scenario record that parses but does not describe a game: (damage, error)
    @pytest.mark.parametrize("damage,error", [
        (lambda r: r["views"]["A"]["visible"].pop(), "view A: visible must list 7 distinct ids"),
        (lambda r: r["views"]["B"]["visible"].__setitem__(0, 10_000), "view B: visible must list 7"),
        (lambda r: r["views"]["A"]["visible"].__setitem__(1, r["views"]["A"]["visible"][0]),
         "view A: visible must list 7 distinct ids"),
        (lambda r: r["entities"][1].__setitem__("id", r["entities"][0]["id"]), "duplicate entity ids"),
        (lambda r: r.__setitem__("num_shared", r["num_shared"] + 1), "num_shared is .*, but the views share"),
        (lambda r: r["entities"][0].__setitem__("x", 10**400), "Entity.x is too large for a float"),
        (lambda r: r["views"]["A"]["center"].__setitem__(0, 10**400),
         "an item of 'center' is too large for a float"),
    ], ids=["six_ids", "unknown_id", "repeated_id", "duplicate_entity", "num_shared",
            "huge_entity_x", "huge_view_center"])
    def test_damaged_scenario_schema_error(self, tmp_path, damage, error):
        save_corpus(make_synthetic_corpus(12, seed=3), tmp_path)
        records = json.loads((tmp_path / "scenarios.json").read_text())
        damage(records[1])
        (tmp_path / "scenarios.json").write_text(json.dumps(records))
        with pytest.raises(SchemaError, match=re.escape("scenarios.json, record 1: ") + error):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("name", ["scenarios.json", "dialogues.json", "markables.json"])
    def test_duplicate_id_integrity_error(self, tmp_path, name):
        save_corpus(make_synthetic_corpus(4, seed=3), tmp_path)
        records = json.loads((tmp_path / name).read_text())
        records.append(records[0])
        (tmp_path / name).write_text(json.dumps(records))
        with pytest.raises(IntegrityError, match=f"duplicate .* id {re.escape(records[0]['id'])}"):
            load_corpus(tmp_path)

    def test_saved_bytes_unchanged(self, tmp_path):
        save_corpus(make_synthetic_corpus(12, seed=3), tmp_path)
        digests = {n: hashlib.sha256((tmp_path / n).read_bytes()).hexdigest() for n in FILES}
        assert digests == {
            "scenarios.json": "aaf3366919b11f8ea7c7192cf9502e18787611a3380a265c8c9e96f2732ffaaf",
            "dialogues.json": "4932896432222774ec5f6f9a7ca1b3b8efe4b2d7934f3c49bb7d0be6ba0954c9",
            "markables.json": "09e298abca1626eff0ae625da47f15975f083a71202b2f505d7f36143c7bacd8",
            "judgements.json": "47fbc1d26f3d196f338f87cb84de8e74724678779ea30ce6e4e06ba1098f5209",
        }

    def test_a_corpus_in_the_indented_layout_still_loads(self, tmp_path):
        # corpora written before the one-record-per-line layout hold
        # json.dumps(records, indent=2) text
        corpus = make_synthetic_corpus(12, seed=3)
        save_corpus(corpus, tmp_path / "new")
        (tmp_path / "old").mkdir()
        for name in FILES:
            new = (tmp_path / "new" / name).read_text(encoding="utf-8")
            old = json.dumps(json.loads(new), indent=2, ensure_ascii=False) + "\n"
            assert old != new
            (tmp_path / "old" / name).write_text(old, encoding="utf-8")
        old, new = load_corpus(tmp_path / "old"), load_corpus(tmp_path / "new")
        assert old.scenarios == new.scenarios == corpus.scenarios
        assert old.dialogues == new.dialogues == corpus.dialogues
        assert old.markables == new.markables == corpus.markables
        assert old.judgements == new.judgements == corpus.judgements

    def test_judgement_referent_invariant_corpus_wide(self, medium_corpus):
        for mid, js in medium_corpus.judgements.items():
            visible = medium_corpus.visible_to_speaker(medium_corpus.markables[mid])
            for j in js:
                assert j.referents <= visible

    def test_span_disjointness_corpus_wide(self, medium_corpus):
        seen = {}
        for m in medium_corpus.markables.values():
            key = (m.dialogue_id, m.utterance_index)
            for other in seen.get(key, []):
                assert m.end_token <= other.start_token or other.end_token <= m.start_token
            seen.setdefault(key, []).append(m)

    def test_subset_corpus(self, medium_corpus):
        ids = sorted(medium_corpus.dialogues)[:5]
        keep = set(ids)
        dialogues = [d for i, d in medium_corpus.dialogues.items() if i in keep]
        markables = [m for m in medium_corpus.markables.values() if m.dialogue_id in keep]
        mk_ids = {m.id for m in markables}
        judgements = [
            j for js in medium_corpus.judgements.values() for j in js if j.markable_id in mk_ids
        ]
        scen_ids = {d.scenario_id for d in dialogues}
        scenarios = [s for i, s in medium_corpus.scenarios.items() if i in scen_ids]
        sub = AnnotatedCorpus.build(scenarios, dialogues, markables, judgements)
        assert set(sub.dialogues) == set(ids)
        assert all(m.dialogue_id in set(ids) for m in sub.markables.values())


# --- fuzz: a field given a JSON type it does not accept ------------------------

# every field of every record kind, with the JSON kinds it accepts; "[k]" is a
# list whose items are of kind k.  Events 0 and -1 of a synthetic dialogue are
# a message and a selection.
FIELDS = [
    ("scenarios.json", (), "id", "str"),
    ("scenarios.json", (), "entities", "[object]"),
    ("scenarios.json", (), "views", "object"),
    ("scenarios.json", (), "num_shared", "int"),
    *[("scenarios.json", ("entities", 0), k, "number") for k in ("x", "y", "size", "color")],
    ("scenarios.json", ("entities", 0), "id", "int"),
    ("scenarios.json", ("views", "A"), "center", "[number]"),
    ("scenarios.json", ("views", "B"), "radius", "number"),
    ("scenarios.json", ("views", "A"), "visible", "[int]"),
    *[("dialogues.json", (), k, "str") for k in ("id", "scenario_id")],
    ("dialogues.json", (), "events", "[object]"),
    ("dialogues.json", (), "outcome", "bool"),
    *[("dialogues.json", ("events", 0), k, "str") for k in ("type", "speaker")],
    ("dialogues.json", ("events", 0), "tokens", "[str]"),
    ("dialogues.json", ("events", -1), "entity_id", "int"),
    *[("markables.json", (), k, "str") for k in ("id", "dialogue_id", "speaker")],
    *[("markables.json", (), k, "int") for k in ("utterance_index", "start_token", "end_token")],
    *[("markables.json", (), k, "bool") for k in ("generic", "all_referents", "no_referent")],
    *[("markables.json", (), k, "str|null") for k in ("anaphora_of", "cataphora_of")],
    *[("judgements.json", (), k, "str") for k in ("markable_id", "annotator_id")],
    ("judgements.json", (), "referents", "[int]"),
    *[("judgements.json", (), k, "bool") for k in ("ambiguous", "unidentifiable")],
]

JSON_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-3, 300),
    "float": st.floats(-3, 300, allow_nan=False),
    "str": st.text(max_size=4),
    "list": st.lists(st.integers(0, 6), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
ACCEPTS = {"number": {"int", "float"}, "str|null": {"str", "null"}}


def _wrong_value(accepted: str):
    """A JSON value of a kind the field does not accept."""
    item = accepted[1:-1] if accepted.startswith("[") else None
    allowed = {"list"} if item else ACCEPTS.get(accepted, {accepted})
    wrong = st.sampled_from(sorted(JSON_KINDS.keys() - allowed)).flatmap(JSON_KINDS.get)
    if item is None:
        return wrong
    return st.one_of(wrong, st.lists(_wrong_value(item), min_size=1, max_size=3))


@cache
def _saved_corpus() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        save_corpus(make_synthetic_corpus(12, seed=3), tmp)
        return {name: json.loads((Path(tmp) / name).read_text()) for name in FILES}


@st.composite
def _damaged_corpus(draw):
    name, path, key, accepted = draw(st.sampled_from(FIELDS))
    records = copy.deepcopy(_saved_corpus())
    target = draw(st.sampled_from(records[name]))
    for step in path:
        target = target[step]
    target[key] = draw(_wrong_value(accepted))
    return records


@settings(max_examples=150, deadline=None)
@given(_damaged_corpus())
def test_wrong_json_type_schema_error(records):
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in records.items():
            (Path(tmp) / name).write_text(json.dumps(data))
        with pytest.raises(SchemaError):
            load_corpus(tmp)
