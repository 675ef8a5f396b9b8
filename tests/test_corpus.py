from __future__ import annotations

import numpy as np
import pytest

from refgame.corpus import (
    AnnotatedCorpus,
    Dialogue,
    GoldEntry,
    Markable,
    Message,
    ReferentJudgement,
    Selection,
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


class TestPropagation:
    def test_no_referent_flag(self, scenario):
        m = _mark(scenario, no_referent=True)
        c = AnnotatedCorpus.build([scenario], [_dialogue(scenario)], [m], [])
        gold = propagate_auto_referents(c)
        assert gold["m0"] == GoldEntry(frozenset())

    def test_all_referents_flag(self, scenario):
        m = _mark(scenario, all_referents=True)
        c = AnnotatedCorpus.build([scenario], [_dialogue(scenario)], [m], [])
        gold = propagate_auto_referents(c)
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
            propagate_auto_referents(c)

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
