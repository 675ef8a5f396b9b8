from __future__ import annotations

import json

import numpy as np
import pytest

from refgame.agreement import aggregate_corpus_gold
from refgame.corpus import AnnotatedCorpus, Split
from refgame.errors import GameAbortedError
from refgame.model import EOU, SEL, THEM, YOU, GroundingModel, ModelConfig, train_model
from refgame.scenario import ScenarioConfig, generate_scenario, generate_scenarios
from refgame.selfplay import (
    ModelAgent,
    ProtocolConfig,
    ScriptedAgent,
    center_agent,
    darkest_agent,
    pick_random,
    random_agent,
    run_batch,
    run_game,
    sample_token,
    temperature_weights,
)
from refgame.synth import make_synthetic_corpus

CFG = ScenarioConfig()


def pick_lowest_shared(scenario, view, rng) -> int:
    """Peeks at the full scenario, so both players always agree."""
    return min(scenario.shared_ids)

PROTO = ProtocolConfig(seed=0)


class TestTemperature:
    def test_quarter_temperature_renormalization(self):
        w = temperature_weights(np.array([0.6, 0.4]), 0.25)
        # p^4 renormalized: 0.6^4 / (0.6^4 + 0.4^4)
        assert w[0] == pytest.approx(0.6 ** 4 / (0.6 ** 4 + 0.4 ** 4))
        assert w[1] == pytest.approx(0.4 ** 4 / (0.6 ** 4 + 0.4 ** 4))
        assert w[0] == pytest.approx(0.8350515, abs=1e-6)

    def test_uniform_stays_uniform(self):
        for tau in (0.1, 0.5, 1.0, 3.0):
            w = temperature_weights(np.full(5, 0.2), tau)
            assert np.allclose(w, 0.2)

    def test_unit_temperature_identity(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        assert np.allclose(temperature_weights(p, 1.0), p)

    def test_low_temperature_approaches_argmax(self):
        w = temperature_weights(np.array([0.6, 0.4]), 0.01)
        assert w[0] > 0.999999

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            temperature_weights(np.array([1.0]), 0.0)

    def test_sampling_frequencies_match_weights(self):
        rng = np.random.default_rng(0)
        p = np.array([0.6, 0.4])
        draws = [sample_token(p, 0.25, rng) for _ in range(20000)]
        freq = np.mean(np.asarray(draws) == 0)
        assert freq == pytest.approx(0.8350515, abs=0.01)


class TestScriptedGames:
    def test_shared_pick_succeeds(self):
        scenario = generate_scenario(CFG, 4, np.random.default_rng(1))
        t = run_game(
            ScriptedAgent(pick_lowest_shared), ScriptedAgent(pick_lowest_shared),
            scenario, PROTO, np.random.default_rng(0),
        )
        assert t.success is True
        assert t.forced is False
        assert t.selections["A"] == t.selections["B"] == min(scenario.shared_ids)

    def test_distinct_picks_fail(self):
        scenario = generate_scenario(CFG, 4, np.random.default_rng(1))
        ids = sorted(scenario.shared_ids)

        def pick_first(s, v, r):
            return ids[0]

        def pick_second(s, v, r):
            return ids[1]

        t = run_game(
            ScriptedAgent(pick_first), ScriptedAgent(pick_second),
            scenario, PROTO, np.random.default_rng(0),
        )
        assert t.success is False

    def test_selection_visible_enforced(self):
        scenario = generate_scenario(CFG, 4, np.random.default_rng(1))
        b_private = next(
            e for e in scenario.view_b.visible if e not in scenario.view_a.visible
        )
        from refgame.errors import GameAbortedError

        with pytest.raises(GameAbortedError):
            run_game(
                ScriptedAgent(lambda s, v, r: b_private), ScriptedAgent(pick_random),
                scenario, PROTO, np.random.default_rng(0),
            )

    def test_forced_flag_when_no_selection(self):
        class Chatter(ScriptedAgent):
            def act(self):
                return ["hello", "there"], False

        scenario = generate_scenario(CFG, 5, np.random.default_rng(2))
        proto = ProtocolConfig(max_utterances=4, seed=0)
        t = run_game(
            Chatter(pick_lowest_shared), Chatter(pick_lowest_shared),
            scenario, proto, np.random.default_rng(0),
        )
        assert t.forced is True
        assert len(t.messages) == 4
        assert t.success is True  # both still pick the lowest shared entity

    def test_random_agent_rate_matches_closed_form(self):
        # uniform independent picks agree on one of the k shared entities
        # with probability k * (1/7)^2
        scenarios = generate_scenarios(CFG, {4: 1000}, seed=77)
        result = run_batch(random_agent, scenarios, ProtocolConfig(seed=5))
        assert result.games[4] == 1000
        expected = 4 / 49
        assert result.rates[4] == pytest.approx(expected, abs=0.02)

    @pytest.mark.parametrize("fault, message", [
        pytest.param("outside_view", "outside its view", id="outside_view"),
        pytest.param("raises", "ValueError('policy bug')", id="raises"),
    ])
    def test_aborted_game_does_not_lose_the_batch(self, fault, message):
        scenarios = generate_scenarios(CFG, {4: 3, 5: 3}, seed=21)
        bad = scenarios[1]

        def pick(scenario, view, rng):
            if scenario.id == bad.id:
                if fault == "raises":
                    raise ValueError("policy bug")
                return -1  # no such entity in any view
            return pick_lowest_shared(scenario, view, rng)

        result = run_batch(lambda: ScriptedAgent(pick), scenarios, ProtocolConfig(seed=0))
        assert [t.scenario_id for t in result.transcripts] == [s.id for s in scenarios]
        aborted = result.transcripts[1].to_dict()
        assert aborted["aborted"] is True
        assert message in aborted["abort_message"]
        for t in result.transcripts[:1] + result.transcripts[2:]:
            assert t.success and "aborted" not in t.to_dict()
        assert result.games == {4: 3, 5: 3}
        assert result.aborted == {4: 1, 5: 0}
        assert result.successes == {4: 2, 5: 3}
        assert result.rates == {4: 1.0, 5: 1.0}
        summary = result.summary(seconds=2.0)
        assert (summary["games"], summary["aborted_games"]) == (6, 1)
        assert summary["forced_rate"] == 0.0
        assert summary["games_per_s"] == 3.0

    def test_center_agent_monotone_smoke(self):
        scenarios = generate_scenarios(CFG, {4: 200, 5: 200, 6: 200}, seed=13)
        result = run_batch(center_agent, scenarios, ProtocolConfig(seed=2))
        assert result.rates[4] < result.rates[6]


class TestTranscript:
    def test_batch_deterministic(self):
        scenarios = generate_scenarios(CFG, {4: 20}, seed=3)
        a = run_batch(random_agent, scenarios, ProtocolConfig(seed=9))
        b = run_batch(random_agent, scenarios, ProtocolConfig(seed=9))
        assert a.rates == b.rates
        assert [t.to_dict() for t in a.transcripts] == [t.to_dict() for t in b.transcripts]

    def test_jsonl_roundtrip(self):
        scenarios = generate_scenarios(CFG, {5: 3}, seed=4)
        result = run_batch(center_agent, scenarios, ProtocolConfig(seed=1))
        lines = result.transcripts_jsonl().strip().splitlines()
        assert len(lines) == 3
        for line, t in zip(lines, result.transcripts):
            assert json.loads(line) == t.to_dict()

    def test_summary_csv_shape(self):
        scenarios = generate_scenarios(CFG, {4: 2, 5: 2, 6: 2}, seed=4)
        result = run_batch(center_agent, scenarios, ProtocolConfig(seed=1))
        lines = result.summary_csv().strip().splitlines()
        assert lines[0] == "num_shared,games,successes,success_rate"
        assert len(lines) == 4

    def test_transcript_to_dialogue_validates(self):
        scenarios = generate_scenarios(CFG, {6: 3}, seed=6)
        result = run_batch(center_agent, scenarios, ProtocolConfig(seed=1))
        for i, t in enumerate(result.transcripts):
            d = t.to_dialogue(f"game{i}")
            corpus = AnnotatedCorpus.build(
                [scenarios[i]], [d], [], [],
            )
            assert corpus.dialogues[f"game{i}"].outcome == t.success


@pytest.fixture(scope="module")
def tiny_model():
    corpus = make_synthetic_corpus(8, seed=60, flip_rate=0.0)
    gold = aggregate_corpus_gold(corpus)
    ids = tuple(sorted(corpus.dialogues))
    split = Split(train=ids, valid=ids, test=ids, seed=0)
    cfg = ModelConfig(
        variant="TSEL-REF-DIAL", embed_dim=24, hidden_dim=32, attr_dim=12, rel_dim=12,
        attn_dim=24, mlp_dim=32, dropout=0.0, epochs=15, patience=15, batch_size=4,
        lr=3e-3, seed=2,
    )
    return train_model(cfg, corpus, split, gold).model


class RefeedingAgent(ModelAgent):
    """Reference agent: decodes on a throwaway fork and feeds every observed
    utterance token by token, its own included."""

    def act(self):
        vocab = self.model.vocab
        out, wants_selection = [], False
        state = self.state.fork()
        state.feed(vocab.encode(YOU))
        for _ in range(self.max_tokens):
            probs = state.next_token_probs().copy()
            for t in self.forbidden:
                probs[t] = 0.0
            total = probs.sum()
            if total <= 0:
                raise GameAbortedError("model assigned zero mass to all legal tokens")
            token_id = sample_token(probs / total, self.temperature, self.rng)
            token = vocab.decode(token_id)
            if token == SEL:
                wants_selection = True
                break
            if token == EOU:
                break
            out.append(token)
            state.feed(token_id)
        return out, wants_selection

    def observe(self, speaker_is_self, tokens):
        encode = self.model.vocab.encode
        self.state.feed(encode(YOU if speaker_is_self else THEM))
        for t in tokens:
            self.state.feed(encode(t))
        self.state.feed(encode(EOU))


class LoggedAgent(ModelAgent):
    """ModelAgent that records the (length, wants_selection) of each act."""

    def __init__(self, *args, log, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = log

    def act(self):
        tokens, wants_selection = super().act()
        self.log.append((len(tokens), wants_selection))
        return tokens, wants_selection


class TestModelAgent:
    def test_feed_once_matches_refeeding(self, tiny_model):
        # Biasing <eou> and [SEL] at temperature 1 makes games that hit each
        # observe() path: utterances cut by the protocol's token cap, empty
        # utterances, and selections with and without tokens.
        model = GroundingModel(tiny_model.config, tiny_model.vocab)
        model.store.load_values(tiny_model.store.copy_values())
        model.store["dial.b2"][model.vocab.encode(EOU)] += 0.5
        model.store["dial.b2"][model.vocab.encode(SEL)] += 0.5
        cap, max_tokens = 4, 12
        proto = ProtocolConfig(temperature=1.0, max_utterances=6, max_tokens_per_utterance=cap)
        log: list[tuple[int, bool]] = []
        for i, scenario in enumerate(generate_scenarios(CFG, {4: 3, 6: 3}, seed=11)):
            ref = [RefeedingAgent(model, temperature=1.0, max_tokens=max_tokens) for _ in "AB"]
            new = [LoggedAgent(model, temperature=1.0, max_tokens=max_tokens, log=log)
                   for _ in "AB"]
            expected = run_game(*ref, scenario, proto, np.random.default_rng(i))
            got = run_game(*new, scenario, proto, np.random.default_rng(i))
            assert got.to_dict() == expected.to_dict()
            for r, n in zip(ref, new):
                assert np.array_equal(n.state.h, r.state.h)
        assert any(n > cap for n, _ in log)
        assert (0, False) in log and (0, True) in log
        assert any(n > 0 and sel for n, sel in log)

    def test_reset_drops_the_decoded_ahead_state(self, tiny_model):
        scenario = generate_scenario(CFG, 5, np.random.default_rng(8))
        agent = ModelAgent(tiny_model, temperature=1.0, max_tokens=12)
        ref = RefeedingAgent(tiny_model, temperature=1.0, max_tokens=12)
        for a in (agent, ref):
            a.reset(scenario, "A", np.random.default_rng(0))
        tokens, _ = agent.act()
        ref.act()
        for a in (agent, ref):
            a.reset(scenario, "B", np.random.default_rng(1))
            a.observe(True, tokens)
        assert np.array_equal(agent.state.h, ref.state.h)
        assert np.array_equal(agent.state.tsel_probs(), ref.state.tsel_probs())

    def test_game_replays_identically(self, tiny_model):
        scenario = generate_scenario(CFG, 5, np.random.default_rng(8))
        proto = ProtocolConfig(seed=0, max_utterances=6, max_tokens_per_utterance=12)
        runs = []
        for _ in range(2):
            t = run_game(
                ModelAgent(tiny_model, temperature=0.25, max_tokens=12),
                ModelAgent(tiny_model, temperature=0.25, max_tokens=12),
                scenario, proto, np.random.default_rng(42),
            )
            runs.append(t.to_dict())
        assert runs[0] == runs[1]

    def test_model_tokens_are_real_vocabulary(self, tiny_model):
        from refgame.model import EOU, SEL, THEM, YOU

        scenario = generate_scenario(CFG, 6, np.random.default_rng(9))
        proto = ProtocolConfig(seed=1, max_utterances=6, max_tokens_per_utterance=12)
        t = run_game(
            ModelAgent(tiny_model, temperature=0.5, max_tokens=12),
            ModelAgent(tiny_model, temperature=0.5, max_tokens=12),
            scenario, proto, np.random.default_rng(7),
        )
        for msg in t.messages:
            for token in msg["tokens"]:
                assert token in tiny_model.vocab.index
                assert token not in (YOU, THEM, EOU, SEL)
        assert t.selections["A"] in scenario.view_a.visible
        assert t.selections["B"] in scenario.view_b.visible

    def test_model_batch_runs(self, tiny_model):
        scenarios = generate_scenarios(CFG, {4: 3, 6: 3}, seed=10)
        proto = ProtocolConfig(seed=3, max_utterances=6, max_tokens_per_utterance=12)
        result = run_batch(
            lambda: ModelAgent(tiny_model, temperature=0.25, max_tokens=12),
            scenarios, proto,
        )
        assert result.games == {4: 3, 6: 3}

    def test_variant_without_dial_rejected(self):
        corpus = make_synthetic_corpus(2, seed=61)
        ids = tuple(sorted(corpus.dialogues))
        from refgame.model import GroundingModel, Vocabulary

        vocab = Vocabulary.from_corpus(corpus, ids)
        model = GroundingModel(
            ModelConfig(variant="TSEL", embed_dim=5, hidden_dim=6, attr_dim=4,
                        rel_dim=3, attn_dim=5, mlp_dim=6, dropout=0.0), vocab
        )
        with pytest.raises(ValueError):
            ModelAgent(model, 0.25, 30)


@pytest.fixture(scope="module")
def tiny_tagger():
    from refgame.tagger import TaggerConfig, train_tagger

    corpus = make_synthetic_corpus(7, seed=50)
    ids = tuple(sorted(corpus.dialogues))
    split = Split(train=ids, valid=ids, test=ids, seed=0)
    return train_tagger(
        corpus, split,
        TaggerConfig(embed_dim=16, hidden_dim=24, epochs=10, patience=10,
                     batch_size=4, lr=5e-3, seed=0),
    ).tagger


class TestAnnotation:
    def test_annotate_transcript_pipeline(self, tiny_model, tiny_tagger, tmp_path):
        from refgame.render import render_dialogue
        from refgame.selfplay import annotate_transcript

        scenario = generate_scenario(CFG, 5, np.random.default_rng(12))
        proto = ProtocolConfig(seed=2, max_utterances=6, max_tokens_per_utterance=12)
        transcript = run_game(
            ModelAgent(tiny_model, temperature=0.25, max_tokens=12),
            ModelAgent(tiny_model, temperature=0.25, max_tokens=12),
            scenario, proto, np.random.default_rng(3),
        )
        dialogue, markables, refs = annotate_transcript(
            transcript, scenario, tiny_model, tiny_tagger
        )
        assert transcript.predicted_referents is not None
        assert set(transcript.predicted_referents) == {m.id for m in markables} & set(refs)
        for mid, entities in refs.items():
            m = next(mk for mk in markables if mk.id == mid)
            assert entities <= frozenset(scenario.view(m.speaker).visible)
        # empty predictions render as plain underlines; page builds either way
        html = render_dialogue(dialogue, scenario, markables, refs)
        assert html.startswith("<!DOCTYPE html>")
        assert transcript.to_dict().get("predicted_referents") is not None

    def test_predictions_are_the_thresholded_ref_head(self, tiny_model, tiny_tagger):
        from refgame.corpus import GoldEntry, Message
        from refgame.model import REF_THRESHOLD, dialogue_examples
        from refgame.selfplay import GameTranscript, annotate_transcript

        corpus = make_synthetic_corpus(6, seed=51)
        referred = 0
        for d in corpus.dialogues.values():
            # a corpus dialogue replayed as a finished game
            transcript = GameTranscript(
                scenario_id=d.scenario_id, num_shared=0, seed=0, success=d.outcome,
                messages=[{"speaker": e.speaker, "tokens": list(e.tokens)}
                          for e in d.events if isinstance(e, Message)],
                selections=dict(d.selections),
            )
            scenario = corpus.scenarios[d.scenario_id]
            dialogue, markables, refs = annotate_transcript(transcript, scenario, tiny_model, tiny_tagger)
            unknown = {m.id: GoldEntry(frozenset()) for m in markables}
            expected = {}
            for ex in dialogue_examples(dialogue, scenario, tiny_model.vocab, markables, unknown):
                for mid, row in zip(ex.markable_ids, tiny_model.predict(ex)["ref"] >= REF_THRESHOLD):
                    expected[mid] = frozenset(np.asarray(ex.entity_ids)[row].tolist())
            assert set(expected) == {m.id for m in markables}
            assert refs == expected
            referred += sum(len(v) > 0 for v in refs.values())
        assert referred > 0


def test_run_batch_jobs_match_sequential():
    from refgame.scenario import generate_scenarios

    scenarios = generate_scenarios(CFG, {4: 8, 6: 8}, seed=3)
    seq = run_batch(darkest_agent, scenarios, ProtocolConfig(seed=9), jobs=1)
    par = run_batch(darkest_agent, scenarios, ProtocolConfig(seed=9), jobs=2)
    assert [t.to_dict() for t in seq.transcripts] == [t.to_dict() for t in par.transcripts]
    assert seq.rates == par.rates
