from __future__ import annotations

import copy
import ctypes
import json
import pickle
from dataclasses import replace
from functools import partial
from itertools import zip_longest

import numpy as np
import pytest

from refgame.agreement import aggregate_corpus_gold
from refgame.corpus import AnnotatedCorpus, Split
from refgame.errors import GameAbortedError
from refgame.model import (
    EOU, REF_THRESHOLD, SEL, THEM, YOU, DecoderState, GroundingModel, ModelConfig, train_model,
)
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
        draws = [sample_token(p[None], 0.25, [rng])[0] for _ in range(20000)]
        freq = np.mean(np.asarray(draws) == 0)
        assert freq == pytest.approx(0.8350515, abs=0.01)

    def test_draw_equals_generator_choice(self):
        # 2,400 seeded cases, a tenth of them one-hot and a quarter float32:
        # the token equals rng.choice's over the same weights, and so does
        # the generator's next draw
        rows, temperatures, rngs, expected, next_draws = [], [], [], [], []
        for seed in range(2400):
            case = np.random.default_rng([seed, 1])
            size = int(case.integers(2, 60))
            probs = case.dirichlet(np.full(size, 0.3))
            if seed % 10 == 0:
                probs = np.eye(size)[case.integers(size)]
            if seed % 4 == 1:
                probs = probs.astype(np.float32)
            temperature = (0.25, 1.0)[seed % 2]
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            want = int(ref.choice(size, p=temperature_weights(probs, temperature)))
            assert sample_token(probs[None], temperature, [rng]) == [want]
            next_draw = ref.random()
            assert rng.random() == next_draw
            if size == 12 and probs.dtype == np.float64:
                rows.append(probs)
                temperatures.append([temperature])
                rngs.append(np.random.default_rng(seed))
                expected.append(want)
                next_draws.append(next_draw)
        # the row-wise form: one row per rng, each temperature its own, with
        # a NaN row and a NaN-temperature row among the healthy ones
        assert len(rows) > 10
        bad = {2: (np.full(12, np.nan), 1.0), 5: (np.full(12, 1 / 12), np.nan)}
        for k, (row, temperature) in bad.items():
            rows.insert(k, row)
            temperatures.insert(k, [temperature])
            rngs.insert(k, np.random.default_rng(k))
        got = sample_token(np.array(rows), np.array(temperatures), rngs)
        for k in sorted(bad, reverse=True):
            assert isinstance(got[k], ValueError) and "degenerate" in str(got[k])
            assert rngs[k].bit_generator.state == np.random.default_rng(k).bit_generator.state
            del got[k], rngs[k]
        assert got == expected
        assert [rng.random() for rng in rngs] == next_draws

    def test_model_agent_rejects_a_temperature_that_is_not_positive(self, tiny_model):
        # checked where the agent is made, before its game shares any tick
        for temperature in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="temperature must be > 0"):
                ModelAgent(tiny_model, temperature, 12)

    def test_row_weights_equal_one_row_weights(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(30), size=8)
        temperature = np.array([[0.25], [1.0]] * 4)
        rows = temperature_weights(probs, temperature)
        for row, p, t in zip(rows, probs, temperature[:, 0]):
            assert np.array_equal(row, temperature_weights(p, t))


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
        t = run_game(
            ScriptedAgent(lambda s, v, r: b_private), ScriptedAgent(pick_random),
            scenario, PROTO, np.random.default_rng(0),
        )
        assert t.to_dict() == {
            "scenario_id": scenario.id, "num_shared": 4, "seed": PROTO.seed, "messages": [],
            "selections": {}, "success": False, "forced": False, "aborted": True,
            "abort_message": f"agent A selected entity {b_private} outside its view",
        }

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

    def test_annotated_games_make_a_corpus(self, tmp_path):
        from refgame.corpus import Markable, Message, ReferentJudgement, load_corpus, save_corpus
        from refgame.selfplay import BatchResult, GameTranscript

        scenarios = generate_scenarios(CFG, {4: 2, 6: 2}, seed=8)
        views = [(s.view("A").visible, s.view("B").visible) for s in scenarios]

        def game(i, messages, markables, predicted, aborted=False):
            picks = {"A": int(views[i][0][0]), "B": int(views[i][1][0])}
            return GameTranscript(
                scenario_id=scenarios[i].id, num_shared=scenarios[i].num_shared, seed=0,
                messages=[{"speaker": who, "tokens": line.split()} for who, line in messages],
                selections={} if aborted else picks, success=picks["A"] == picks["B"],
                predicted_referents=predicted, markables=markables, aborted=aborted,
            )

        a0 = Markable("game00000_auto_0_1", "game00000", 0, 1, 3, "A")
        b0 = Markable("game00000_auto_1_0", "game00000", 1, 0, 2, "B")
        a3 = Markable("game00003_auto_0_0", "game00003", 0, 0, 1, "A")
        a_refs, b_refs = sorted(map(int, views[0][0][:2])), [int(views[0][1][3])]
        result = BatchResult([
            game(0, [("A", "the dark dot"), ("B", "big one ?")], [a0, b0],
                 {a0.id: a_refs, b0.id: b_refs}),
            game(1, [], None, None, aborted=True),       # aborted: no dialogue
            game(2, [("A", "hello")], [], {}),           # finished, with no markable detected
            game(3, [("A", "it")], [a3], {a3.id: []}),   # a markable predicted to refer to nothing
        ])
        corpus = result.corpus(scenarios)
        assert list(corpus.scenarios) == [scenarios[i].id for i in (0, 2, 3)]
        assert list(corpus.dialogues) == ["game00000", "game00002", "game00003"]
        assert corpus.dialogues["game00000"].messages == (
            Message("A", ("the", "dark", "dot")), Message("B", ("big", "one", "?")))
        assert list(corpus.markables.values()) == [a0, b0, a3]
        assert corpus.judgements == {
            a0.id: (ReferentJudgement(a0.id, "speaker-model", frozenset(a_refs)),),
            b0.id: (ReferentJudgement(b0.id, "speaker-model", frozenset(b_refs)),),
            a3.id: (ReferentJudgement(a3.id, "speaker-model", frozenset()),),
        }
        save_corpus(corpus, tmp_path / "corpus")
        assert load_corpus(tmp_path / "corpus") == corpus


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
            probs = DecoderState.next_token_probs([state])[0]
            for t in self.forbidden:
                probs[t] = 0.0
            total = probs.sum()
            if total <= 0:
                raise GameAbortedError("model assigned zero mass to all legal tokens")
            [token_id] = sample_token((probs / total)[None], self.temperature, [self.rng])
            if isinstance(token_id, ValueError):
                raise token_id
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


class FailingSelect(ModelAgent):
    """ModelAgent whose select raises on one scenario."""

    def __init__(self, *args, bad: str, **kwargs):
        super().__init__(*args, **kwargs)
        self.bad = bad
        self.scenario_id = None

    def reset(self, scenario, role, rng):
        super().reset(scenario, role, rng)
        self.scenario_id = scenario.id

    def select(self):
        if self.scenario_id == self.bad:
            raise RuntimeError("select failed")
        return super().select()


def record_draws(monkeypatch, log: dict, sizes: list):
    """Wrap sample_token to log, per rng, each row it draws from and the
    uniform draw it is about to make, and each call's row count."""
    from refgame import selfplay

    real = selfplay.sample_token

    def sample(probs, temperature, rng):
        sizes.append(len(probs))
        for row, r in zip(probs, rng):
            log.setdefault(id(r), []).append((row.copy(), copy.deepcopy(r).random()))
        return real(probs, temperature, rng)

    monkeypatch.setattr(selfplay, "sample_token", sample)


def model_copy(model, dtype=None):
    config = model.config if dtype is None else replace(model.config, dtype=dtype)
    out = GroundingModel(config, model.vocab)
    out.store.load_values({k: v.astype(config.dtype) for k, v in model.store.copy_values().items()})
    return out


def play(model_a, model_b, scenarios, protocol, seeds, agent=ModelAgent, **kwargs):
    """The games of ``scenarios`` in one lockstep run_game call."""
    def agents(model):
        return [agent(model, protocol.temperature, protocol.max_tokens_per_utterance, **kwargs)
                for _ in scenarios]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    return run_game(agents(model_a), agents(model_b), scenarios, protocol, rngs), rngs


class UtteranceLog(ModelAgent):
    """ModelAgent that keeps each (tokens, wants_selection) its ``utter``
    decodes; it leaves ``act`` alone, so it still plays in lockstep."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.said: list[tuple[list[str], bool]] = []

    def utter(self, *listener):
        yield from super().utter(*listener)
        self.said.append(self._utterance)


def alternate(said_a, said_b) -> list[tuple[str, list[str], bool]]:
    """A game's turns, (speaker, tokens, wants_selection), A first."""
    pairs = zip_longest([("A", *u) for u in said_a], [("B", *u) for u in said_b])
    return [turn for pair in pairs for turn in pair if turn is not None]


def critical_path(turns, max_tokens: int) -> int:
    """The ticks of one game between two lockstep ModelAgents, from its
    turns.  A turn feeds the speaker's queued tokens, then draws each token
    and the ``<eou>`` or ``[SEL]`` that ends it (none at the token cap,
    where the last token is fed after the last draw).  The listener, whose
    queue is never longer than the speaker's, steps it and then ``<them>``
    and each token in those same ticks.  An observed utterance leaves both
    sides the tokens not yet stepped plus ``<eou>``; an empty one leaves the
    speaker nothing and the listener its queue.  ``[SEL]`` queues a prefix,
    ``[SEL]`` and ``<eou>`` on both sides, and both queues are stepped in
    the same ticks before the selections."""
    queue = {"A": 0, "B": 0}
    ticks = 0
    for speaker, tokens, wants_selection in turns:
        capped = len(tokens) == max_tokens
        ticks += queue[speaker] + len(tokens) + (not capped)
        if tokens:
            queue = dict.fromkeys(queue, capped + 1)
        else:
            queue[speaker] = 0
        if wants_selection:
            queue = {role: n + 3 for role, n in queue.items()}
    return ticks + max(queue.values())


class TestLockstep:
    PROTO = ProtocolConfig(seed=8, temperature=1.0, max_utterances=6, max_tokens_per_utterance=12)

    def test_lockstep_matches_one_game_at_a_time(self, tiny_model, monkeypatch):
        log: dict = {}
        sizes: list = []
        record_draws(monkeypatch, log, sizes)
        scenarios = generate_scenarios(CFG, {4: 70, 5: 70, 6: 70}, seed=31)
        seeds = np.random.SeedSequence(8).spawn(len(scenarios))
        lockstep, lockstep_rngs = [], []
        for lo in range(0, len(scenarios), 16):
            transcripts, rngs = play(tiny_model, tiny_model, scenarios[lo: lo + 16], self.PROTO,
                                     seeds[lo: lo + 16])
            lockstep += transcripts
            lockstep_rngs += rngs
        assert max(sizes) == 16
        sizes.clear()
        problems, alone_rngs = [], []  # the rngs stay alive, so their ids stay distinct
        for g, (scenario, seed) in enumerate(zip(scenarios, seeds)):
            [alone], [rng] = play(tiny_model, tiny_model, [scenario], self.PROTO, [seed])
            alone_rngs.append(rng)
            draws, alone_draws = log[id(lockstep_rngs[g])], log[id(rng)]
            for k, ((row, u), (alone_row, _)) in enumerate(zip(draws, alone_draws)):
                if not np.allclose(row, alone_row, rtol=0, atol=1e-12):
                    problems.append(f"game {g} draw {k}: probabilities differ by "
                                    f"{np.max(np.abs(row - alone_row)):.2e}")
                cdfs = [np.cumsum(temperature_weights(r, self.PROTO.temperature)) for r in (row, alone_row)]
                if len({int(c.searchsorted(u * c[-1], side="right")) for c in cdfs}) > 1:
                    margin = np.min(np.abs(cdfs[0] / cdfs[0][-1] - u))
                    problems.append(f"game {g} draw {k}: the token flipped, cdf margin {margin:.2e}")
                    break
            if lockstep[g].to_dict() != alone.to_dict():
                problems.append(f"game {g}: transcripts differ")
            assert len(draws) == len(alone_draws) or problems
        assert max(sizes) == 1  # one game alone draws one row at a time
        assert problems == []
        assert sum(len(t.messages) for t in lockstep) > 200

    def test_failed_select_aborts_only_its_game(self, tiny_model):
        scenarios = generate_scenarios(CFG, {4: 8, 6: 8}, seed=12)
        seeds = np.random.SeedSequence(3).spawn(16)
        bad = scenarios[5].id
        every, _ = play(tiny_model, tiny_model, scenarios, self.PROTO, seeds, FailingSelect, bad=bad)
        rest, _ = play(tiny_model, tiny_model, scenarios[:5] + scenarios[6:], self.PROTO,
                       seeds[:5] + seeds[6:], FailingSelect, bad=bad)
        assert every[5].aborted and "select failed" in every[5].abort_message
        assert bad in every[5].abort_message
        assert [t.to_dict() for t in every[:5] + every[6:]] == [t.to_dict() for t in rest]
        assert not any(t.aborted for t in rest)
        a, b = (FailingSelect(tiny_model, 1.0, 12, bad=bad) for _ in "AB")
        alone = run_game(a, b, scenarios[5], self.PROTO, np.random.default_rng(seeds[5]))
        assert alone.aborted and "select failed" in alone.abort_message
        assert alone.to_dict() == every[5].to_dict()

    @pytest.mark.parametrize("bias, temperature, message", [
        pytest.param(-np.inf, 1.0, "zero mass to all legal tokens", id="zero-mass"),
        pytest.param(np.nan, 1.0, "degenerate distribution", id="degenerate"),
        pytest.param(None, np.nan, "degenerate distribution", id="degenerate-shared-model"),
    ])
    def test_a_bad_row_aborts_only_its_game(self, tiny_model, bias, temperature, message):
        # game 2's agents speak from a model whose legal tokens all score
        # `bias`, or from the healthy games' own model at a NaN temperature
        # (set after the agent is made, as its constructor refuses one);
        # they share the lockstep ticks with the healthy games
        broken = tiny_model
        if bias is not None:
            broken = model_copy(tiny_model)
            legal = np.ones(len(broken.vocab), dtype=bool)
            legal[[broken.vocab.encode(YOU), broken.vocab.encode(THEM)]] = False
            broken.store["dial.b2"][legal] = bias
        scenarios = generate_scenarios(CFG, {5: 6}, seed=14)
        seeds = np.random.SeedSequence(5).spawn(6)
        rngs = [np.random.default_rng(seed) for seed in seeds]

        def agents():
            made = [ModelAgent(broken if g == 2 else tiny_model, 1.0, 12) for g in range(6)]
            made[2].temperature = temperature
            return made

        got = run_game(agents(), agents(), scenarios, self.PROTO, rngs)
        healthy, _ = play(tiny_model, tiny_model, scenarios[:2] + scenarios[3:], self.PROTO,
                          seeds[:2] + seeds[3:])
        assert got[2].aborted and message in got[2].abort_message
        assert [t.to_dict() for t in got[:2] + got[3:]] == [t.to_dict() for t in healthy]
        # the game alone ends as the same aborted transcript
        [a], [b] = agents()[2:3], agents()[2:3]
        alone = run_game(a, b, scenarios[2], self.PROTO, np.random.default_rng(seeds[2]))
        assert alone.to_dict() == got[2].to_dict()
        # an agent acting outside any game raises its error
        a.reset(scenarios[2], "A", np.random.default_rng(seeds[2]))
        with pytest.raises((GameAbortedError, ValueError), match=message):
            a.act()

    def test_each_utterance_comes_from_act(self, tiny_model, monkeypatch):
        # wrapped on the class, as a tracer wraps it: lockstep games still
        # take every utterance from act, once per turn
        said = []
        act = ModelAgent.act

        def recorded(agent):
            out = act(agent)
            said.append((id(agent), list(out[0])))
            return out

        monkeypatch.setattr(ModelAgent, "act", recorded)
        scenarios = generate_scenarios(CFG, {4: 3, 6: 3}, seed=17)
        transcripts, _ = play(tiny_model, tiny_model, scenarios, self.PROTO,
                              np.random.SeedSequence(7).spawn(6))
        spoken = sorted(tuple(m["tokens"]) for t in transcripts for m in t.messages)
        assert sorted(tuple(tokens) for _, tokens in said if tokens) == spoken
        assert len(spoken) > 6

    @pytest.mark.parametrize("games", [1, 12])
    def test_ticks_follow_the_listener_lockstep_schedule(self, tiny_model, monkeypatch, games):
        from refgame import selfplay

        ticks = []
        real = selfplay.step_queued
        monkeypatch.setattr(selfplay, "step_queued", lambda states: (ticks.append(len(states)), real(states)))
        model, proto = biased(tiny_model), replace(self.PROTO, max_utterances=4)
        scenarios = generate_scenarios(CFG, {4: 6, 6: 6}, seed=18)
        seeds = np.random.SeedSequence(9).spawn(len(scenarios))
        forced = set()
        for g in range(0, len(scenarios), games):
            agents = [[UtteranceLog(model, proto.temperature, proto.max_tokens_per_utterance)
                       for _ in scenarios[g: g + games]] for _ in "AB"]
            rngs = [np.random.default_rng(seed) for seed in seeds[g: g + games]]
            ticks.clear()
            transcripts = run_game(*agents, scenarios[g: g + games], proto, rngs)
            for t, a, b in zip(transcripts, *agents):
                assert not t.aborted and [m["tokens"] for m in t.messages] == [
                    out for _, out, _ in alternate(a.said, b.said) if out]
                forced.add(t.forced)
            expected = [critical_path(alternate(a.said, b.said), proto.max_tokens_per_utterance)
                        for a, b in zip(*agents)]
            assert len(ticks) == max(expected)
            assert max(ticks) <= 2 * games  # a speaker and its listener per game
        assert forced == {True, False}
        assert max(ticks) == 2 * games

    def test_two_models_in_one_batch(self, tiny_model):
        # A and B speak from different models: each model's rows get their
        # own GRU step and DIAL head call in every tick
        other = model_copy(tiny_model)
        other.store["dial.b2"][other.vocab.encode(EOU)] += 1.0
        scenarios = generate_scenarios(CFG, {4: 5, 6: 5}, seed=15)
        seeds = np.random.SeedSequence(6).spawn(10)
        together, _ = play(tiny_model, other, scenarios, self.PROTO, seeds)
        alone = [play(tiny_model, other, [s], self.PROTO, [seed])[0][0] for s, seed in zip(scenarios, seeds)]
        assert [t.to_dict() for t in together] == [t.to_dict() for t in alone]

    def test_float32_models_stay_float32(self, tiny_model, monkeypatch):
        log: dict = {}
        record_draws(monkeypatch, log, [])
        model32 = model_copy(tiny_model, "float32")
        scenarios = generate_scenarios(CFG, {4: 4, 6: 4}, seed=16)
        agents_a = [ModelAgent(model32, 1.0, 12) for _ in scenarios]
        agents_b = [ModelAgent(model32, 1.0, 12) for _ in scenarios]
        rngs = [np.random.default_rng(i) for i in range(len(scenarios))]
        transcripts = run_game(agents_a, agents_b, scenarios, self.PROTO, rngs)
        assert not any(t.aborted for t in transcripts)
        assert sum(len(t.messages) for t in transcripts) > 0
        assert {row.dtype for draws in log.values() for row, _ in draws} == {np.dtype(np.float32)}
        states = [a.state for a in agents_a + agents_b]
        assert {s.h.dtype for s in states} == {np.dtype(np.float32)}
        assert DecoderState.next_token_probs(states).dtype == np.float32
        assert DecoderState.next_token_probs(states[:1]).dtype == np.float32


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
                for mid, row in zip(ex.markable_ids, tiny_model.predict([ex])[0]["ref"] >= REF_THRESHOLD):
                    expected[mid] = frozenset(np.asarray(ex.entity_ids)[row].tolist())
            assert set(expected) == {m.id for m in markables}
            assert refs == expected
            referred += sum(len(v) > 0 for v in refs.values())
        assert referred > 0


def spy_ref_probs(monkeypatch) -> list:
    """Wrap ``GroundingModel.ref_probs_at`` to record, for each example it
    is given, whether it carried play states, its REF probabilities, and
    the probabilities of the packed GRU pass over the same example."""
    calls = []
    real = GroundingModel.ref_probs_at

    def ref_probs_at(self, examples):
        got = real(self, examples)
        packed = real(self, [replace(ex, states=None) for ex in examples])
        calls.extend((ex.states is not None, g, p) for ex, g, p in zip(examples, got, packed))
        return got

    monkeypatch.setattr(GroundingModel, "ref_probs_at", ref_probs_at)
    return calls


def biased(model, dtype=None):
    """A copy of ``model`` that ends utterances and signals selection more
    often, so that games hold short, empty and selecting utterances."""
    out = model_copy(model, dtype)
    out.store["dial.b2"][out.vocab.encode(EOU)] += 0.5
    out.store["dial.b2"][out.vocab.encode(SEL)] += 0.5
    return out


class TestPlayStates:
    """Annotation reads a model-vs-model game's REF rows from the states
    its agents stepped to in play; they equal the packed GRU pass's."""

    CASES = {
        "forced": ProtocolConfig(seed=1, temperature=1.0, max_utterances=2, max_tokens_per_utterance=12),
        "truncated": ProtocolConfig(seed=2, temperature=1.0, max_utterances=6, max_tokens_per_utterance=4),
        "selecting": ProtocolConfig(seed=3, temperature=1.0, max_utterances=8, max_tokens_per_utterance=12),
    }

    def play_and_annotate(self, model, tagger, protocol, seed, monkeypatch):
        from refgame.selfplay import annotate_transcript

        calls = spy_ref_probs(monkeypatch)
        log: list[tuple[int, bool]] = []
        scenarios = generate_scenarios(CFG, {4: 6, 5: 6, 6: 6}, seed=seed)
        agents = [[LoggedAgent(model, 1.0, 12, log=log) for _ in scenarios] for _ in "AB"]
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(len(scenarios))]
        transcripts = run_game(*agents, scenarios, protocol, rngs)
        assert not any(t.aborted for t in transcripts)
        assert all(set(t.states) == {"A", "B"} for t in transcripts)
        for t, scenario in zip(transcripts, scenarios):
            annotate_transcript(t, scenario, model, tagger)
            assert t.states is None
        return transcripts, calls, log

    @pytest.mark.parametrize("case", CASES)
    def test_ref_rows_from_play_equal_the_packed_pass(self, tiny_model, tiny_tagger, monkeypatch, case):
        protocol = self.CASES[case]
        transcripts, calls, log = self.play_and_annotate(
            biased(tiny_model), tiny_tagger, protocol, 40, monkeypatch)
        assert len(calls) > 10 and all(from_play for from_play, _, _ in calls)
        for _, got, packed in calls:
            assert np.allclose(got, packed, rtol=0, atol=1e-12)
            assert np.array_equal(got >= REF_THRESHOLD, packed >= REF_THRESHOLD)
        assert {t.num_shared for t in transcripts} == {4, 5, 6}
        if case == "forced":
            assert sum(t.forced for t in transcripts) > 5
        if case == "truncated":  # observe feeds a cut utterance token by token
            assert any(n > protocol.max_tokens_per_utterance for n, _ in log)
        if case == "selecting":  # an utterance that also signals selection
            assert any(n > 0 and wants_selection for n, wants_selection in log)

    @pytest.mark.parametrize("case", ["truncated", "selecting"])
    def test_lockstep_rows_from_play_equal_the_packed_pass(self, tiny_model, tiny_tagger, monkeypatch, case):
        # plain ModelAgents: each listener adopts the fork it stepped while
        # the speaker drew, unless the protocol cut the utterance
        from refgame.selfplay import annotate_transcript

        calls = spy_ref_probs(monkeypatch)
        model = biased(tiny_model)
        scenarios = generate_scenarios(CFG, {4: 6, 5: 6, 6: 6}, seed=44)
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(44).spawn(len(scenarios))]
        transcripts = run_game(*([ModelAgent(model, 1.0, 12) for _ in scenarios] for _ in "AB"),
                               scenarios, self.CASES[case], rngs)
        for t, scenario in zip(transcripts, scenarios):
            annotate_transcript(t, scenario, model, tiny_tagger)
        assert len(calls) > 10 and all(from_play for from_play, _, _ in calls)
        for _, got, packed in calls:
            assert np.allclose(got, packed, rtol=0, atol=1e-12)
            assert np.array_equal(got >= REF_THRESHOLD, packed >= REF_THRESHOLD)

    def test_float32_rows_from_play_equal_the_packed_pass(self, tiny_model, tiny_tagger, monkeypatch):
        model32 = biased(tiny_model, "float32")
        _, calls, _ = self.play_and_annotate(model32, tiny_tagger, self.CASES["selecting"], 41, monkeypatch)
        assert len(calls) > 10 and all(from_play for from_play, _, _ in calls)
        for _, got, packed in calls:
            assert got.dtype == packed.dtype == np.float32
            assert np.allclose(got, packed, rtol=0, atol=1e-5)
            clear = np.abs(packed - REF_THRESHOLD) > 1e-5
            assert np.array_equal((got >= REF_THRESHOLD)[clear], (packed >= REF_THRESHOLD)[clear])

    def test_games_without_play_states_take_the_packed_pass(self, tiny_model, tiny_tagger, monkeypatch):
        from refgame.selfplay import GameTranscript, annotate_transcript

        calls = spy_ref_probs(monkeypatch)
        scenarios = generate_scenarios(CFG, {4: 4, 5: 4, 6: 4}, seed=42)
        rngs = [np.random.default_rng(i) for i in range(len(scenarios))]
        model_agents = [ModelAgent(tiny_model, 1.0, 12) for _ in scenarios]
        mixed = run_game(model_agents, [center_agent() for _ in scenarios], scenarios, self.CASES["selecting"], rngs)
        rngs = [np.random.default_rng(i) for i in range(len(scenarios))]
        played = run_game(*([ModelAgent(tiny_model, 1.0, 12) for _ in scenarios] for _ in "AB"),
                          scenarios, self.CASES["selecting"], rngs)
        # a transcript read back from its record has no states
        records = [GameTranscript(**json.loads(json.dumps(t.to_dict()))) for t in played]
        assert all(t.states is None for t in mixed + records)
        for t, scenario in zip(mixed + records, scenarios + scenarios):
            annotate_transcript(t, scenario, tiny_model, tiny_tagger)
        assert len(calls) > 10 and not any(from_play for from_play, _, _ in calls)
        assert all(np.array_equal(got, packed) for _, got, packed in calls)
        # the played games give the predictions of their records
        for t, record, scenario in zip(played, records, scenarios):
            annotate_transcript(t, scenario, tiny_model, tiny_tagger)
            assert t.to_dict() == record.to_dict()
        assert any(from_play for from_play, _, _ in calls)

    def test_states_stay_out_of_the_record_and_of_pickles(self, tiny_model, tiny_tagger):
        from refgame.selfplay import annotate_transcript

        scenario = generate_scenario(CFG, 5, np.random.default_rng(12))
        t = run_game(ModelAgent(tiny_model, 1.0, 12), ModelAgent(tiny_model, 1.0, 12), scenario,
                     self.CASES["selecting"], np.random.default_rng(3))
        assert {role: states.model for role, states in t.states.items()} == {"A": tiny_model, "B": tiny_model}
        assert "states" not in t.to_dict() and "states" not in repr(t)
        copied = pickle.loads(pickle.dumps(t))
        assert copied.states is None and copied == t
        assert t.states is not None  # pickling leaves the original's states
        annotate_transcript(t, scenario, tiny_model, tiny_tagger)
        assert t.states is None
        # the detected markables stay out of the record but travel in pickles
        assert t.markables is not None and "markables" not in t.to_dict()
        assert pickle.loads(pickle.dumps(t)).markables == t.markables

    def test_agents_that_keep_no_states_leave_none(self, tiny_model):
        scenario = generate_scenario(CFG, 4, np.random.default_rng(13))
        agents = [ModelAgent(tiny_model, 1.0, 12, keep_states=False) for _ in "AB"]
        t = run_game(*agents, scenario, self.CASES["selecting"], np.random.default_rng(4))
        assert t.messages and t.states is None
        assert all(agent.state.log is None for agent in agents)

    def test_a_mismatched_token_stream_raises(self, tiny_model, tiny_tagger):
        from refgame.selfplay import annotate_transcript

        scenarios = generate_scenarios(CFG, {4: 4, 5: 4, 6: 4}, seed=43)
        rngs = [np.random.default_rng(i) for i in range(len(scenarios))]
        played = run_game(*([ModelAgent(tiny_model, 1.0, 12) for _ in scenarios] for _ in "AB"),
                          scenarios, self.CASES["selecting"], rngs)
        # a game whose A perspective has a markable, annotated once untouched
        t, scenario = next(
            (t, s) for t, s in zip(played, scenarios)
            if any(m.speaker == "A" for m in annotate_transcript(copy.copy(t), s, tiny_model, tiny_tagger)[1])
        )
        token, row = t.states["A"].log[0]
        t.states["A"].log[0] = (token + 1, row)
        with pytest.raises(ValueError, match=f"player A's states on scenario {scenario.id}"):
            annotate_transcript(t, scenario, tiny_model, tiny_tagger)

    def test_an_aborted_game_names_its_scenario(self, tiny_model, tiny_tagger):
        from refgame.selfplay import annotate_transcript

        scenario = generate_scenario(CFG, 4, np.random.default_rng(14))
        t = run_game(FailingSelect(tiny_model, 1.0, 12, bad=scenario.id), ModelAgent(tiny_model, 1.0, 12),
                     scenario, self.CASES["selecting"], np.random.default_rng(5))
        assert t.aborted and t.states is None
        with pytest.raises(ValueError, match=f"scenario {scenario.id} aborted"):
            annotate_transcript(t, scenario, tiny_model, tiny_tagger)


def test_run_batch_jobs_match_sequential(tiny_model, tmp_path, monkeypatch):
    from refgame import selfplay

    # slices of 5 games, so that two workers each play some
    monkeypatch.setattr(selfplay, "GAMES_CHUNK", 5)
    scenarios = generate_scenarios(CFG, {4: 8, 6: 8}, seed=3)
    seq = run_batch(darkest_agent, scenarios, ProtocolConfig(seed=9), jobs=1)
    par = run_batch(darkest_agent, scenarios, ProtocolConfig(seed=9), jobs=2)
    assert [t.to_dict() for t in seq.transcripts] == [t.to_dict() for t in par.transcripts]
    assert seq.rates == par.rates

    tiny_model.save(tmp_path / "model")
    factory = partial(ModelAgent, GroundingModel.load(tmp_path / "model"), temperature=0.5, max_tokens=12)
    proto = ProtocolConfig(seed=4, temperature=0.5, max_utterances=6, max_tokens_per_utterance=12)
    seq = run_batch(factory, scenarios, proto, jobs=1)
    par = run_batch(factory, scenarios, proto, jobs=2)
    assert [t.to_dict() for t in seq.transcripts] == [t.to_dict() for t in par.transcripts]
    assert sum(len(t.messages) for t in seq.transcripts) > 0
    assert seq.rates == par.rates


def test_run_batch_with_a_tagger_annotates_all_but_an_aborted_game(tiny_model, tiny_tagger, monkeypatch):
    from refgame import selfplay
    from refgame.selfplay import annotate_transcript

    # slices of 5 games, so that game numbers run on across slices
    monkeypatch.setattr(selfplay, "GAMES_CHUNK", 5)
    scenarios = generate_scenarios(CFG, {4: 6, 6: 6}, seed=5)
    proto = ProtocolConfig(seed=4, temperature=1.0, max_utterances=6, max_tokens_per_utterance=12)
    factory = partial(FailingSelect, tiny_model, 1.0, 12, bad=scenarios[7].id)
    annotated = run_batch(factory, scenarios, proto, tagger=tiny_tagger).transcripts
    assert len(annotated) == 12
    assert annotated[7].aborted and annotated[7].predicted_referents is None
    assert all(t.states is None for t in annotated)
    # the same games played without a tagger, then annotated one by one
    played = run_batch(factory, scenarios, proto).transcripts
    for i, (t, scenario) in enumerate(zip(played, scenarios)):
        if i != 7:
            annotate_transcript(t, scenario, tiny_model, tiny_tagger, dialogue_id=f"game{i:05d}")
    assert [t.to_dict() for t in annotated] == [t.to_dict() for t in played]
    assert sum(len(t.predicted_referents) for t in annotated if not t.aborted) > 0


OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads")


def blas_threads_agent() -> ScriptedAgent:
    """A scripted agent whose line is its process's OpenBLAS thread count."""
    from refgame.selfplay import _openblas_function

    getter = _openblas_function(*OPENBLAS_GETTERS)
    getter.restype = ctypes.c_int
    return ScriptedAgent(pick_lowest_shared, line=f"threads {getter()}")


def test_run_batch_pool_workers_run_blas_on_one_thread(monkeypatch):
    from refgame import selfplay

    if selfplay._openblas_function(*OPENBLAS_GETTERS) is None:
        pytest.skip("no OpenBLAS thread-count getter in this process")
    monkeypatch.setattr(selfplay, "GAMES_CHUNK", 2)
    scenarios = generate_scenarios(CFG, {4: 4}, seed=3)
    result = run_batch(blas_threads_agent, scenarios, ProtocolConfig(seed=0), jobs=2)
    said = {tuple(m["tokens"]) for t in result.transcripts for m in t.messages}
    assert said == {("threads", "1")}


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_batch_rejects_jobs_below_one(jobs):
    scenarios = generate_scenarios(CFG, {4: 2}, seed=3)
    with pytest.raises(ValueError, match="jobs"):
        run_batch(darkest_agent, scenarios, ProtocolConfig(seed=9), jobs=jobs)
