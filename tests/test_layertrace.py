"""The benchmark's layer tracer (perfbench/layertrace.py) rebinds refgame
functions and methods by name, so renaming one of them must fail here."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layertrace  # noqa: E402


def _refgame_attributes() -> dict[tuple, object]:
    """Every attribute of every loaded refgame module and of the classes it
    defines."""
    out: dict[tuple, object] = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "refgame" or name.startswith("refgame.")):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_wraps_every_boundary_and_uninstall_restores():
    for _, module_name, _ in layertrace.BOUNDARIES:
        importlib.import_module(module_name)
    before = _refgame_attributes()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert len(layertrace.BOUNDARIES) == 43
        assert set(tracer.bindings) == {name for name, _, _ in layertrace.BOUNDARIES}
        for _, module_name, attr in layertrace.BOUNDARIES:
            assert hasattr(_resolve(module_name, attr), "__wrapped__"), attr
    finally:
        tracer.uninstall()
    after = _refgame_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


# every boundary that model selfplay and transcript annotation pass through
SELFPLAY_PATH = {
    "neural.gru_cell",
    "neural.gru_sequence",
    "model.GroundingModel.start_state",
    "model.GroundingModel.ref_probs_at",
    "model.DecoderState.feed",
    "model.DecoderState.next_token_probs",
    "model.DecoderState.tsel_probs",
    "tagger.MarkableTagger.decode",
    "tagger.predict_markables",
    "selfplay.run_game",
    "selfplay.ModelAgent.act",
    "selfplay.ModelAgent.observe",
    "selfplay.ModelAgent.reset",
    "selfplay.ModelAgent.select",
    "selfplay.sample_token",
    "selfplay.annotate_transcript",
    "scenario.generate_scenarios",
    "scenario.view_feature_matrix",
}


def test_selfplay_reaches_every_selfplay_boundary():
    from functools import partial

    from refgame import model, scenario, selfplay, synth, tagger

    words = synth.make_synthetic_corpus(4, seed=0)
    vocab = model.Vocabulary.from_corpus(words, sorted(words.dialogues))
    net = model.GroundingModel(
        model.ModelConfig(embed_dim=6, hidden_dim=8, attr_dim=4, rel_dim=4, attn_dim=6, mlp_dim=8), vocab
    )
    marker = tagger.MarkableTagger(tagger.TaggerConfig(embed_dim=4, hidden_dim=6), vocab)
    protocol = selfplay.ProtocolConfig(seed=1, max_utterances=3, max_tokens_per_utterance=5)
    factory = partial(selfplay.ModelAgent, net, protocol.temperature, protocol.max_tokens_per_utterance)
    assert {name for name, _, _ in layertrace.BOUNDARIES if name.startswith("selfplay.")} <= SELFPLAY_PATH
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        scenarios = scenario.generate_scenarios(scenario.ScenarioConfig(), {4: 2, 6: 1}, seed=2)
        batch = selfplay.run_batch(factory, scenarios, protocol)
        selfplay.annotate_transcript(batch.transcripts[0], scenarios[0], net, marker)
    finally:
        tracer.uninstall()
    assert not any(t.aborted for t in batch.transcripts)
    reached = {name for name, *_ in tracer.spans}
    assert sorted(SELFPLAY_PATH - reached) == []
