from __future__ import annotations

import copy
import json
import math
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from refgame import __version__
from refgame.agreement import aggregate_corpus_gold
from refgame.corpus import Split
from refgame.errors import DivergenceError, SchemaError
from refgame.model import (
    EOU,
    PACK_CHUNK,
    SEL,
    THEM,
    VARIANTS,
    YOU,
    DecoderState,
    GroundingModel,
    ModelConfig,
    StreamExample,
    Vocabulary,
    build_examples,
    serialize_dialogue,
    train_model,
)
from refgame.neural import Adam, gru_cell
from refgame.synth import make_synthetic_corpus

from gradcheck import gradient_check

TINY = dict(embed_dim=5, hidden_dim=6, attr_dim=4, rel_dim=3, attn_dim=5, mlp_dim=6, dropout=0.0)


def _read_ckpt(path) -> tuple[dict, bytes]:
    """A checkpoint file's header and payload."""
    line, payload = path.read_bytes().split(b"\n", 1)
    return json.loads(line), payload


def _ckpt(header: dict, payload: bytes) -> bytes:
    return json.dumps(header).encode() + b"\n" + payload


def _edited(edit):
    """A checkpoint damage that applies ``edit`` to a copy of the header."""

    def damage(header, payload):
        header = copy.deepcopy(header)
        edit(header)
        return _ckpt(header, payload)

    return damage


def _set_config(**change):
    return _edited(lambda header: header["config"].update(change))


# each damage maps a saved TSEL checkpoint's (header, payload) to the bytes of
# a damaged file; the header's first record is "emb"
DAMAGE = {
    "empty file": lambda header, payload: b"",
    "not JSON": lambda header, payload: json.dumps(header).encode()[:-1] + b"\n" + payload,
    "no newline after the header": lambda header, payload: json.dumps(header).encode(),
    "JSON list": lambda header, payload: _ckpt([header], payload),
    "wrong format": _edited(lambda header: header.update(format="refgame-tagger")),
    "wrong version": _edited(lambda header: header.update(version=1)),
    "version string": _edited(lambda header: header.update(version="2")),
    "no params key": _edited(lambda header: header.pop("params")),
    "params an object": _edited(lambda header: header.update(params={})),
    "record without shape": _edited(lambda header: header["params"][0].pop()),
    "record shape of floats": _edited(lambda header: header["params"][0].__setitem__(1, [7.0, 5.0])),
    "record without data": _edited(lambda header: header["params"].append(["extra", [2]])),
    "data longer than shape": _edited(lambda header: header["params"][0][1].__setitem__(0, 1)),
    "record listed twice": _edited(lambda header: header["params"][-1].__setitem__(0, "emb")),
    "unknown dtype": _set_config(dtype="float1000"),
    "file dtype unlike the meta's": _set_config(dtype="float32"),
    "seed string": _set_config(seed="9"),
    "seed float": _set_config(seed=9.9),
    "seed bool": _set_config(seed=True),
    "vocab with a reserved token": _edited(lambda header: header["vocab"].append("<eou>")),
    "no payload hash": _edited(lambda header: header.pop("payload_sha256")),
    "payload hash an int": _edited(lambda header: header.update(payload_sha256=5)),
    "truncated payload": lambda header, payload: _ckpt(header, payload[:-1]),
    "extra payload byte": lambda header, payload: _ckpt(header, payload + b"\0"),
    "flipped payload byte": lambda header, payload: _ckpt(
        header, payload[:7] + bytes([payload[7] ^ 1]) + payload[8:]
    ),
}

# changes to the config in the checkpoint header; each value has the wrong JSON type
META_CONFIG_DAMAGE = {
    "hidden_dim float": lambda config: {**config, "hidden_dim": float(config["hidden_dim"])},
    "seed string": lambda config: {**config, "seed": str(config["seed"])},
    "embed_dim bool": lambda config: {**config, "embed_dim": True},
    "dropout string": lambda config: {**config, "dropout": str(config["dropout"])},
    "lr null": lambda config: {**config, "lr": None},
}


@pytest.fixture(scope="module")
def micro():
    corpus = make_synthetic_corpus(2, seed=3)
    gold = aggregate_corpus_gold(corpus)
    ids = sorted(corpus.dialogues)
    vocab = Vocabulary.from_corpus(corpus, ids)
    return corpus, gold, ids, vocab


def _examples(micro):
    corpus, gold, ids, vocab = micro
    return build_examples(corpus, ids, vocab, gold)


class TestVocabulary:
    def test_specials_reserved(self):
        vocab = Vocabulary(["dot", "dark"])
        assert vocab.encode("dot") != vocab.encode("dark")
        assert vocab.decode(vocab.encode("<unk>")) == "<unk>"
        assert vocab.encode("never-seen") == vocab.encode("<unk>")

    def test_collision_with_specials_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["<eou>"])


class TestSerialization:
    def test_stream_structure(self, micro):
        corpus, gold, ids, vocab = micro
        d = corpus.dialogues[ids[0]]
        tokens, dial_pos, tok_pos, eou_pos = serialize_dialogue(d, "A", vocab)
        toks = [vocab.decode(t) for t in tokens]
        assert toks[0] in (YOU, THEM)
        assert toks.count(SEL) == 2
        assert toks.count(EOU) == len(d.messages) + 2
        # prefixes are never prediction targets; everything else after t=0 is
        prefix_ids = {vocab.encode(YOU), vocab.encode(THEM)}
        for t in range(1, len(tokens)):
            if int(tokens[t]) in prefix_ids:
                assert t not in dial_pos
            else:
                assert t in dial_pos
        assert 0 not in dial_pos
        # token position map points at the right words
        for (utt, t_idx), pos in tok_pos.items():
            assert toks[pos] == d.messages[utt].tokens[t_idx]
        for utt, pos in eou_pos.items():
            assert toks[pos] == EOU

    def test_perspective_prefixes(self, micro):
        corpus, gold, ids, vocab = micro
        d = corpus.dialogues[ids[0]]
        tokens_a, *_ = serialize_dialogue(d, "A", vocab)
        tokens_b, *_ = serialize_dialogue(d, "B", vocab)
        you, them = vocab.encode(YOU), vocab.encode(THEM)
        swaps = {you: them, them: you}
        assert [swaps.get(int(t), int(t)) for t in tokens_a] == [int(t) for t in tokens_b]

    def test_examples_cover_both_perspectives(self, micro):
        corpus, gold, ids, vocab = micro
        examples = _examples(micro)
        assert len(examples) == 2 * len(ids)
        assert {e.perspective for e in examples} == {"A", "B"}
        for ex in examples:
            for mid in ex.markable_ids:
                assert corpus.markables[mid].speaker == ex.perspective
                assert not corpus.markables[mid].generic


class TestForward:
    def test_zero_encoder_params_zero_embeddings(self, micro):
        *_, vocab = micro
        model = GroundingModel(ModelConfig(variant="TSEL", seed=0, **TINY), vocab)
        model.store.params["enc_attr.W"][...] = 0.0
        model.store.params["enc_rel.W"][...] = 0.0
        ex = _examples(micro)[0]
        entities, _, _ = model.encode_entities(ex.attrs, ex.rel)
        assert np.allclose(entities, 0.0)

    def test_relational_sum_permutation_invariant(self, micro):
        *_, vocab = micro
        model = GroundingModel(ModelConfig(variant="TSEL", seed=0, **TINY), vocab)
        ex = _examples(micro)[0]
        entities, _, _ = model.encode_entities(ex.attrs, ex.rel)
        rng = np.random.default_rng(0)
        perm = rng.permutation(6)
        entities2, _, _ = model.encode_entities(ex.attrs, ex.rel[:, perm, :])
        assert np.allclose(entities, entities2)

    def test_identical_entities_identical_scores(self, micro):
        *_, vocab = micro
        model = GroundingModel(ModelConfig(variant="TSEL", seed=0, **TINY), vocab)
        entities = np.tile(np.linspace(0.1, 0.7, 7), (1, 7, 1))
        scores, _ = model._attention(entities @ model.store["attn.We"].T,
                                     np.zeros((1, 1, 6)), "tsel")
        assert scores.shape == (1, 1, 7)
        assert np.allclose(scores[0, 0], scores[0, 0, 0])

    def test_zero_head_vector_zero_scores(self, micro):
        *_, vocab = micro
        model = GroundingModel(ModelConfig(variant="TSEL", seed=0, **TINY), vocab)
        model.store.params["attn.v_tsel"][...] = 0.0
        ex = _examples(micro)[0]
        probs = model.predict([ex])[0]["tsel"]
        assert np.allclose(probs, 1 / 7)

    def test_tsel_probs_sum_to_one(self, micro):
        *_, vocab = micro
        model = GroundingModel(ModelConfig(variant="TSEL", seed=1, **TINY), vocab)
        for ex in _examples(micro):
            assert model.predict([ex])[0]["tsel"].sum() == pytest.approx(1.0)

    def test_ref_probs_half_at_zero_logits(self, micro):
        *_, vocab = micro
        model = GroundingModel(ModelConfig(variant="REF", seed=0, **TINY), vocab)
        model.store.params["attn.v_ref"][...] = 0.0
        ex = next(e for e in _examples(micro) if e.markable_ids)
        assert np.allclose(model.predict([ex])[0]["ref"], 0.5)

    def test_dial_distribution_sums_to_one(self, micro):
        *_, vocab = micro
        model = GroundingModel(ModelConfig(variant="TSEL-DIAL", seed=2, **TINY), vocab)
        ex = _examples(micro)[0]
        state = model.start_state(ex.attrs, ex.rel)
        state.feed(vocab.encode(YOU))
        [probs] = DecoderState.next_token_probs([state])
        assert probs.sum() == pytest.approx(1.0)

    def test_zero_output_layer_uniform(self, micro):
        *_, vocab = micro
        model = GroundingModel(ModelConfig(variant="TSEL-DIAL", seed=2, **TINY), vocab)
        model.store.params["dial.W2"][...] = 0.0
        model.store.params["dial.b2"][...] = 0.0
        ex = _examples(micro)[0]
        state = model.start_state(ex.attrs, ex.rel)
        state.feed(vocab.encode(YOU))
        assert np.allclose(DecoderState.next_token_probs([state]), 1 / len(vocab))

    def test_incremental_decoding_matches_training_forward(self, micro):
        *_, vocab = micro
        model = GroundingModel(ModelConfig(variant="TSEL-REF-DIAL", seed=6, **TINY), vocab)
        for ex in _examples(micro):
            losses = model.run_example(ex)
            state = model.start_state(ex.attrs, ex.rel)
            dial_positions = set(ex.dial_positions.tolist())
            nll = []
            for t, token in enumerate(ex.tokens):
                if t in dial_positions:
                    nll.append(-math.log(DecoderState.next_token_probs([state])[0, token]))
                state.feed(token)
            assert len(nll) == len(dial_positions)
            assert np.mean(nll) == pytest.approx(losses["dial"], rel=1e-12, abs=0)
            tsel = -math.log(state.tsel_probs()[ex.tsel_target])
            assert tsel == pytest.approx(losses["tsel"], rel=1e-12, abs=0)

    def test_input_table_follows_parameter_updates(self, micro):
        *_, vocab = micro
        model = GroundingModel(ModelConfig(variant="TSEL-DIAL", seed=3, **TINY), vocab)
        ex = _examples(micro)[0]
        tokens = [int(t) for t in ex.tokens[:4]]
        p = model.store

        def assert_feeds_match_matvec():
            state = model.start_state(ex.attrs, ex.rel)
            h = np.zeros(model.config.hidden_dim)
            for t in tokens:
                state.feed(t)
                h = gru_cell((p["gru.W"] @ p["emb"][t] + p["gru.b"])[None], p["gru.U"], h[None])[0]
                assert np.array_equal(state.h, h)

        assert_feeds_match_matvec()  # builds the table
        rng = np.random.default_rng(0)
        for name in p.params:
            p.grads[name][...] = rng.normal(size=p.grads[name].shape)
        Adam(p, lr=0.1).step()
        assert_feeds_match_matvec()
        p.load_values({k: v + rng.normal(size=v.shape) for k, v in p.copy_values().items()})
        assert_feeds_match_matvec()

    def test_variant_gating(self, micro):
        *_, vocab = micro
        model = GroundingModel(ModelConfig(variant="TSEL", seed=0, **TINY), vocab)
        ex = _examples(micro)[0]
        assert set(model.run_example(ex)) == {"tsel", "total"}
        assert set(model.predict([ex])[0]) == {"tsel"}
        with pytest.raises(ValueError, match="no REF head"):
            model.ref_probs_at([ex])

    def test_entity_permutation_equivariance(self, micro):
        *_, vocab = micro
        model = GroundingModel(ModelConfig(variant="TSEL-REF", seed=4, **TINY), vocab)
        ex = next(e for e in _examples(micro) if e.markable_ids)
        rng = np.random.default_rng(1)
        perm = rng.permutation(7)
        # permuting the 7 entities permutes the relational rows and, within
        # each row, the 6 other-entity entries
        def others(i):
            return [j for j in range(7) if j != i]

        rel2 = np.zeros_like(ex.rel)
        for new_i, old_i in enumerate(perm):
            old_cols = {old_j: c for c, old_j in enumerate(others(old_i))}
            for c, new_j in enumerate(others(new_i)):
                rel2[new_i, c] = ex.rel[old_i, old_cols[perm[new_j]]]
        ex2 = StreamExample(**{**ex.__dict__, "attrs": ex.attrs[perm], "rel": rel2})
        assert np.allclose(model.predict([ex2])[0]["tsel"], model.predict([ex])[0]["tsel"][perm])
        assert np.allclose(model.predict([ex2])[0]["ref"], model.predict([ex])[0]["ref"][:, perm])


class TestGradients:
    @pytest.mark.parametrize("variant", ("TSEL", "REF", "TSEL-REF", "TSEL-DIAL", "TSEL-REF-DIAL"))
    def test_variant_loss_gradcheck(self, micro, variant):
        corpus, gold, ids, vocab = micro
        model = GroundingModel(ModelConfig(variant=variant, seed=7, **TINY), vocab)
        examples = _examples(micro)

        def loss_fn():
            return sum(model.run_example(ex)["total"] for ex in examples)

        model.store.zero_grads()
        for ex in examples:
            model.run_example(ex, backward=True)
        report = gradient_check(
            loss_fn, model.store.params, model.store.grads, max_checks_per_param=24, seed=0
        )
        assert report.max_rel_err < 1e-4, report.per_param

    def test_encoder_gradcheck(self, micro):
        *_, vocab = micro
        model = GroundingModel(ModelConfig(variant="REF", seed=5, **TINY), vocab)
        ex = next(e for e in _examples(micro) if e.markable_ids)

        def loss_fn():
            return model.run_example(ex)["total"]

        model.store.zero_grads()
        model.run_example(ex, backward=True)
        report = gradient_check(
            loss_fn,
            {k: model.store.params[k] for k in ("enc_attr.W", "enc_rel.W", "enc_attr.b", "enc_rel.b")},
            {k: model.store.grads[k] for k in ("enc_attr.W", "enc_rel.W", "enc_attr.b", "enc_rel.b")},
            max_checks_per_param=48,
        )
        assert report.max_rel_err < 1e-4

    def test_dial_head_backward_over_many_sets_and_rows(self, micro):
        # three entity sets, each read by its own two rows: the DIAL
        # backward against central differences, inputs included
        *_, vocab = micro
        model = GroundingModel(ModelConfig(variant="TSEL-DIAL", seed=6, **TINY), vocab)
        rng = np.random.default_rng(0)
        de = TINY["attr_dim"] + TINY["rel_dim"]
        inputs = {
            "entities": np.tanh(rng.standard_normal((3, 7, de))),
            "queries": rng.standard_normal((3, 2, TINY["hidden_dim"])),
        }
        weights = rng.standard_normal((3, 2, len(vocab)))
        p = model.store

        def forward():
            entities = inputs["entities"]
            return model._head_forward("dial", entities, entities @ p["attn.We"].T, inputs["queries"])

        def loss_fn():
            return float((forward()[0] * weights).sum())

        p.zero_grads()
        d_entities = np.zeros_like(inputs["entities"])
        d_queries = model._head_backward("dial", weights, forward()[1], d_entities)
        report = gradient_check(
            loss_fn, {**p.params, **inputs}, {**p.grads, "entities": d_entities, "queries": d_queries},
            max_checks_per_param=32, seed=0,
        )
        assert report.max_rel_err < 1e-4, report.per_param


def _attention_backward_einsum(p, dscores, act, entities, queries, head):
    """Reference attention backward: the six einsum contractions, written
    out over the (E, R, 7, A) pre-activation gradient."""
    v = p[f"attn.v_{head}"]
    dact = dscores[..., None] * v * (1.0 - act * act)
    grads = {
        f"attn.v_{head}": np.einsum("eri,erid->d", dscores, act),
        "attn.We": np.einsum("erid,eif->df", dact, entities),
        "attn.Wq": np.einsum("erid,erh->dh", dact, queries),
        "attn.b": dact.sum(axis=(0, 1, 2)),
    }
    d_entities = np.einsum("erid,df->eif", dact, p["attn.We"])
    d_queries = np.einsum("erid,dh->erh", dact, p["attn.Wq"])
    return grads, d_entities, d_queries


class TestBackwardMatchesEinsumReference:
    CFG = dict(embed_dim=7, hidden_dim=11, attr_dim=6, rel_dim=5, attn_dim=9, mlp_dim=8)

    # one set read by one row or by 13 (training, prediction), and 13 sets
    # read by one row each (lockstep decoding)
    @pytest.mark.parametrize("n_sets,n_rows", ((1, 1), (1, 13), (13, 1)), ids=("1", "13", "lockstep-13"))
    @pytest.mark.parametrize("head", ("tsel", "ref", "dial"))
    def test_attention_backward(self, micro, head, n_sets, n_rows):
        *_, vocab = micro
        model = GroundingModel(ModelConfig(variant="TSEL-REF-DIAL", seed=3, **self.CFG), vocab)
        ex = _examples(micro)[0]
        rng = np.random.default_rng(n_sets * n_rows)
        entities, _, _ = model.encode_entities(ex.attrs, ex.rel)
        entities = entities + 0.1 * rng.standard_normal((n_sets, *entities.shape))
        queries = rng.standard_normal((n_sets, n_rows, self.CFG["hidden_dim"]))
        _, act = model._attention(entities @ model.store["attn.We"].T, queries, head)
        dscores = rng.standard_normal((n_sets, n_rows, 7))

        model.store.zero_grads()
        # the backward overwrites act with its gradient
        d_entities, d_queries = model._attention_backward(dscores, act.copy(), entities, queries, head)
        grads, ref_entities, ref_queries = _attention_backward_einsum(
            model.store, dscores, act, entities, queries, head
        )
        np.testing.assert_allclose(d_entities, ref_entities, rtol=1e-12, atol=0)
        np.testing.assert_allclose(d_queries, ref_queries, rtol=1e-12, atol=0)
        for name, grad in model.store.grads.items():
            expected = grads.get(name, np.zeros_like(grad))
            np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=0, err_msg=name)

    def test_encoder_rel_weight(self, micro):
        *_, vocab = micro
        model = GroundingModel(ModelConfig(variant="TSEL", seed=4, **self.CFG), vocab)
        ex = _examples(micro)[1]
        entities, _, cache = model.encode_entities(ex.attrs, ex.rel)
        d_entities = np.random.default_rng(0).standard_normal(entities.shape)

        model.store.zero_grads()
        model._encode_entities_backward(cache, d_entities)
        *_, rel_tanh = cache
        dr = d_entities[:, None, self.CFG["attr_dim"]:] * (1.0 - rel_tanh * rel_tanh)
        np.testing.assert_allclose(
            model.store.grads["enc_rel.W"], np.einsum("ijd,ijf->df", dr, ex.rel), rtol=1e-12, atol=0
        )


class TestTraining:
    def test_single_example_overfit_exact(self):
        corpus = make_synthetic_corpus(1, seed=40, flip_rate=0.0)
        gold = aggregate_corpus_gold(corpus)
        ids = tuple(sorted(corpus.dialogues))
        split = Split(train=ids, valid=ids, test=ids, seed=0)
        cfg = ModelConfig(
            variant="REF", embed_dim=24, hidden_dim=32, attr_dim=12, rel_dim=12,
            attn_dim=24, mlp_dim=32, dropout=0.0, epochs=150, patience=150,
            batch_size=2, lr=5e-3, seed=0,
        )
        result = train_model(cfg, corpus, split, gold)
        assert result.history[-1]["valid_ref"] < 0.02
        examples = build_examples(corpus, ids, result.model.vocab, gold)
        for ex in examples:
            if not ex.markable_ids:
                continue
            pred = result.model.predict([ex])[0]["ref"] >= 0.5
            assert np.array_equal(pred, ex.ref_targets >= 0.5)

    def test_fifty_dialogue_ref_capacity(self):
        corpus = make_synthetic_corpus(50, seed=33, flip_rate=0.0)
        gold = aggregate_corpus_gold(corpus)
        ids = tuple(sorted(corpus.dialogues))
        split = Split(train=ids, valid=ids, test=ids, seed=0)
        cfg = ModelConfig(
            variant="REF", embed_dim=48, hidden_dim=64, attr_dim=24, rel_dim=24,
            attn_dim=48, mlp_dim=64, dropout=0.0, epochs=30, patience=30,
            batch_size=4, lr=5e-3, seed=1,
        )
        result = train_model(cfg, corpus, split, gold)
        from refgame.evaluation import evaluate_model

        report = evaluate_model(result.model, corpus, ids, gold)
        assert report.ref_accuracy > 95.0

    def test_ten_dialogue_dial_perplexity(self):
        corpus = make_synthetic_corpus(10, seed=21, flip_rate=0.0)
        gold = aggregate_corpus_gold(corpus)
        ids = tuple(sorted(corpus.dialogues))
        split = Split(train=ids, valid=ids, test=ids, seed=0)
        cfg = ModelConfig(
            variant="TSEL-DIAL", embed_dim=48, hidden_dim=64, attr_dim=24, rel_dim=24,
            attn_dim=48, mlp_dim=64, dropout=0.0, epochs=60, patience=60,
            batch_size=4, lr=3e-3, seed=0,
        )
        result = train_model(cfg, corpus, split, gold)
        assert math.exp(result.history[-1]["valid_dial"]) < 1.5

    def test_training_deterministic(self, micro):
        corpus, gold, ids, _ = micro
        split = Split(train=tuple(ids), valid=tuple(ids), test=tuple(ids), seed=0)
        cfg = ModelConfig(variant="TSEL-REF", epochs=3, patience=3, batch_size=2,
                          dropout=0.3, seed=11, **{k: v for k, v in TINY.items() if k != "dropout"})
        r1 = train_model(cfg, corpus, split, gold)
        r2 = train_model(cfg, corpus, split, gold)
        strip = lambda hist: [{k: v for k, v in rec.items() if k != "seconds"} for rec in hist]
        assert strip(r1.history) == strip(r2.history)
        for k in r1.model.store.params:
            assert np.array_equal(r1.model.store.params[k], r2.model.store.params[k])

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_detected(self, micro):
        corpus, gold, ids, vocab = micro
        model = GroundingModel(ModelConfig(variant="TSEL", seed=0, **TINY), vocab)
        model.store.params["emb"][...] = np.inf
        with pytest.raises(DivergenceError):
            model.run_example(_examples(micro)[0])


class TestDtype:
    def test_float32_forward_backward(self, micro):
        corpus, gold, ids, vocab = micro
        cfg = ModelConfig(variant="TSEL-REF-DIAL", seed=2, dtype="float32", **TINY)
        model = GroundingModel(cfg, vocab)
        assert model.store["emb"].dtype == np.float32
        ex = _examples(micro)[0]
        model.store.zero_grads()
        losses = model.run_example(ex, backward=True)
        assert np.isfinite(losses["total"])
        assert all(g.dtype == np.float32 for g in model.store.grads.values())

    def test_float32_run_keeps_entities_heads_and_gradients_float32(self, micro, monkeypatch):
        # the view features and REF targets are float64; nothing the entity
        # encoder or a head computes from them is upcast
        cfg = ModelConfig(variant="TSEL-REF-DIAL", seed=2, dtype="float32", **TINY)
        model = GroundingModel(cfg, micro[-1])
        ex = next(e for e in _examples(micro) if e.markable_ids)
        assert ex.attrs.dtype == ex.rel.dtype == ex.ref_targets.dtype == np.float64
        seen: dict[str, set] = {}

        def spy(name, arrays):
            method = getattr(model, name)

            def wrapped(*args):
                out = method(*args)
                for array in arrays(args, out):
                    seen.setdefault(name, set()).add(array.dtype)
                return out

            monkeypatch.setattr(model, name, wrapped)

        spy("encode_entities", lambda args, out: [out[0], out[1], *out[2]])
        spy("_head_forward", lambda args, out: [out[0], *out[1]])
        spy("_head_backward", lambda args, out: [args[1], args[3], out])
        spy("_encode_entities_backward", lambda args, out: [args[1]])
        model.store.zero_grads()
        model.run_example(ex, backward=True)
        assert seen == dict.fromkeys(
            ("encode_entities", "_head_forward", "_head_backward", "_encode_entities_backward"),
            {np.dtype(np.float32)},
        )
        assert {g.dtype for g in model.store.grads.values()} == {np.dtype(np.float32)}


class TestCheckpoint:
    def test_save_load_same_outputs(self, micro, tmp_path):
        corpus, gold, ids, vocab = micro
        model = GroundingModel(ModelConfig(variant="TSEL-REF-DIAL", seed=9, **TINY), vocab)
        prefix = tmp_path / "model"
        model.save(prefix)
        loaded = GroundingModel.load(prefix)
        assert loaded.config == model.config
        assert loaded.vocab.tokens == model.vocab.tokens
        for ex in _examples(micro):
            assert np.array_equal(loaded.predict([ex])[0]["tsel"], model.predict([ex])[0]["tsel"])
            losses_a = model.run_example(ex)
            losses_b = loaded.run_example(ex)
            assert losses_a == losses_b

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_round_trip_is_exact(self, micro, tmp_path, variant, dtype):
        corpus, gold, ids, vocab = micro
        model = GroundingModel(ModelConfig(variant=variant, seed=9, dtype=dtype, **TINY), vocab)
        model.save(tmp_path / "model")
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        header, payload = _read_ckpt(tmp_path / "model.ckpt")
        assert header["refgame"] == __version__
        assert header["params"] == [[k, list(v.shape)] for k, v in model.store.params.items()]
        loaded = GroundingModel.load(tmp_path / "model")
        assert b"".join(v.tobytes() for v in model.store.params.values()) == payload
        assert b"".join(v.tobytes() for v in loaded.store.params.values()) == payload
        assert {v.dtype for v in loaded.store.params.values()} == {np.dtype(dtype)}
        examples = _examples(micro)
        for got, want in zip(loaded.predict(examples), model.predict(examples)):
            assert got.keys() == want.keys()
            assert all(got[k].tobytes() == want[k].tobytes() for k in want)
        assert loaded.run_example(examples) == model.run_example(examples)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_pickle_carries_parameters_not_gradients(self, micro, dtype):
        # at paper size, as a process pool would send the model
        import pickle

        corpus, gold, ids, vocab = micro
        model = GroundingModel(ModelConfig(dtype=dtype), vocab)
        model.store.load_values(model.store.copy_values())
        model.store.grads["gru.U"][...] = 1.0
        data = pickle.dumps(model)
        params = sum(v.nbytes for v in model.store.params.values())
        assert len(data) < 1.1 * params
        copied = pickle.loads(data).store
        assert copied.version == model.store.version == 1
        assert list(copied.params) == list(copied.grads) == list(model.store.params)
        for k, v in model.store.params.items():
            assert copied[k].tobytes() == v.tobytes() and copied[k].dtype == np.dtype(dtype)
            assert copied.grads[k].shape == v.shape and copied.grads[k].dtype == np.dtype(dtype)
            assert not copied.grads[k].any()
        assert model.store.grads["gru.U"].all()  # pickling leaves the original's gradients

    def test_load_meta_with_loss_weights(self, micro, tmp_path):
        # a header config with fields the config no longer has, such as the
        # old per-head loss weights, loads: the reader ignores extra keys
        corpus, gold, ids, vocab = micro
        model = GroundingModel(ModelConfig(variant="TSEL-REF-DIAL", seed=9, **TINY), vocab)
        model.save(tmp_path / "model")
        path = tmp_path / "model.ckpt"
        header, payload = _read_ckpt(path)
        header["config"].update(w_tsel=1.0, w_ref=1.0, w_dial=1.0)
        path.write_bytes(_ckpt(header, payload))
        loaded = GroundingModel.load(tmp_path / "model")
        assert loaded.config == model.config
        for ex in _examples(micro):
            got, want = loaded.predict([ex])[0], model.predict([ex])[0]
            assert set(got) == set(want)
            assert all(np.array_equal(got[head], want[head]) for head in want)

    @pytest.mark.parametrize("other", [
        dict(variant="TSEL"),                                   # missing parameters
        dict(variant="TSEL-REF-DIAL", vocab=["dot", "dark"]),   # emb/dial shapes differ
    ])
    def test_load_rejects_params_of_another_layout(self, micro, tmp_path, other):
        corpus, gold, ids, vocab = micro
        model = GroundingModel(ModelConfig(variant="TSEL-REF-DIAL", seed=9, **TINY), vocab)
        model.save(tmp_path / "model")
        other_vocab = Vocabulary(other["vocab"]) if "vocab" in other else vocab
        GroundingModel(ModelConfig(variant=other["variant"], seed=9, **TINY), other_vocab).save(
            tmp_path / "other"
        )
        path = tmp_path / "model.ckpt"
        header, payload = _read_ckpt(path)
        other_header, other_payload = _read_ckpt(tmp_path / "other.ckpt")
        # the other layout over this payload: the layout that the config and
        # vocabulary declare rejects it before the payload is read
        path.write_bytes(_ckpt({**header, "params": other_header["params"]}, payload))
        with pytest.raises(SchemaError, match="model.ckpt: the parameters do not match"):
            GroundingModel.load(tmp_path / "model")
        # the other layout, payload and hash under this config: the layout
        # that the config and vocabulary declare rejects it
        path.write_bytes(_ckpt(
            {**header, "params": other_header["params"], "payload_sha256": other_header["payload_sha256"]},
            other_payload,
        ))
        with pytest.raises(SchemaError, match="model.ckpt: .*do not match"):
            GroundingModel.load(tmp_path / "model")

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_load_rejects_damaged_params_file(self, micro, tmp_path, damage):
        corpus, gold, ids, vocab = micro
        GroundingModel(ModelConfig(variant="TSEL", seed=9, **TINY), vocab).save(tmp_path / "model")
        path = tmp_path / "model.ckpt"
        path.write_bytes(DAMAGE[damage](*_read_ckpt(path)))
        with pytest.raises(SchemaError, match="model.ckpt"):
            GroundingModel.load(tmp_path / "model")

    def test_load_rejects_meta_without_config(self, micro, tmp_path):
        corpus, gold, ids, vocab = micro
        GroundingModel(ModelConfig(variant="TSEL", seed=9, **TINY), vocab).save(tmp_path / "model")
        path = tmp_path / "model.ckpt"
        header, payload = _read_ckpt(path)
        del header["config"]
        path.write_bytes(_ckpt(header, payload))
        with pytest.raises(SchemaError, match="config"):
            GroundingModel.load(tmp_path / "model")

    @pytest.mark.parametrize("damage", sorted(META_CONFIG_DAMAGE))
    def test_load_rejects_damaged_meta_config(self, micro, tmp_path, damage):
        corpus, gold, ids, vocab = micro
        GroundingModel(ModelConfig(variant="TSEL", seed=9, **TINY), vocab).save(tmp_path / "model")
        path = tmp_path / "model.ckpt"
        header, payload = _read_ckpt(path)
        header["config"] = META_CONFIG_DAMAGE[damage](header["config"])
        path.write_bytes(_ckpt(header, payload))
        with pytest.raises(SchemaError, match="model.ckpt"):
            GroundingModel.load(tmp_path / "model")

    def test_eval_batch_order_independent(self, micro):
        corpus, gold, ids, vocab = micro
        model = GroundingModel(ModelConfig(variant="TSEL-REF", seed=3, **TINY), vocab)
        examples = _examples(micro)
        first = [model.run_example(ex)["total"] for ex in examples]
        second = [model.run_example(ex)["total"] for ex in reversed(examples)][::-1]
        assert first == second


@cache
def _example_pool():
    """28 examples of ragged lengths, every fourth stripped of its markables."""
    corpus = make_synthetic_corpus(14, seed=4)
    gold = aggregate_corpus_gold(corpus)
    ids = sorted(corpus.dialogues)
    vocab = Vocabulary.from_corpus(corpus, ids)
    pool = build_examples(corpus, ids, vocab, gold)
    for i in range(0, len(pool), 4):
        pool[i] = replace(pool[i], markable_ids=[], mark_positions=np.zeros((0, 3), dtype=np.int64),
                          ref_targets=np.zeros((0, 7)))
    return vocab, pool


_batches = hst.lists(hst.integers(0, 27), min_size=1, max_size=2 * PACK_CHUNK + 3)


class TestPackedBatches:
    """A list of examples runs in packed chunks of ``PACK_CHUNK``; it equals
    the examples run one at a time, in float64."""

    @given(variant=hst.sampled_from(VARIANTS), picks=_batches, seed=hst.integers(0, 99),
           dropout=hst.sampled_from([0.0, 0.4]))
    @settings(max_examples=30, deadline=None)
    def test_losses_and_gradients_equal_one_example_batches(self, variant, picks, seed, dropout):
        vocab, pool = _example_pool()
        batch = [pool[i] for i in picks]
        config = ModelConfig(variant=variant, seed=seed, **{**TINY, "dropout": dropout})
        model = GroundingModel(config, vocab)
        train = dict(train=True, rng=np.random.default_rng(seed))
        model.store.zero_grads()
        batched = model.run_example(batch, backward=True, **train)
        packed_grads = {k: g.copy() for k, g in model.store.grads.items()}

        train = dict(train=True, rng=np.random.default_rng(seed))
        model.store.zero_grads()
        single = [model.run_example(ex, backward=True, **train) for ex in batch]
        assert len(batched) == len(batch)
        for got, want in zip(batched, single):
            assert got.keys() == want.keys()
            assert all(abs(got[k] - want[k]) <= 1e-10 for k in want)
        for k, g in model.store.grads.items():
            assert np.allclose(packed_grads[k], g, rtol=0, atol=1e-10), k

    @given(variant=hst.sampled_from(VARIANTS), picks=_batches, seed=hst.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_predictions_equal_one_example_calls(self, variant, picks, seed):
        vocab, pool = _example_pool()
        batch = [pool[i] for i in picks]
        model = GroundingModel(ModelConfig(variant=variant, seed=seed, **TINY), vocab)
        for got, ex in zip(model.predict(batch), batch):
            want = model.predict([ex])[0]
            assert got.keys() == want.keys()
            assert all(np.allclose(got[k], want[k], rtol=0, atol=1e-12) for k in want)
        if "ref" in model.heads:
            for got, ex in zip(model.ref_probs_at(batch), batch):
                assert got.shape == (len(ex.markable_ids), 7)
                assert np.allclose(got, model.ref_probs_at([ex])[0], rtol=0, atol=1e-12)
        else:
            with pytest.raises(ValueError, match="REF"):
                model.ref_probs_at(batch)

    @pytest.mark.parametrize("dtype, atol", [("float64", 1e-12), ("float32", 1e-5)])
    def test_states_from_a_logging_decoder_stand_in_for_the_packed_pass(self, monkeypatch, dtype, atol):
        from refgame import model as model_module

        vocab, pool = _example_pool()
        model = GroundingModel(ModelConfig(variant="TSEL-REF-DIAL", seed=7, dtype=dtype, **TINY), vocab)
        carried = []
        for k, ex in enumerate(pool):
            state = model.start_state(ex.attrs, ex.rel)
            state.log = []
            for token in ex.tokens[: len(ex.tokens) // 2].tolist():
                state.feed(token)
            ahead = state.fork()  # a fork logs only what it steps itself
            for token in ex.tokens[len(ex.tokens) // 2:].tolist():
                ahead.feed(token)
            ahead.h  # feeds the queue
            log = state.log + ahead.log
            assert [token for token, _ in log] == ex.tokens.tolist()
            carried.append(replace(ex, states=np.array([row for _, row in log])) if k % 3 else ex)
        packed = model.predict(pool)

        steps = []
        gru_sequence = model_module.gru_sequence
        monkeypatch.setattr(model_module, "gru_sequence",
                            lambda *args: steps.append(len(args[-1])) or gru_sequence(*args))
        got = model.predict(carried)
        assert sum(steps) == sum(ex.states is None for ex in carried)  # one GRU row per bare example
        for want, probs in zip(packed, got):
            assert all(np.allclose(probs[k], want[k], rtol=0, atol=atol) for k in want)
        assert [p.dtype for p in model.ref_probs_at(carried)] == [np.dtype(dtype)] * len(pool)

    def test_empty_list(self, micro):
        *_, vocab = micro
        model = GroundingModel(ModelConfig(seed=0, **TINY), vocab)
        assert model.run_example([], backward=True) == []
        assert model.predict([]) == [] and model.ref_probs_at([]) == []

    def test_seeded_training_across_chunks_is_self_identical(self):
        corpus = make_synthetic_corpus(12, seed=6)
        gold = aggregate_corpus_gold(corpus)
        ids = tuple(sorted(corpus.dialogues))
        split = Split(train=ids[:10], valid=ids[10:], test=(), seed=0)
        cfg = ModelConfig(epochs=2, patience=2, batch_size=2 * PACK_CHUNK + 2, dropout=0.5, seed=5,
                          **{k: v for k, v in TINY.items() if k != "dropout"})
        r1 = train_model(cfg, corpus, split, gold)
        r2 = train_model(cfg, corpus, split, gold)
        strip = lambda hist: [{k: v for k, v in rec.items() if k != "seconds"} for rec in hist]
        assert strip(r1.history) == strip(r2.history)
        for k in r1.model.store.params:
            assert np.array_equal(r1.model.store.params[k], r2.model.store.params[k])
