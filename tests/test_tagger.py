from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refgame.corpus import Split
from refgame.model import Vocabulary
from refgame.synth import make_synthetic_corpus
from refgame.tagger import (
    B,
    I,
    O,
    MarkableTagger,
    TagExample,
    TaggerConfig,
    bio_to_spans,
    build_tag_examples,
    predict_markables,
    spans_to_bio,
    train_tagger,
)

TINY = TaggerConfig(embed_dim=8, hidden_dim=6, seed=0)


class TestBIO:
    def test_decode_example(self):
        assert bio_to_spans([B, I, O, B]) == [(0, 2), (3, 4)]

    def test_all_outside(self):
        assert bio_to_spans([O, O, O]) == []

    def test_span_to_end(self):
        assert bio_to_spans([O, B, I]) == [(1, 3)]

    def test_adjacent_spans(self):
        assert bio_to_spans([B, B, B]) == [(0, 1), (1, 2), (2, 3)]

    def test_encode_example(self):
        assert spans_to_bio([(0, 2), (3, 4)], 4) == [B, I, O, B]

    def test_overlapping_spans_rejected(self):
        with pytest.raises(ValueError):
            spans_to_bio([(0, 2), (1, 3)], 4)

    @given(
        n=st.integers(1, 12),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_identity(self, n, data):
        # sample a random set of disjoint spans
        cuts = sorted(data.draw(st.sets(st.integers(0, n), max_size=6)) | {0, n})
        spans = []
        for lo, hi in zip(cuts, cuts[1:]):
            if hi > lo and data.draw(st.booleans()):
                spans.append((lo, hi))
        assert bio_to_spans(spans_to_bio(spans, n)) == spans

    def test_gold_spans_roundtrip_on_corpus(self, medium_corpus):
        for did in sorted(medium_corpus.dialogues):
            spans_by_utt = {}
            for mid in medium_corpus.markables_by_dialogue.get(did, ()):
                m = medium_corpus.markables[mid]
                spans_by_utt.setdefault(m.utterance_index, []).append(
                    (m.start_token, m.end_token)
                )
            for u_idx, msg in enumerate(medium_corpus.dialogues[did].messages):
                spans = sorted(spans_by_utt.get(u_idx, []))
                assert bio_to_spans(spans_to_bio(spans, len(msg.tokens))) == spans


def _random_utterances(rng, n, vocab_size, max_len=15):
    return [rng.integers(0, vocab_size, size=rng.integers(1, max_len)) for _ in range(n)]


class TestDecode:
    def test_empty_utterance(self):
        vocab = Vocabulary(["a"])
        tagger = MarkableTagger(TINY, vocab)
        empty = np.array([], dtype=np.int64)
        assert tagger.decode(empty) == []
        assert tagger.decode([empty, np.array([0, 0]), empty]) == [[], tagger.decode(np.array([0, 0])), []]

    def test_decoded_spans_never_overlap(self):
        vocab = Vocabulary(["a", "b", "c"])
        tagger = MarkableTagger(TaggerConfig(embed_dim=8, hidden_dim=6, seed=3), vocab)
        utterances = _random_utterances(np.random.default_rng(0), 50, len(vocab))
        for tokens, path in zip(utterances, tagger.decode(utterances)):
            assert len(path) == len(tokens)
            spans = bio_to_spans(path)
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2
            for s, e in spans:
                assert 0 <= s < e <= len(tokens)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 150))
    @settings(max_examples=20, deadline=None)
    def test_batched_decode_equals_one_at_a_time_and_keeps_constraints(self, seed, n):
        # more utterances than one decode chunk holds, with I favoured
        rng = np.random.default_rng(seed)
        vocab = Vocabulary(["a", "b", "c"])
        tagger = MarkableTagger(TaggerConfig(embed_dim=8, hidden_dim=6, seed=seed % 7), vocab)
        tagger.store.params["emit.b"][...] = rng.normal(scale=3.0, size=3) + np.array([0.0, 4.0, 0.0])
        tagger.store.params["trans"][...] = rng.normal(scale=3.0, size=(3, 3))
        utterances = _random_utterances(rng, n, len(vocab))
        paths = tagger.decode(utterances)
        for tokens, path in zip(utterances, paths):
            assert path == tagger.decode(tokens)
            assert path[0] != I
            assert not any(a == O and b == I for a, b in zip(path, path[1:]))

    def test_constraint_blocks_leading_inside(self):
        vocab = Vocabulary(["a"])
        tagger = MarkableTagger(TINY, vocab)
        # even with emissions strongly favouring I, the decode never starts with I
        tagger.store.params["emit.W"][...] = 0.0
        tagger.store.params["emit.b"][...] = np.array([0.0, 50.0, 0.0])
        path = tagger.decode(np.array([0, 0, 0]))
        assert path[0] != I
        assert all(
            not (a == O and b == I) for a, b in zip(path, path[1:])
        )


class TestTraining:
    def test_twenty_utterance_overfit(self):
        corpus = make_synthetic_corpus(7, seed=50)
        ids = tuple(sorted(corpus.dialogues))
        split = Split(train=ids, valid=ids, test=ids, seed=0)
        cfg = TaggerConfig(
            embed_dim=16, hidden_dim=24, epochs=25, patience=25, batch_size=4, lr=5e-3, seed=0
        )
        result = train_tagger(corpus, split, cfg)
        examples = build_tag_examples(corpus, ids, result.tagger.vocab)
        assert len(examples) >= 20
        assert result.tagger.scores(examples) == {"token_accuracy": 1.0, "span_f1": 1.0}

    @given(seed=st.integers(0, 2**32 - 1), lengths=st.lists(st.integers(1, 9), min_size=1, max_size=12))
    @settings(max_examples=15, deadline=None)
    def test_batched_nll_equals_per_utterance_sum(self, seed, lengths):
        rng = np.random.default_rng(seed)
        vocab = Vocabulary(["a", "b", "c", "d"])
        tagger = MarkableTagger(TaggerConfig(embed_dim=8, hidden_dim=6, seed=seed % 5), vocab)
        examples = [
            TagExample("d", i, rng.integers(0, len(vocab), size=n), rng.integers(0, 3, size=n))
            for i, n in enumerate(lengths)
        ]
        store = tagger.store
        store.zero_grads()
        losses = tagger.nll(examples, backward=True)
        batched = {k: g.copy() for k, g in store.grads.items()}
        store.zero_grads()
        singles = [tagger.nll(ex, backward=True) for ex in examples]
        assert np.allclose(losses, singles, rtol=0, atol=1e-10)
        for k, g in store.grads.items():
            assert np.allclose(batched[k], g, rtol=0, atol=1e-10), k

    def test_deterministic(self):
        corpus = make_synthetic_corpus(4, seed=51)
        ids = tuple(sorted(corpus.dialogues))
        split = Split(train=ids, valid=ids, test=ids, seed=0)
        cfg = TaggerConfig(embed_dim=8, hidden_dim=8, epochs=2, patience=2, seed=5)
        r1 = train_tagger(corpus, split, cfg)
        r2 = train_tagger(corpus, split, cfg)
        strip = lambda hist: [{k: v for k, v in rec.items() if k != "seconds"} for rec in hist]
        assert strip(r1.history) == strip(r2.history)
        for k in r1.tagger.store.params:
            assert np.array_equal(r1.tagger.store.params[k], r2.tagger.store.params[k])

    def test_each_epoch_records_the_scores_of_its_weights(self):
        corpus = make_synthetic_corpus(6, seed=53)
        ids = tuple(sorted(corpus.dialogues))
        split = Split(train=ids[:4], valid=ids[4:], test=ids[4:], seed=0)
        result = train_tagger(corpus, split, TaggerConfig(embed_dim=8, hidden_dim=8, epochs=3, seed=2))
        valid = build_tag_examples(corpus, split.valid, result.tagger.vocab)
        best = result.history[result.best_epoch]  # the restored weights are the best epoch's
        scores = result.tagger.scores(valid)
        assert {k: best[f"valid_{k}"] for k in scores} == scores
        assert all({"valid_token_accuracy", "valid_span_f1"} <= set(rec) for rec in result.history)


class TestScores:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 12))
    @settings(max_examples=50, deadline=None)
    def test_one_decode_gives_accuracy_and_span_f1(self, seed, n):
        rng = np.random.default_rng(seed)
        tagger = MarkableTagger(TINY, Vocabulary(["a", "b", "c"]))
        examples = [
            TagExample("d", i, rng.integers(0, 3, size=k), rng.integers(0, 3, size=k))
            for i, k in enumerate(rng.integers(1, 10, size=n))
        ]
        paths = [rng.integers(0, 3, size=len(ex.tags)).tolist() for ex in examples]
        calls = []

        def decode(tokens):  # a spy that hands back random paths
            calls.append(tokens)
            return paths

        tagger.decode = decode
        scores = tagger.scores(examples)
        assert len(calls) == 1
        hits = sum(int(np.sum(np.array(p) == ex.tags)) for p, ex in zip(paths, examples))
        total = sum(len(ex.tags) for ex in examples)
        assert scores["token_accuracy"] == (hits / total if total else 0.0)
        tp = fp = fn = 0
        for path, ex in zip(paths, examples):
            pred, gold = set(bio_to_spans(path)), set(bio_to_spans(list(ex.tags)))
            tp += len(pred & gold)
            fp += len(pred - gold)
            fn += len(gold - pred)
        if tp == 0:
            assert scores["span_f1"] == 0.0
        else:
            precision, recall = tp / (tp + fp), tp / (tp + fn)
            assert abs(scores["span_f1"] - 2 * precision * recall / (precision + recall)) <= 1e-12


class TestCheckpointAndExport:
    def test_save_load_same_decisions(self, tmp_path):
        corpus = make_synthetic_corpus(3, seed=52)
        ids = tuple(sorted(corpus.dialogues))
        vocab = Vocabulary.from_corpus(corpus, ids)
        tagger = MarkableTagger(TaggerConfig(embed_dim=8, hidden_dim=8, seed=1), vocab)
        tagger.save(tmp_path / "tagger")
        loaded = MarkableTagger.load(tmp_path / "tagger")
        for did in ids:
            for msg in corpus.dialogues[did].messages:
                ids = np.asarray([vocab.encode(t) for t in msg.tokens], dtype=np.int64)
                assert loaded.decode(ids) == tagger.decode(ids)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_round_trip_is_exact(self, tmp_path, dtype):
        corpus = make_synthetic_corpus(3, seed=52)
        ids = tuple(sorted(corpus.dialogues))
        vocab = Vocabulary.from_corpus(corpus, ids)
        tagger = MarkableTagger(TaggerConfig(embed_dim=8, hidden_dim=8, seed=1, dtype=dtype), vocab)
        tagger.save(tmp_path / "tagger")
        assert [p.name for p in tmp_path.iterdir()] == ["tagger.ckpt"]
        payload = (tmp_path / "tagger.ckpt").read_bytes().split(b"\n", 1)[1]
        loaded = MarkableTagger.load(tmp_path / "tagger")
        assert b"".join(v.tobytes() for v in tagger.store.params.values()) == payload
        assert b"".join(v.tobytes() for v in loaded.store.params.values()) == payload
        assert {v.dtype for v in loaded.store.params.values()} == {np.dtype(dtype)}
        examples = build_tag_examples(corpus, ids, vocab)
        tokens = [ex.tokens for ex in examples]
        assert loaded.decode(tokens) == tagger.decode(tokens)
        assert loaded.nll(examples) == tagger.nll(examples)

    def test_predict_markables_records(self):
        corpus = make_synthetic_corpus(3, seed=53)
        ids = tuple(sorted(corpus.dialogues))
        vocab = Vocabulary.from_corpus(corpus, ids)
        tagger = MarkableTagger(TaggerConfig(embed_dim=8, hidden_dim=8, seed=2), vocab)
        marks = predict_markables(tagger, corpus)
        for m in marks:
            msg = corpus.dialogues[m.dialogue_id].messages[m.utterance_index]
            assert m.speaker == msg.speaker
            assert 0 <= m.start_token < m.end_token <= len(msg.tokens)
