"""Automatic markable detection: BIO tagging of utterance tokens with a
bidirectional GRU encoder and a linear-chain CRF head.

BIO index convention: 0 = B, 1 = I, 2 = O.  Decode-time transition
constraints (I never opens a sequence or follows O) use large finite
penalties so emission/transition scores stay finite everywhere."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .corpus import AnnotatedCorpus, Markable, Split
from .model import Vocabulary, check_dtype, load_checkpoint, require_examples, save_checkpoint
from .neural import (
    ParamStore,
    add_gru_params,
    crf_nll,
    crf_viterbi,
    fit,
    gru_sequence,
    gru_sequence_backward,
    linear,
    linear_backward,
)

B, I, O = 0, 1, 2
TAG_NAMES = ("B", "I", "O")
CONSTRAINT_PENALTY = -1e4


def spans_to_bio(spans: Sequence[tuple[int, int]], n_tokens: int) -> list[int]:
    """Non-overlapping (start, end) spans -> BIO tags."""
    tags = [O] * n_tokens
    for start, end in sorted(spans):
        if not 0 <= start < end <= n_tokens:
            raise ValueError(f"span ({start}, {end}) outside a {n_tokens}-token utterance")
        if any(tags[t] != O for t in range(start, end)):
            raise ValueError(f"span ({start}, {end}) overlaps a previous span")
        tags[start] = B
        for t in range(start + 1, end):
            tags[t] = I
    return tags


def bio_to_spans(tags: Sequence[int]) -> list[tuple[int, int]]:
    """BIO tags -> (start, end) spans.  An I after O (never produced by the
    constrained decoder) is treated as opening a span."""
    spans = []
    start = None
    for t, tag in enumerate(tags):
        if tag == B or (tag == I and start is None):
            if start is not None:
                spans.append((start, t))
            start = t
        elif tag == O:
            if start is not None:
                spans.append((start, t))
                start = None
    if start is not None:
        spans.append((start, len(tags)))
    return spans


@dataclass(frozen=True)
class TaggerConfig:
    embed_dim: int = 64
    hidden_dim: int = 128
    lr: float = 1e-3
    grad_clip: float = 1.0
    batch_size: int = 16
    epochs: int = 20
    patience: int = 3
    seed: int = 0
    dtype: str = "float64"

    def __post_init__(self):
        check_dtype(self.dtype)


@dataclass
class TagExample:
    dialogue_id: str
    utterance_index: int
    tokens: np.ndarray
    tags: np.ndarray


def build_tag_examples(
    corpus: AnnotatedCorpus, dialogue_ids: Iterable[str], vocab: Vocabulary
) -> list[TagExample]:
    out = []
    for did in dialogue_ids:
        d = corpus.dialogues[did]
        spans_by_utt: dict[int, list[tuple[int, int]]] = {}
        for mid in corpus.markables_by_dialogue.get(did, ()):
            m = corpus.markables[mid]
            spans_by_utt.setdefault(m.utterance_index, []).append((m.start_token, m.end_token))
        for u_idx, msg in enumerate(d.messages):
            if not msg.tokens:
                continue
            tags = spans_to_bio(spans_by_utt.get(u_idx, []), len(msg.tokens))
            out.append(
                TagExample(
                    dialogue_id=did,
                    utterance_index=u_idx,
                    tokens=np.asarray([vocab.encode(t) for t in msg.tokens], dtype=np.int64),
                    tags=np.asarray(tags, dtype=np.int64),
                )
            )
    return out


class MarkableTagger:
    """Bidirectional GRU token encoder + CRF over B/I/O tags."""

    def __init__(self, config: TaggerConfig, vocab: Vocabulary):
        self.config = config
        self.vocab = vocab
        self.store = store = ParamStore(seed=config.seed, dtype=np.dtype(config.dtype))
        c = config
        store.add("emb", (len(vocab), c.embed_dim))
        for direction in ("fwd", "bwd"):
            add_gru_params(store, direction, c.embed_dim, c.hidden_dim)
        store.add("emit.W", (3, 2 * c.hidden_dim))
        store.add("emit.b", (3,), init="zeros")
        store.add("trans", (3, 3), init="zeros")

    def _emissions(self, tokens: np.ndarray):
        p = self.store
        x = p["emb"][tokens]
        h_f, cache_f = gru_sequence(p["fwd.W"], p["fwd.U"], p["fwd.b"], x)
        h_b_rev, cache_b = gru_sequence(p["bwd.W"], p["bwd.U"], p["bwd.b"], x[::-1].copy())
        h = np.concatenate([h_f, h_b_rev[::-1]], axis=1)
        return linear(h, p["emit.W"], p["emit.b"]), (x, cache_f, cache_b, h)

    def _emissions_backward(self, tokens: np.ndarray, cache, d_emissions) -> None:
        p, g = self.store, self.store.grads
        x, cache_f, cache_b, h = cache
        dh, dw, db = linear_backward(d_emissions, h, p["emit.W"])
        g["emit.W"] += dw
        g["emit.b"] += db
        hid = self.config.hidden_dim
        dx_f, grads_f = gru_sequence_backward(p["fwd.W"], p["fwd.U"], cache_f, dh[:, :hid])
        dx_b, grads_b = gru_sequence_backward(
            p["bwd.W"], p["bwd.U"], cache_b, dh[::-1, hid:].copy()
        )
        for direction, grads in (("fwd", grads_f), ("bwd", grads_b)):
            g[f"{direction}.W"] += grads["W"]
            g[f"{direction}.U"] += grads["U"]
            g[f"{direction}.b"] += grads["b"]
        dx = dx_f + dx_b[::-1]
        np.add.at(g["emb"], tokens, dx)

    def nll(self, ex: TagExample, backward: bool = False) -> float:
        emissions, cache = self._emissions(ex.tokens)
        loss, d_em, d_tr, _ = crf_nll(emissions, self.store["trans"], ex.tags)
        if backward:
            self.store.grads["trans"] += d_tr
            self._emissions_backward(ex.tokens, cache, d_em)
        return loss

    def decode(self, tokens: np.ndarray) -> list[int]:
        if len(tokens) == 0:
            return []
        emissions, _ = self._emissions(tokens)
        trans = self.store["trans"].copy()
        trans[O, I] += CONSTRAINT_PENALTY
        start = np.zeros(3, dtype=emissions.dtype)
        start[I] = CONSTRAINT_PENALTY
        path, _ = crf_viterbi(emissions, trans, start)
        return path

    def tag_utterance(self, tokens: Sequence[str]) -> list[tuple[int, int]]:
        """Token strings -> predicted markable spans (possibly empty)."""
        ids = np.asarray([self.vocab.encode(t) for t in tokens], dtype=np.int64)
        return bio_to_spans(self.decode(ids))

    def token_accuracy(self, examples: Sequence[TagExample]) -> float:
        hits = 0
        total = 0
        for ex in examples:
            pred = self.decode(ex.tokens)
            hits += int(np.sum(np.asarray(pred) == ex.tags))
            total += len(ex.tags)
        return hits / total if total else 0.0

    def span_f1(self, examples: Sequence[TagExample]) -> float:
        tp = fp = fn = 0
        for ex in examples:
            pred = set(bio_to_spans(self.decode(ex.tokens)))
            gold = set(bio_to_spans(list(ex.tags)))
            tp += len(pred & gold)
            fp += len(pred - gold)
            fn += len(gold - pred)
        if tp == 0:
            return 0.0
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        return 2 * precision * recall / (precision + recall)

    def save(self, prefix) -> None:
        save_checkpoint(self, prefix, "refgame-tagger")

    @classmethod
    def load(cls, prefix) -> "MarkableTagger":
        return load_checkpoint(cls, prefix, "refgame-tagger", TaggerConfig)


@dataclass
class TaggerTrainResult:
    tagger: MarkableTagger
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1


def train_tagger(
    corpus: AnnotatedCorpus,
    split: Split,
    config: TaggerConfig,
    *,
    log_path=None,
    quiet: bool = True,
) -> TaggerTrainResult:
    """CRF log-likelihood training with early stopping on validation token
    accuracy; deterministic given config.seed."""
    vocab = Vocabulary.from_corpus(corpus, split.train)
    train_ex = build_tag_examples(corpus, split.train, vocab)
    valid_ex = build_tag_examples(corpus, split.valid, vocab)
    require_examples(train=train_ex, valid=valid_ex)
    tagger = MarkableTagger(config, vocab)

    def validate() -> tuple[float, dict]:
        acc = tagger.token_accuracy(valid_ex)
        return -acc, {"valid_token_accuracy": acc}

    history, best_epoch = fit(
        tagger.store, train_ex, lambda ex, rng: tagger.nll(ex, backward=True), validate,
        config, "train_nll", log_path=log_path, quiet=quiet,
    )
    return TaggerTrainResult(tagger=tagger, history=history, best_epoch=best_epoch)


def predict_markables(tagger: MarkableTagger, corpus_or_dialogues) -> list[Markable]:
    """Run the tagger over dialogues (a corpus's in id order) and emit
    markable records (span detection only; no flags or links)."""
    if isinstance(corpus_or_dialogues, AnnotatedCorpus):
        dialogues = [corpus_or_dialogues.dialogues[d] for d in sorted(corpus_or_dialogues.dialogues)]
    else:
        dialogues = list(corpus_or_dialogues)
    out = []
    for d in dialogues:
        for u_idx, msg in enumerate(d.messages):
            for s_idx, (start, end) in enumerate(tagger.tag_utterance(msg.tokens)):
                out.append(
                    Markable(
                        id=f"{d.id}_auto_{u_idx}_{s_idx}",
                        dialogue_id=d.id,
                        utterance_index=u_idx,
                        start_token=start,
                        end_token=end,
                        speaker=msg.speaker,
                    )
                )
    return out
