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
from .model import Vocabulary, check_config, load_checkpoint, require_examples, save_checkpoint
from .neural import (
    ParamStore,
    add_gru_params,
    by_length,
    crf_nll,
    crf_viterbi,
    fit,
    gru_sequence,
    gru_sequence_backward,
    linear,
    linear_backward,
    live_mask,
    pack,
)

B, I, O = 0, 1, 2
TAG_NAMES = ("B", "I", "O")
CONSTRAINT_PENALTY = -1e4
DECODE_CHUNK = 64   # utterances per packed decode batch


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
        check_config(self)


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
    """Bidirectional GRU token encoder + CRF over B/I/O tags, run on packed
    batches of utterances (see ``neural/kernels.py`` for the layout)."""

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

    def _emissions(self, seqs: Sequence[np.ndarray]):
        """Emission scores (T, B, 3) of token-id arrays sorted longest first,
        packed as (T, B); returns them, the row lengths and the cache for
        ``_emissions_backward``."""
        p = self.store
        tokens = pack(seqs)
        lengths = np.array([len(seq) for seq in seqs])
        steps = np.arange(len(tokens))[:, None]
        live = live_mask(lengths)
        # the backward GRU's step t of row b reads token lengths[b] - 1 - t;
        # padding maps to itself, so ``flip`` reverses its own gather
        flip = np.where(live, lengths - 1 - steps, steps), np.arange(len(lengths))
        x = p["emb"][tokens]
        h_f, cache_f = gru_sequence(p["fwd.W"], p["fwd.U"], p["fwd.b"], x, lengths)
        h_b, cache_b = gru_sequence(p["bwd.W"], p["bwd.U"], p["bwd.b"], x[flip], lengths)
        h = np.concatenate([h_f, h_b[flip]], axis=2)
        emissions = linear(h, p["emit.W"], p["emit.b"])
        return emissions, lengths, (tokens, live, flip, cache_f, cache_b, h)

    def _emissions_backward(self, cache, d_emissions) -> None:
        p, g = self.store, self.store.grads
        tokens, live, flip, cache_f, cache_b, h = cache
        dh, dw, db = linear_backward(d_emissions, h, p["emit.W"])
        g["emit.W"] += dw
        g["emit.b"] += db
        hid = self.config.hidden_dim
        dx_f, grads_f = gru_sequence_backward(p["fwd.W"], p["fwd.U"], cache_f, dh[..., :hid])
        dx_b, grads_b = gru_sequence_backward(p["bwd.W"], p["bwd.U"], cache_b, dh[..., hid:][flip])
        for direction, grads in (("fwd", grads_f), ("bwd", grads_b)):
            g[f"{direction}.W"] += grads["W"]
            g[f"{direction}.U"] += grads["U"]
            g[f"{direction}.b"] += grads["b"]
        dx = dx_f + dx_b[flip]
        np.add.at(g["emb"], tokens[live], dx[live])

    def nll(self, examples: TagExample | Sequence[TagExample], backward: bool = False):
        """CRF negative log-likelihood of one example, or a list of each
        example's in the given order, from one packed forward pass; with
        ``backward`` the gradients of their sum are accumulated into the
        store."""
        one = isinstance(examples, TagExample)
        batch = [examples] if one else examples
        order = by_length([ex.tokens for ex in batch])
        emissions, lengths, cache = self._emissions([batch[i].tokens for i in order])
        tags = pack([batch[i].tags for i in order])
        nll, d_em, d_tr = crf_nll(emissions, self.store["trans"], tags, lengths)
        if backward:
            self.store.grads["trans"] += d_tr
            self._emissions_backward(cache, d_em)
        losses = nll[np.argsort(order)].tolist()
        return losses[0] if one else losses

    def decode(self, tokens: np.ndarray | Sequence[np.ndarray]):
        """Constrained Viterbi tag path of one token-id array, or a list of
        the paths of a list of them in the given order.  They are sorted by
        length and decoded in packed chunks of ``DECODE_CHUNK``; an empty
        array decodes to ``[]``."""
        one = isinstance(tokens, np.ndarray)
        token_seqs = [tokens] if one else tokens
        trans = self.store["trans"].copy()
        trans[O, I] += CONSTRAINT_PENALTY
        start = np.zeros(3, dtype=trans.dtype)
        start[I] = CONSTRAINT_PENALTY
        paths: list[list[int]] = [[] for _ in token_seqs]
        order = [i for i in by_length(token_seqs) if len(token_seqs[i])]
        for lo in range(0, len(order), DECODE_CHUNK):
            chunk = order[lo: lo + DECODE_CHUNK]
            emissions, lengths, _ = self._emissions([token_seqs[i] for i in chunk])
            for i, path in zip(chunk, crf_viterbi(emissions, trans, lengths, start)[0]):
                paths[i] = path
        return paths[0] if one else paths

    def scores(self, examples: Sequence[TagExample]) -> dict[str, float]:
        """Token accuracy and span F1 of the decoded paths against the
        examples' tags, from one decode.  Span F1 is 2 * matched spans /
        (predicted + gold spans), and 0.0 when no span matches."""
        hits = tokens = matched = spans = 0
        for ex, path in zip(examples, self.decode([ex.tokens for ex in examples])):
            hits += int(np.sum(np.asarray(path) == ex.tags))
            tokens += len(ex.tags)
            pred, gold = set(bio_to_spans(path)), set(bio_to_spans(ex.tags.tolist()))
            matched += len(pred & gold)
            spans += len(pred) + len(gold)
        return {
            "token_accuracy": hits / tokens if tokens else 0.0,
            "span_f1": 2 * matched / spans if matched else 0.0,
        }

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
    accuracy; each epoch also records validation span F1.  Deterministic
    given config.seed."""
    vocab = Vocabulary.from_corpus(corpus, split.train)
    train_ex = build_tag_examples(corpus, split.train, vocab)
    valid_ex = build_tag_examples(corpus, split.valid, vocab)
    require_examples(train=train_ex, valid=valid_ex)
    tagger = MarkableTagger(config, vocab)

    def validate() -> tuple[float, dict]:
        scores = tagger.scores(valid_ex)
        return -scores["token_accuracy"], {f"valid_{k}": v for k, v in scores.items()}

    history, best_epoch = fit(
        tagger.store, train_ex, lambda batch, rng: tagger.nll(batch, backward=True), validate,
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
    utterances = [(d, u_idx, msg) for d in dialogues for u_idx, msg in enumerate(d.messages)]
    paths = tagger.decode([
        np.asarray([tagger.vocab.encode(t) for t in msg.tokens], dtype=np.int64)
        for _, _, msg in utterances
    ])
    out = []
    for (d, u_idx, msg), path in zip(utterances, paths):
        for s_idx, (start, end) in enumerate(bio_to_spans(path)):
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
