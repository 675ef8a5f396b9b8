"""Baseline grounded-dialogue model: entity encoder, dialogue GRU, shared
entity attention, and up to three decoders (TSEL target selection, REF
per-entity reference resolution, DIAL next-token generation), trained
jointly with manual backpropagation over the neural kernel.

Serialization convention: each message becomes a speaker-prefix token
("YOU:" from the encoding player's perspective, "THEM:" otherwise), the
message tokens, then "<eou>"; each selection event becomes the prefix,
"<selection>", "<eou>".  Every dialogue yields two training examples, one
per player perspective.  The DIAL loss covers both speakers' tokens
including the control tokens but never the speaker prefixes (the protocol
supplies those).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import AnnotatedCorpus, Dialogue, GoldEntry, Markable, Message, Split
from .errors import DivergenceError, SchemaError
from .io import atomic_write_text, read_json
from .neural import (
    ParamStore,
    add_gru_params,
    bce_with_logits,
    cross_entropy,
    cross_entropy_rows,
    dropout_mask,
    fit,
    gru_cell,
    gru_sequence,
    gru_sequence_backward,
    linear,
    mlp,
    mlp_backward,
    sigmoid,
    softmax,
    softmax_backward,
    tanh,
)
from .scenario import VIEW_SIZE, view_feature_matrix

UNK = "<unk>"
YOU = "YOU:"
THEM = "THEM:"
EOU = "<eou>"
SEL = "<selection>"
SPECIALS = (UNK, YOU, THEM, EOU, SEL)

VARIANTS = ("TSEL", "REF", "TSEL-REF", "TSEL-DIAL", "TSEL-REF-DIAL")


def variant_heads(variant: str) -> frozenset[str]:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    return frozenset(p.lower() for p in variant.split("-"))


class Vocabulary:
    """Closed token vocabulary with reserved control tokens; unknown tokens
    map to a single <unk> id."""

    def __init__(self, tokens: Sequence[str]):
        for special in SPECIALS:
            if special in tokens:
                raise ValueError(f"reserved token {special!r} present in corpus tokens")
        self.tokens: tuple[str, ...] = SPECIALS + tuple(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, token: str) -> int:
        return self.index.get(token, self.index[UNK])

    def decode(self, idx: int) -> str:
        return self.tokens[idx]

    @classmethod
    def from_corpus(cls, corpus: AnnotatedCorpus, dialogue_ids: Iterable[str]) -> "Vocabulary":
        seen: set[str] = set()
        for did in dialogue_ids:
            for msg in corpus.dialogues[did].messages:
                seen.update(msg.tokens)
        return cls(sorted(seen))


def save_checkpoint(net, prefix, fmt: str, **extra) -> None:
    """Write ``net.store`` to ``<prefix>.params.json`` and a
    ``<prefix>.meta.json`` sidecar with the format tag, ``net.config``,
    ``net.vocab`` and any ``extra`` fields."""
    prefix = Path(prefix)
    net.store.save(prefix.with_suffix(".params.json"))
    meta = {
        "format": fmt,
        "version": 1,
        "config": asdict(net.config),
        "vocab": list(net.vocab.tokens[len(SPECIALS):]),
        **extra,
    }
    atomic_write_text(prefix.with_suffix(".meta.json"), json.dumps(meta))


def load_checkpoint(cls, prefix, fmt: str, config_cls):
    """Read a ``save_checkpoint`` pair back as ``cls(config, vocab, store)``.

    Raises SchemaError when the meta file is not a ``fmt`` checkpoint or is
    malformed, and when the parameters' names or shapes differ from the
    layout that a fresh ``cls(config, vocab)`` declares."""
    prefix = Path(prefix)
    kind = fmt.removeprefix("refgame-")
    try:
        meta = read_json(prefix.with_suffix(".meta.json"))
        if meta.get("format") != fmt:
            raise SchemaError(f"{prefix}: not a {kind} checkpoint")
        config, vocab = config_cls(**meta["config"]), Vocabulary(meta["vocab"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{prefix}: malformed {kind} checkpoint meta: {exc!r}") from exc
    store = ParamStore.load(prefix.with_suffix(".params.json"))
    try:
        cls(config, vocab).store.load_values(store.params)
    except ValueError as exc:
        raise SchemaError(
            f"{prefix}: parameters do not match the {kind} config and vocabulary: {exc}"
        ) from exc
    return cls(config, vocab, store=store)


def check_dtype(dtype: str) -> None:
    """The kernels run in float32 or float64 only."""
    if dtype not in ("float32", "float64"):
        raise ValueError(f"dtype must be float32 or float64, got {dtype!r}")


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "TSEL-REF-DIAL"
    embed_dim: int = 256
    hidden_dim: int = 256
    attr_dim: int = 128
    rel_dim: int = 128
    attn_dim: int = 256
    mlp_dim: int = 256
    dropout: float = 0.5
    w_tsel: float = 1.0
    w_ref: float = 1.0
    w_dial: float = 1.0
    lr: float = 1e-3
    grad_clip: float = 0.5
    batch_size: int = 16
    epochs: int = 30
    patience: int = 4
    seed: int = 0
    dtype: str = "float64"

    def __post_init__(self):
        variant_heads(self.variant)
        check_dtype(self.dtype)
        for name in ("embed_dim", "hidden_dim", "attr_dim", "rel_dim", "attn_dim", "mlp_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class StreamExample:
    """One dialogue serialized from one player's perspective."""

    dialogue_id: str
    perspective: str
    tokens: np.ndarray                 # (T,) int64 token ids
    dial_positions: np.ndarray         # (P,) positions with a DIAL target
    tsel_target: int                   # view-order index of own selection
    markable_ids: list[str]
    mark_positions: np.ndarray         # (M, 3) stream pos of start/last/eou
    ref_targets: np.ndarray            # (M, 7) gold bitset rows
    attrs: np.ndarray                  # (7, 4)
    rel: np.ndarray                    # (7, 6, 5)
    entity_ids: tuple[int, ...]        # world ids in view order


def serialize_dialogue(
    dialogue: Dialogue, perspective: str, vocab: Vocabulary
) -> tuple[np.ndarray, np.ndarray, dict[tuple[int, int], int], dict[int, int]]:
    """Token id stream plus DIAL target positions, a (utterance, token) ->
    stream position map, and per-utterance end-of-utterance positions."""
    ids: list[int] = []
    dial_pos: list[int] = []
    tok_pos: dict[tuple[int, int], int] = {}
    eou_pos: dict[int, int] = {}
    utt = -1
    for event in dialogue.events:
        prefix = YOU if event.speaker == perspective else THEM
        ids.append(vocab.encode(prefix))
        if isinstance(event, Message):
            utt += 1
            for t_idx, token in enumerate(event.tokens):
                tok_pos[(utt, t_idx)] = len(ids)
                dial_pos.append(len(ids))
                ids.append(vocab.encode(token))
            eou_pos[utt] = len(ids)
        else:
            dial_pos.append(len(ids))
            ids.append(vocab.encode(SEL))
        dial_pos.append(len(ids))
        ids.append(vocab.encode(EOU))
    return (
        np.asarray(ids, dtype=np.int64),
        np.asarray(dial_pos, dtype=np.int64),
        tok_pos,
        eou_pos,
    )


def markable_positions(markables: Sequence[Markable], tok_pos, eou_pos) -> np.ndarray:
    """(M, 3) stream positions of each markable's first token, last token and
    its utterance's <eou>, from ``serialize_dialogue``'s position maps."""
    rows = [
        (tok_pos[m.utterance_index, m.start_token], tok_pos[m.utterance_index, m.end_token - 1],
         eou_pos[m.utterance_index])
        for m in markables
    ]
    return np.asarray(rows, dtype=np.int64).reshape(-1, 3)


def build_examples(
    corpus: AnnotatedCorpus,
    dialogue_ids: Iterable[str],
    vocab: Vocabulary,
    gold: Mapping[str, GoldEntry],
) -> list[StreamExample]:
    """Two perspective examples per dialogue.  REF rows cover the
    perspective speaker's non-generic markables with usable gold (dropped
    markables are excluded)."""
    out = []
    for did in dialogue_ids:
        d = corpus.dialogues[did]
        scenario = corpus.scenarios[d.scenario_id]
        for perspective in ("A", "B"):
            tokens, dial_positions, tok_pos, eou_pos = serialize_dialogue(d, perspective, vocab)
            view = scenario.view(perspective)
            order = {eid: i for i, eid in enumerate(view.visible)}
            marks: list[Markable] = []
            targets: list[np.ndarray] = []
            for mid in corpus.markables_by_dialogue.get(did, ()):
                m = corpus.markables[mid]
                if m.speaker != perspective or m.generic:
                    continue
                entry = gold.get(mid)
                if entry is None or entry.dropped:
                    continue
                row = np.zeros(VIEW_SIZE)
                for e in entry.referents:
                    row[order[e]] = 1.0
                marks.append(m)
                targets.append(row)
            attrs, rel = view_feature_matrix(scenario, perspective)
            out.append(
                StreamExample(
                    dialogue_id=did,
                    perspective=perspective,
                    tokens=tokens,
                    dial_positions=dial_positions,
                    tsel_target=order[d.selections[perspective]],
                    markable_ids=[m.id for m in marks],
                    mark_positions=markable_positions(marks, tok_pos, eou_pos),
                    ref_targets=(np.stack(targets) if targets else np.zeros((0, VIEW_SIZE))),
                    attrs=attrs,
                    rel=rel,
                    entity_ids=view.visible,
                )
            )
    return out


class GroundingModel:
    """Parameters plus forward/backward for all decoder combinations."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary, store: ParamStore | None = None):
        self.config = config
        self.vocab = vocab
        self.heads = variant_heads(config.variant)
        dt = np.dtype(config.dtype)
        if store is None:
            store = ParamStore(seed=config.seed, dtype=dt)
            c = config
            de = c.attr_dim + c.rel_dim
            store.add("emb", (len(vocab), c.embed_dim))
            add_gru_params(store, "gru", c.embed_dim, c.hidden_dim)
            store.add("enc_attr.W", (c.attr_dim, 4))
            store.add("enc_attr.b", (c.attr_dim,), init="zeros")
            store.add("enc_rel.W", (c.rel_dim, 5))
            store.add("enc_rel.b", (c.rel_dim,), init="zeros")
            store.add("attn.We", (c.attn_dim, de))
            store.add("attn.Wq", (c.attn_dim, c.hidden_dim))
            store.add("attn.b", (c.attn_dim,), init="zeros")
            for head in ("tsel", "ref", "dial"):
                if head in self.heads:
                    store.add(f"attn.v_{head}", (c.attn_dim,), init="uniform")
            if "dial" in self.heads:
                store.add("dial.W1", (c.mlp_dim, c.hidden_dim + de))
                store.add("dial.b1", (c.mlp_dim,), init="zeros")
                store.add("dial.W2", (len(vocab), c.mlp_dim))
                store.add("dial.b2", (len(vocab),), init="zeros")
        self.store = store

    # --- building blocks ---------------------------------------------------

    def encode_entities(self, attrs: np.ndarray, rel: np.ndarray):
        """Entity encodings (7, De), their ``attn.We`` projection (7, A) and
        the cache for ``_encode_entities_backward``."""
        p = self.store
        attr_emb = tanh(linear(attrs, p["enc_attr.W"], p["enc_attr.b"]))
        rel_tanh = tanh(linear(rel, p["enc_rel.W"], p["enc_rel.b"]))
        entities = np.concatenate([attr_emb, rel_tanh.sum(axis=1)], axis=1)
        return entities, entities @ p["attn.We"].T, (attr_emb, rel_tanh)

    def _encode_entities_backward(self, attrs, rel, cache, d_entities) -> None:
        attr_emb, rel_tanh = cache
        g = self.store.grads
        da = d_entities[:, : self.config.attr_dim] * (1.0 - attr_emb * attr_emb)
        g["enc_attr.W"] += da.T @ attrs
        g["enc_attr.b"] += da.sum(axis=0)
        dr = d_entities[:, None, self.config.attr_dim:] * (1.0 - rel_tanh * rel_tanh)
        g["enc_rel.W"] += dr.reshape(-1, dr.shape[-1]).T @ rel.reshape(-1, rel.shape[-1])
        g["enc_rel.b"] += dr.sum(axis=(0, 1))

    def _encode_tokens(self, tokens: np.ndarray):
        """Dialogue GRU states (T, H) over a token-id stream, and their cache."""
        p = self.store
        return gru_sequence(p["gru.W"], p["gru.U"], p["gru.b"], p["emb"][tokens])

    def _attention(self, entities_proj: np.ndarray, queries: np.ndarray, head: str):
        """Scores for each of the 7 entities against each query row:
        score[q, i] = v_head . tanh(We e_i + Wq h_q + b)."""
        p = self.store
        q_proj = queries @ p["attn.Wq"].T
        act = tanh(entities_proj[None, :, :] + q_proj[:, None, :] + p["attn.b"])
        return act @ p[f"attn.v_{head}"], act

    def _attention_backward(self, dscores, act, entities, queries, head: str):
        """Returns (d_entities, d_queries); accumulates parameter grads.

        ``act`` is (Q, 7, A) and the pre-activation is ``We e_i + Wq h_q +
        b``, so its gradient reduces to a per-entity sum (7, A) over the
        queries and a per-query sum (Q, A) over the entities, each of which
        then meets its weight in one matmul."""
        p, g = self.store, self.store.grads
        v = p[f"attn.v_{head}"]
        g[f"attn.v_{head}"] += dscores.reshape(-1) @ act.reshape(-1, act.shape[-1])
        dact = dscores[:, :, None] * v[None, None, :] * (1.0 - act * act)
        d_pre_e = dact.sum(axis=0)
        d_pre_q = dact.sum(axis=1)
        g["attn.We"] += d_pre_e.T @ entities
        g["attn.Wq"] += d_pre_q.T @ queries
        g["attn.b"] += d_pre_q.sum(axis=0)
        return d_pre_e @ p["attn.We"], d_pre_q @ p["attn.Wq"]

    # --- the three heads ----------------------------------------------------

    def _head_forward(self, head: str, entities, entities_proj, queries):
        """One head over query rows (Q, H): entity scores (Q, 7) for TSEL and
        REF, next-token logits (Q, V) for DIAL.  Returns (out, cache), where
        the cache holds what ``_head_backward`` needs."""
        if head not in self.heads:
            raise ValueError(f"variant {self.config.variant} has no {head.upper()} head")
        scores, act = self._attention(entities_proj, queries, head)
        if head != "dial":
            return scores, (entities, queries, act)
        p = self.store
        alpha = softmax(scores, axis=-1)
        z = np.concatenate([queries, alpha @ entities], axis=1)
        logits, u1 = mlp(z, p["dial.W1"], p["dial.b1"], p["dial.W2"], p["dial.b2"])
        return logits, (entities, queries, act, alpha, z, u1)

    def _head_backward(self, head: str, dout, cache, d_entities):
        """Backward of ``_head_forward``: accumulates parameter grads, adds
        the entity gradient into ``d_entities`` and returns the query
        gradient (Q, H)."""
        entities, queries, act, *dial = cache
        if head != "dial":
            de, dq = self._attention_backward(dout, act, entities, queries, head)
            d_entities += de
            return dq
        p, g = self.store, self.store.grads
        alpha, z, u1 = dial
        dz, *grads = mlp_backward(dout, z, u1, p["dial.W1"], p["dial.W2"])
        for name, grad in zip(("dial.W1", "dial.b1", "dial.W2", "dial.b2"), grads):
            g[name] += grad
        d_queries = dz[:, : self.config.hidden_dim].copy()
        d_context = dz[:, self.config.hidden_dim:]
        d_entities += alpha.T @ d_context
        dscores = softmax_backward(d_context @ entities.T, alpha, axis=-1)
        de, dq = self._attention_backward(dscores, act, entities, queries, "dial")
        d_entities += de
        d_queries += dq
        return d_queries

    # --- joint forward/backward over one example ----------------------------

    def run_example(
        self,
        ex: StreamExample,
        *,
        train: bool = False,
        rng: np.random.Generator | None = None,
        backward: bool = False,
    ) -> dict[str, float]:
        """Compute the active-head losses; when ``backward`` is set the
        parameter gradients are accumulated into the store."""
        p, g = self.store, self.store.grads
        cfg = self.config
        entities, entities_proj, enc_cache = self.encode_entities(ex.attrs, ex.rel)
        h_seq, gru_cache = self._encode_tokens(ex.tokens)
        if train and cfg.dropout > 0.0:
            if rng is None:
                raise ValueError("training forward needs an rng for dropout")
            mask = dropout_mask(rng, h_seq.shape, cfg.dropout, dtype=h_seq.dtype)
            hd = h_seq * mask
        else:
            mask = None
            hd = h_seq

        losses: dict[str, float] = {}
        d_hd = np.zeros_like(hd) if backward else None
        d_entities = np.zeros_like(entities) if backward else None

        if "tsel" in self.heads:
            q = hd[-1][None, :]
            scores, cache = self._head_forward("tsel", entities, entities_proj, q)
            losses["tsel"], dscores = cross_entropy(scores[0], ex.tsel_target)
            if backward:
                dq = self._head_backward("tsel", cfg.w_tsel * dscores[None, :], cache, d_entities)
                d_hd[-1] += dq[0]

        if "ref" in self.heads and len(ex.markable_ids) > 0:
            pos = ex.mark_positions
            queries = _ref_queries(hd, pos)
            scores, cache = self._head_forward("ref", entities, entities_proj, queries)
            losses["ref"], dscores = bce_with_logits(scores, ex.ref_targets)
            if backward:
                dq = self._head_backward("ref", cfg.w_ref * dscores, cache, d_entities)
                for col in range(3):
                    np.add.at(d_hd, pos[:, col], dq / 3.0)
        elif "ref" in self.heads:
            losses["ref"] = 0.0

        if "dial" in self.heads:
            pos = ex.dial_positions
            h_in = hd[pos - 1]
            logits, cache = self._head_forward("dial", entities, entities_proj, h_in)
            losses["dial"], dlogits = cross_entropy_rows(logits, ex.tokens[pos])
            if backward:
                d_hin = self._head_backward("dial", cfg.w_dial * dlogits, cache, d_entities)
                np.add.at(d_hd, pos - 1, d_hin)

        total = sum(
            getattr(cfg, f"w_{head}") * value for head, value in losses.items()
        )
        losses["total"] = total
        if not np.isfinite(total):
            raise DivergenceError(
                f"non-finite loss on dialogue {ex.dialogue_id} ({ex.perspective}): {losses}"
            )
        if backward:
            d_h = d_hd * mask if mask is not None else d_hd
            dx, gru_grads, _ = gru_sequence_backward(p["gru.W"], p["gru.U"], gru_cache, d_h)
            g["gru.W"] += gru_grads["W"]
            g["gru.U"] += gru_grads["U"]
            g["gru.b"] += gru_grads["b"]
            np.add.at(g["emb"], ex.tokens, dx)
            self._encode_entities_backward(ex.attrs, ex.rel, enc_cache, d_entities)
        return losses

    # --- inference -----------------------------------------------------------

    def predict(self, ex: StreamExample) -> dict[str, np.ndarray]:
        """Probabilities of the model's TSEL and REF heads for one example:
        ``"tsel"`` (7,) over the view and ``"ref"`` (M, 7) per markable.  One
        GRU pass and one entity encoding serve both heads."""
        h_seq, _ = self._encode_tokens(ex.tokens)
        entities, entities_proj, _ = self.encode_entities(ex.attrs, ex.rel)
        out = {}
        if "tsel" in self.heads:
            scores, _ = self._head_forward("tsel", entities, entities_proj, h_seq[-1][None, :])
            out["tsel"] = softmax(scores[0])
        if "ref" in self.heads:
            queries = _ref_queries(h_seq, ex.mark_positions)
            scores, _ = self._head_forward("ref", entities, entities_proj, queries)
            out["ref"] = sigmoid(scores)
        return out

    def ref_probs_at(self, attrs, rel, tokens: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """REF probabilities (M, 7) for (start, last, eou) stream positions in
        ``tokens``, seen from the view whose features are ``attrs``/``rel``."""
        entities, entities_proj, _ = self.encode_entities(attrs, rel)
        h_seq, _ = self._encode_tokens(tokens)
        queries = _ref_queries(h_seq, positions)
        scores, _ = self._head_forward("ref", entities, entities_proj, queries)
        return sigmoid(scores)

    # --- incremental decoding (selfplay) --------------------------------------

    def start_state(self, attrs: np.ndarray, rel: np.ndarray) -> "DecoderState":
        entities, entities_proj, _ = self.encode_entities(attrs, rel)
        h = np.zeros(self.config.hidden_dim, dtype=self.store.dtype)
        return DecoderState(model=self, entities=entities, entities_proj=entities_proj, h=h)

    def save(self, prefix, history: list[dict] | None = None) -> None:
        save_checkpoint(self, prefix, "refgame-model", history=history or [])

    @classmethod
    def load(cls, prefix) -> "GroundingModel":
        return load_checkpoint(cls, prefix, "refgame-model", ModelConfig)


def _ref_queries(h: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """REF query rows: the mean of the states at each (start, last, eou) row."""
    return (h[positions[:, 0]] + h[positions[:, 1]] + h[positions[:, 2]]) / 3.0


@dataclass
class DecoderState:
    """Incremental GRU state over one agent's token stream."""

    model: GroundingModel
    entities: np.ndarray
    entities_proj: np.ndarray
    h: np.ndarray

    def feed(self, token_id: int) -> None:
        p = self.model.store
        x = p["emb"][token_id]
        self.h = gru_cell(p["gru.W"], p["gru.U"], p["gru.b"], x, self.h)

    def fork(self) -> "DecoderState":
        """An independent copy to decode ahead from."""
        return replace(self, h=self.h.copy())

    def _probs(self, head: str) -> np.ndarray:
        out, _ = self.model._head_forward(head, self.entities, self.entities_proj, self.h[None, :])
        return softmax(out[0])

    def next_token_probs(self) -> np.ndarray:
        return self._probs("dial")

    def tsel_probs(self) -> np.ndarray:
        return self._probs("tsel")


# --- training loop -------------------------------------------------------------

@dataclass
class TrainResult:
    model: GroundingModel
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1


def _mean_losses(model: GroundingModel, examples: Sequence[StreamExample]) -> dict[str, float]:
    sums: dict[str, float] = {}
    for ex in examples:
        for k, v in model.run_example(ex).items():
            sums[k] = sums.get(k, 0.0) + v
    return {k: v / len(examples) for k, v in sums.items()}


def require_examples(**sets: Sequence) -> None:
    """Training needs at least one example in each named set."""
    for name, examples in sets.items():
        if not examples:
            raise SchemaError(f"empty {name} set: split.{name} yields no examples")


def train_model(
    config: ModelConfig,
    corpus: AnnotatedCorpus,
    split: Split,
    gold: Mapping[str, GoldEntry],
    *,
    log_path=None,
    quiet: bool = True,
) -> TrainResult:
    """Joint training with early stopping on validation loss.  Deterministic
    given config.seed (shuffling and dropout share one seeded rng)."""
    vocab = Vocabulary.from_corpus(corpus, split.train)
    train_ex = build_examples(corpus, split.train, vocab, gold)
    valid_ex = build_examples(corpus, split.valid, vocab, gold)
    require_examples(train=train_ex, valid=valid_ex)
    model = GroundingModel(config, vocab)

    def step(ex: StreamExample, rng: np.random.Generator) -> float:
        return model.run_example(ex, train=True, rng=rng, backward=True)["total"]

    def validate() -> tuple[float, dict]:
        valid = _mean_losses(model, valid_ex)
        total = valid.pop("total")
        return total, {"valid_loss": total, **{f"valid_{k}": v for k, v in valid.items()}}

    history, best_epoch = fit(
        model.store, train_ex, step, validate, config, "train_loss", log_path=log_path, quiet=quiet
    )
    return TrainResult(model=model, history=history, best_epoch=best_epoch)
