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

import hashlib
import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .corpus import AnnotatedCorpus, Dialogue, GoldEntry, Markable, Message, Split
from .errors import DivergenceError, SchemaError
from .io import atomic_write_bytes, from_record, read_list, read_value
from .neural import (
    ParamStore,
    add_gru_params,
    bce_with_logits,
    by_length,
    cross_entropy_rows,
    dropout_mask,
    fit,
    gru_cell,
    gru_sequence,
    gru_sequence_backward,
    linear,
    live_mask,
    mlp,
    mlp_backward,
    pack,
    sigmoid,
    softmax,
    softmax_backward,
    tanh,
)
from .scenario import VIEW_SIZE, Scenario, view_feature_matrix

UNK = "<unk>"
YOU = "YOU:"
THEM = "THEM:"
EOU = "<eou>"
SEL = "<selection>"
SPECIALS = (UNK, YOU, THEM, EOU, SEL)

# each variant names its heads in the order they run, TSEL, REF, DIAL,
# which fixes how gradients accumulate
VARIANTS = ("TSEL", "REF", "TSEL-REF", "TSEL-DIAL", "TSEL-REF-DIAL")
# a markable refers to an entity when its REF probability reaches this
REF_THRESHOLD = 0.5
# examples per packed GRU pass: the chunk's GRU cache and backward
# temporaries set a training epoch's peak memory
PACK_CHUNK = 8


def variant_heads(variant: str) -> tuple[str, ...]:
    """The variant's heads, lower-case, in the order they run."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    return tuple(variant.lower().split("-"))


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


CHECKPOINT_VERSION = 2


def _layout(net) -> list:
    """The parameter layout ``[[name, shape], ...]`` of ``net``, in store order."""
    return [[name, list(a.shape)] for name, a in net.store.params.items()]


def save_checkpoint(net, prefix, fmt: str) -> None:
    """Write ``net`` to ``<prefix>.ckpt``: one JSON header line, then every
    parameter's raw little-endian bytes in store order.  The header holds
    the format tag, the version, the package version, ``net.config``,
    ``net.vocab``, the parameter layout ``_layout(net)`` and the
    payload's SHA-256; the payload's dtype is the config's."""
    arrays = [np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")) for a in net.store.params.values()]
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a)
    header = {
        "format": fmt,
        "version": CHECKPOINT_VERSION,
        "refgame": __version__,
        "config": asdict(net.config),
        "vocab": list(net.vocab.tokens[len(SPECIALS):]),
        "params": _layout(net),
        "payload_sha256": digest.hexdigest(),
    }
    atomic_write_bytes(Path(prefix).with_suffix(".ckpt"), json.dumps(header).encode() + b"\n", *arrays)


def load_checkpoint(cls, prefix, fmt: str, config_cls):
    """Read a ``save_checkpoint`` file back into a fresh ``cls(config, vocab)``,
    in the parameter layout that net declares.

    Raises SchemaError naming the file when the header is not a JSON line
    of a version 2 ``fmt`` checkpoint with fields of their JSON types, when
    the header's ``params`` is not ``_layout`` of that net, and when the
    payload's length or SHA-256 differs from what the layout and the header
    declare."""
    path = Path(prefix).with_suffix(".ckpt")
    with open(path, "rb") as f:
        line = f.readline()
        payload = f.read()
    try:
        if not line.endswith(b"\n"):
            raise SchemaError("no header line")
        try:
            header = json.loads(line)
        except ValueError as exc:
            raise SchemaError(f"the header is not JSON: {exc}") from None
        if read_value(header, "format", str) != fmt or read_value(header, "version", int) != CHECKPOINT_VERSION:
            raise SchemaError(f"not a version {CHECKPOINT_VERSION} {fmt.removeprefix('refgame-')} checkpoint")
        net = cls(from_record(config_cls, read_value(header, "config", dict)),
                  Vocabulary(read_list(header, "vocab", str)))
        # compared as JSON, so a shape of floats or bools is not the layout
        if json.dumps(read_list(header, "params", list)) != json.dumps(_layout(net)):
            raise SchemaError("the parameters do not match the config and vocabulary")
        params = net.store.params
        size = sum(a.nbytes for a in params.values())
        if len(payload) != size:
            raise SchemaError(f"the payload is {len(payload)} bytes; the layout needs {size}")
        if hashlib.sha256(payload).hexdigest() != read_value(header, "payload_sha256", str):
            raise SchemaError("the payload's SHA-256 is not the header's payload_sha256")
        values, offset = {}, 0
        for name, a in params.items():
            array = np.frombuffer(payload, a.dtype.newbyteorder("<"), a.size, offset)
            values[name] = array.reshape(a.shape).astype(a.dtype, copy=False)
            offset += a.nbytes
        net.store.load_values(values)
    except (SchemaError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from None
    return net


def check_config(config) -> None:
    """Refuse a training config that ``fit`` cannot run: a dtype other than
    float32 or float64 (the kernels' two), a ``*_dim``, ``epochs``,
    ``batch_size`` or ``patience`` below 1, or an ``lr`` that is not finite
    and positive.  Each raises ValueError naming the field."""
    if config.dtype not in ("float32", "float64"):
        raise ValueError(f"dtype must be float32 or float64, got {config.dtype!r}")
    for f in fields(config):
        value = getattr(config, f.name)
        if (f.name.endswith("_dim") or f.name in ("epochs", "batch_size", "patience")) and value < 1:
            raise ValueError(f"{f.name} must be at least 1, got {value}")
    if not 0 < config.lr < math.inf:
        raise ValueError(f"lr must be finite and greater than 0, got {config.lr}")


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
    lr: float = 1e-3
    grad_clip: float = 0.5
    batch_size: int = 16
    epochs: int = 30
    patience: int = 4
    seed: int = 0
    dtype: str = "float64"

    def __post_init__(self):
        variant_heads(self.variant)
        check_config(self)
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be at least 0 and below 1, got {self.dropout}")


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
    # the dialogue GRU states (T', H) over a prefix of ``tokens`` that holds
    # every position a head reads, computed in selfplay, or None: inference
    # then runs the packed GRU over the stream
    states: np.ndarray | None = None


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


def build_examples(
    corpus: AnnotatedCorpus,
    dialogue_ids: Iterable[str],
    vocab: Vocabulary,
    gold: Mapping[str, GoldEntry],
) -> list[StreamExample]:
    """``dialogue_examples`` of each dialogue, with the corpus's markables."""
    out = []
    for did in dialogue_ids:
        d = corpus.dialogues[did]
        markables = [corpus.markables[mid] for mid in corpus.markables_by_dialogue.get(did, ())]
        out += dialogue_examples(d, corpus.scenarios[d.scenario_id], vocab, markables, gold)
    return out


def dialogue_examples(
    dialogue: Dialogue,
    scenario: Scenario,
    vocab: Vocabulary,
    markables: Sequence[Markable],
    gold: Mapping[str, GoldEntry],
) -> list[StreamExample]:
    """The dialogue's two perspective examples, A then B.  REF rows cover
    the perspective speaker's non-generic markables, in ``markables``
    order, that have a ``gold`` entry which is not dropped; each row is
    read at the stream positions of the markable's first token, last
    token and its utterance's <eou>."""
    out = []
    for perspective in ("A", "B"):
        tokens, dial_positions, tok_pos, eou_pos = serialize_dialogue(dialogue, perspective, vocab)
        view = scenario.view(perspective)
        order = {eid: i for i, eid in enumerate(view.visible)}
        marks = [
            m for m in markables
            if m.speaker == perspective and not m.generic and m.id in gold and not gold[m.id].dropped
        ]
        targets = np.zeros((len(marks), VIEW_SIZE))
        for row, m in zip(targets, marks):
            row[[order[e] for e in gold[m.id].referents]] = 1.0
        positions = [
            (tok_pos[m.utterance_index, m.start_token], tok_pos[m.utterance_index, m.end_token - 1],
             eou_pos[m.utterance_index])
            for m in marks
        ]
        attrs, rel = view_feature_matrix(scenario, perspective)
        out.append(
            StreamExample(
                dialogue_id=dialogue.id,
                perspective=perspective,
                tokens=tokens,
                dial_positions=dial_positions,
                tsel_target=order[dialogue.selections[perspective]],
                markable_ids=[m.id for m in marks],
                mark_positions=np.asarray(positions, dtype=np.int64).reshape(-1, 3),
                ref_targets=targets,
                attrs=attrs,
                rel=rel,
                entity_ids=view.visible,
            )
        )
    return out


class GroundingModel:
    """Parameters plus forward/backward for all decoder combinations."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary):
        self.config = config
        self.vocab = vocab
        self.heads = variant_heads(config.variant)
        self.store = store = ParamStore(seed=config.seed, dtype=np.dtype(config.dtype))
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
        for head in self.heads:
            store.add(f"attn.v_{head}", (c.attn_dim,), init="uniform")
        if "dial" in self.heads:
            store.add("dial.W1", (c.mlp_dim, c.hidden_dim + de))
            store.add("dial.b1", (c.mlp_dim,), init="zeros")
            store.add("dial.W2", (len(vocab), c.mlp_dim))
            store.add("dial.b2", (len(vocab),), init="zeros")
        self._input_table: np.ndarray | None = None
        self._input_table_version = -1

    # --- building blocks ---------------------------------------------------

    def encode_entities(self, attrs: np.ndarray, rel: np.ndarray):
        """Entity encodings (7, De), their ``attn.We`` projection (7, A) and
        the cache for ``_encode_entities_backward``, all in the store's
        dtype (the view features are float64 and are cast here)."""
        p = self.store
        attrs = attrs.astype(p.dtype, copy=False)
        rel = rel.astype(p.dtype, copy=False)
        attr_emb = tanh(linear(attrs, p["enc_attr.W"], p["enc_attr.b"]))
        rel_tanh = tanh(linear(rel, p["enc_rel.W"], p["enc_rel.b"]))
        entities = np.concatenate([attr_emb, rel_tanh.sum(axis=1)], axis=1)
        return entities, entities @ p["attn.We"].T, (attrs, rel, attr_emb, rel_tanh)

    def _encode_entities_backward(self, cache, d_entities) -> None:
        attrs, rel, attr_emb, rel_tanh = cache
        g = self.store.grads
        da = d_entities[:, : self.config.attr_dim] * (1.0 - attr_emb * attr_emb)
        g["enc_attr.W"] += da.T @ attrs
        g["enc_attr.b"] += da.sum(axis=0)
        dr = d_entities[:, None, self.config.attr_dim:] * (1.0 - rel_tanh * rel_tanh)
        g["enc_rel.W"] += dr.reshape(-1, dr.shape[-1]).T @ rel.reshape(-1, rel.shape[-1])
        g["enc_rel.b"] += dr.sum(axis=(0, 1))

    def _encode_tokens(self, seqs: Sequence[np.ndarray]):
        """Dialogue GRU states (T, B, H) over token-id streams sorted longest
        first, packed as (T, B), and the cache for ``_encode_tokens_backward``."""
        p = self.store
        tokens = pack(seqs)
        lengths = np.array([len(seq) for seq in seqs])
        h_seq, cache = gru_sequence(p["gru.W"], p["gru.U"], p["gru.b"], p["emb"][tokens], lengths)
        return h_seq, (tokens, cache)

    def _encode_tokens_backward(self, cache, dh_seq: np.ndarray) -> None:
        p, g = self.store, self.store.grads
        tokens, gru_cache = cache
        live = live_mask(gru_cache.lengths)
        dx, gru_grads = gru_sequence_backward(p["gru.W"], p["gru.U"], gru_cache, dh_seq)
        g["gru.W"] += gru_grads["W"]
        g["gru.U"] += gru_grads["U"]
        g["gru.b"] += gru_grads["b"]
        np.add.at(g["emb"], tokens[live], dx[live])

    def _packs(self, examples: Sequence[StreamExample]):
        """``examples`` packed for the GRU in consecutive chunks of
        ``PACK_CHUNK``, each sorted by length.  Yields each chunk's
        examples in the given order, the packed column of each (the
        inverse of the sort), and the chunk's GRU states and cache from
        ``_encode_tokens``."""
        for lo in range(0, len(examples), PACK_CHUNK):
            chunk = examples[lo: lo + PACK_CHUNK]
            order = by_length([ex.tokens for ex in chunk])
            yield (chunk, np.argsort(order), *self._encode_tokens([chunk[k].tokens for k in order]))

    def _attention(self, entities_proj: np.ndarray, queries: np.ndarray, head: str):
        """Scores (E, R, 7) of E entity sets against their query rows
        (E, R, H), set e against its own R rows, and the activation ``act``
        (E, R, 7, A): score[e, r, i] = v_head . tanh(We x_ei + Wq h_er + b),
        with We x_ei in ``entities_proj`` (E, 7, A)."""
        p = self.store
        *rows, h = queries.shape
        # one GEMM over all E * R rows, so a lockstep row rounds as a row of a stack does
        q_proj = (queries.reshape(-1, h) @ p["attn.Wq"].T).reshape(*rows, 1, len(p["attn.Wq"]))
        act = tanh(entities_proj[:, None] + q_proj + p["attn.b"])
        return act @ p[f"attn.v_{head}"], act

    def _attention_backward(self, dscores, act, entities, queries, head: str):
        """Returns (d_entities (E, 7, De), d_queries (E, R, H)); accumulates
        parameter grads.  The pre-activation gradient, written over ``act``
        to save an (E, R, 7, A) temporary, reduces to a sum (E, 7, A) over
        each set's rows and a sum (E, R, A) over its entities; each meets
        its weight in one matmul over all rows."""
        p, g = self.store, self.store.grads
        v = p[f"attn.v_{head}"]
        a = act.shape[-1]
        g[f"attn.v_{head}"] += dscores.reshape(-1) @ act.reshape(-1, a)
        dact = np.multiply(act, act, out=act)
        np.subtract(1.0, dact, out=dact)
        dact *= dscores[..., None] * v
        d_pre_e = dact.sum(axis=1)
        d_pre_q = dact.sum(axis=2).reshape(-1, a)
        g["attn.We"] += d_pre_e.reshape(-1, a).T @ entities.reshape(-1, entities.shape[-1])
        g["attn.Wq"] += d_pre_q.T @ queries.reshape(-1, queries.shape[-1])
        g["attn.b"] += d_pre_q.sum(axis=0)
        return d_pre_e @ p["attn.We"], (d_pre_q @ p["attn.Wq"]).reshape(queries.shape)

    # --- the three heads ----------------------------------------------------

    def _head_forward(self, head: str, entities, entities_proj, queries):
        """One head over E entity sets (E, 7, De) with their ``attn.We``
        projection (E, 7, A) and query rows (E, R, H), set e read by its own
        R rows: entity scores (E, R, 7) for TSEL and REF, next-token logits
        (E, R, V) for DIAL.  Training and prediction pass one set (E = 1),
        lockstep decoding one row per game (R = 1).  Returns (out, cache),
        where the cache holds what ``_head_backward`` needs."""
        if head not in self.heads:
            raise ValueError(f"variant {self.config.variant} has no {head.upper()} head")
        scores, act = self._attention(entities_proj, queries, head)
        if head != "dial":
            return scores, (entities, queries, act)
        p = self.store
        alpha = softmax(scores, axis=-1)
        z = np.concatenate([queries, alpha @ entities], axis=-1)
        *rows, k = z.shape
        # likewise one GEMM per layer over all E * R rows
        logits, u1 = mlp(z.reshape(-1, k), p["dial.W1"], p["dial.b1"], p["dial.W2"], p["dial.b2"])
        return logits.reshape(*rows, -1), (entities, queries, act, alpha, z, u1.reshape(*rows, -1))

    def _head_backward(self, head: str, dout, cache, d_entities):
        """Backward of ``_head_forward``: accumulates parameter grads, adds
        the entity gradient into ``d_entities`` (E, 7, De) and returns the
        query gradient (E, R, H)."""
        entities, queries, act, *dial = cache
        dscores, d_queries = dout, 0.0
        if head == "dial":
            p, g = self.store, self.store.grads
            alpha, z, u1 = dial
            dz, *grads = mlp_backward(dout, z, u1, p["dial.W1"], p["dial.W2"])
            for name, grad in zip(("dial.W1", "dial.b1", "dial.W2", "dial.b2"), grads):
                g[name] += grad
            d_queries = dz[..., : self.config.hidden_dim]
            d_context = dz[..., self.config.hidden_dim:]
            d_entities += alpha.swapaxes(-1, -2) @ d_context
            dscores = softmax_backward(d_context @ entities.swapaxes(-1, -2), alpha, axis=-1)
        de, dq = self._attention_backward(dscores, act, entities, queries, head)
        d_entities += de
        return d_queries + dq

    # --- joint forward/backward over packed examples ------------------------

    def run_example(
        self,
        examples: StreamExample | Sequence[StreamExample],
        *,
        train: bool = False,
        rng: np.random.Generator | None = None,
        backward: bool = False,
    ):
        """The active-head losses of one example, or a list of each example's
        in the given order; with ``backward`` the gradients of their sum
        are accumulated into the store.

        Each packed chunk (``_packs``) runs one GRU pass forward and one
        backward; the heads run per example, in the given order, on its
        column of the chunk's states.  Each training dropout mask, (T_i,
        H), is drawn just before its example's heads, so the rng stream
        does not depend on the packing."""
        one = isinstance(examples, StreamExample)
        batch = [examples] if one else examples
        dropout = self.config.dropout if train else 0.0
        if dropout > 0.0 and rng is None:
            raise ValueError("training forward needs an rng for dropout")
        losses = []
        for chunk, columns, h_seq, cache in self._packs(batch):
            dh_seq = np.zeros_like(h_seq) if backward else None
            for ex, j in zip(chunk, columns):
                n = len(ex.tokens)
                mask = None
                if dropout > 0.0:
                    mask = dropout_mask(rng, (n, self.config.hidden_dim), dropout, dtype=self.store.dtype)
                ex_losses, dh = self._example_losses(ex, h_seq[:n, j], mask, backward)
                losses.append(ex_losses)
                if backward:
                    dh_seq[:n, j] = dh
            if backward:
                self._encode_tokens_backward(cache, dh_seq)
        return losses[0] if one else losses

    def _example_losses(self, ex: StreamExample, h: np.ndarray, mask, backward: bool):
        """One example's head losses over its dialogue states h (T, H), with
        the dropout ``mask`` or none; with ``backward`` the heads' and the
        entity encoder's gradients are accumulated and the gradient on h
        is returned beside the losses (else None)."""
        entities, entities_proj, enc_cache = self.encode_entities(ex.attrs, ex.rel)
        hd = h * mask if mask is not None else h
        losses: dict[str, float] = {}
        d_hd = np.zeros(hd.shape, dtype=hd.dtype) if backward else None
        d_entities = np.zeros_like(entities) if backward else None
        for head in self.heads:
            rows, targets = _head_rows(ex, head)
            if len(rows) == 0:  # a markable-free example has no REF query
                losses[head] = 0.0
                continue
            out, cache = self._head_forward(head, entities[None], entities_proj[None], _queries(hd, rows))
            loss_fn = bce_with_logits if head == "ref" else cross_entropy_rows
            losses[head], dout = loss_fn(out[0], targets)
            if backward:
                dq = self._head_backward(head, dout[None], cache, d_entities[None])[0]
                np.add.at(d_hd, rows.T, dq / rows.shape[1])

        total = sum(losses.values())
        losses["total"] = total
        if not np.isfinite(total):
            raise DivergenceError(
                f"non-finite loss on dialogue {ex.dialogue_id} ({ex.perspective}): {losses}"
            )
        if not backward:
            return losses, None
        self._encode_entities_backward(enc_cache, d_entities)
        return losses, d_hd * mask if mask is not None else d_hd

    # --- inference -----------------------------------------------------------

    def predict(self, examples: Sequence[StreamExample]) -> list[dict[str, np.ndarray]]:
        """Probabilities of the model's TSEL and REF heads for each example,
        in the given order: ``"tsel"`` (7,) over the view and ``"ref"`` (M,
        7) per markable.  One GRU pass and one entity encoding serve both
        heads; examples are packed as in ``run_example``."""
        return self._predict(examples, [head for head in ("tsel", "ref") if head in self.heads])

    def ref_probs_at(self, examples: Sequence[StreamExample]) -> list[np.ndarray]:
        """``predict``'s REF probabilities alone, one (M, 7) array per
        example; a variant with no REF head raises ValueError.  An example
        annotated from selfplay carries the states its player's decoder
        stepped to in play, and the REF head reads those; every other
        example (a corpus dialogue, a transcript read back from JSONL, a
        game against a scripted agent) gets its states from the packed GRU
        pass."""
        return [probs["ref"] for probs in self._predict(examples, ["ref"])]

    def _predict(self, examples: Sequence[StreamExample], heads: Sequence[str]) -> list[dict[str, np.ndarray]]:
        """The ``heads``' probabilities of each example over its own
        ``states``, or, for the examples that carry none, over one packed GRU
        pass per chunk of those examples (``_packs``)."""
        packed = (
            h_seq[: len(ex.tokens), j]
            for chunk, columns, h_seq, _ in self._packs([ex for ex in examples if ex.states is None])
            for ex, j in zip(chunk, columns)
        )
        out = []
        for ex in examples:
            h = next(packed) if ex.states is None else ex.states
            entities, entities_proj, _ = self.encode_entities(ex.attrs, ex.rel)
            probs = {}
            for head in heads:
                rows, _ = _head_rows(ex, head)
                scores, _ = self._head_forward(head, entities[None], entities_proj[None], _queries(h, rows))
                probs[head] = softmax(scores[0, 0]) if head == "tsel" else sigmoid(scores[0])
            out.append(probs)
        return out

    # --- incremental decoding (selfplay) --------------------------------------

    def input_table(self) -> np.ndarray:
        """The GRU input projection of every token for incremental decoding,
        ``(V, 3H)``, read only by ``step_queued``.  Row ``t`` is the matvec
        ``gru.W @ emb[t] + gru.b``; one GEMM would round differently in the
        last bits, and so could change the tokens that seeded selfplay
        samples.  Built on first use and again whenever ``store.version``
        has moved."""
        p = self.store
        if self._input_table_version != p.version:
            w, b = p["gru.W"], p["gru.b"]
            self._input_table = np.stack([w @ x + b for x in p["emb"]])
            self._input_table_version = p.version
        return self._input_table

    def start_state(self, attrs: np.ndarray, rel: np.ndarray) -> "DecoderState":
        """A decoder over the view features, in the store's dtype."""
        entities, entities_proj, _ = self.encode_entities(attrs, rel)
        h = np.zeros(self.config.hidden_dim, dtype=self.store.dtype)
        return DecoderState(model=self, entities=entities[None], entities_proj=entities_proj[None], h=h)

    def save(self, prefix) -> None:
        save_checkpoint(self, prefix, "refgame-model")

    @classmethod
    def load(cls, prefix) -> "GroundingModel":
        return load_checkpoint(cls, prefix, "refgame-model", ModelConfig)


def _head_rows(ex: StreamExample, head: str) -> tuple[np.ndarray, np.ndarray]:
    """A head's ``(Q, k)`` row index into the example's dialogue states and
    its Q targets.  Query q is the mean of the k states ``rows[q]``: TSEL
    reads the last state, REF each markable's (start, last, eou) states and
    DIAL the state before each predicted token."""
    if head == "tsel":
        return np.array([[len(ex.tokens) - 1]]), np.array([ex.tsel_target])
    if head == "ref":
        return ex.mark_positions, ex.ref_targets
    return ex.dial_positions[:, None] - 1, ex.tokens[ex.dial_positions]


def _queries(h: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The query rows (1, Q, H) of one entity set, each the mean of the
    states ``h[rows[q]]``."""
    return (h[rows].sum(axis=1) / rows.shape[1])[None]


class DecoderState:
    """Incremental GRU state over one agent's token stream.

    Each lockstep decode step takes a list of states of one model and
    works on their rows: ``step_queued`` feeds each its next queued token
    in one ``gru_cell`` call, and ``DecoderState.next_token_probs`` scores
    them in one DIAL head call over their entity sets, each (1, 7, .).  A
    lone state is a list of one.  ``feed`` queues a token; reading ``h``
    first feeds the state's own queue, one row per step.  A step replaces
    ``h`` and never writes into it, so forks share it until they step.  A
    state with a ``log`` list appends ``(token id, state after it)`` for
    every token it steps, each state a copy of its row, so the log holds
    no step's ``(n, H)`` array."""

    def __init__(self, model: GroundingModel, entities: np.ndarray, entities_proj: np.ndarray,
                 h: np.ndarray, queue: Iterable[int] = (), log: list | None = None):
        self.model = model
        self.entities = entities
        self.entities_proj = entities_proj
        self._h = h
        self.queue = deque(queue)
        self.log = log

    @property
    def h(self) -> np.ndarray:
        """The state after every token fed so far."""
        while self.queue:
            step_queued([self])
        return self._h

    def feed(self, token_id: int) -> None:
        self.queue.append(token_id)

    def fork(self) -> "DecoderState":
        """An independent copy to decode ahead from, queued tokens included;
        a logging state's fork logs the tokens it steps into a new list."""
        log = None if self.log is None else []
        return DecoderState(self.model, self.entities, self.entities_proj, self._h, self.queue, log)

    def next_token_probs(states: Sequence["DecoderState"]) -> np.ndarray:
        """The next-token distributions (n, V) of n states of one model,
        after the tokens fed to each so far, from one DIAL head call over n
        entity sets (n, 7, .), one row each.  Called on the class:
        ``DecoderState.next_token_probs(states)``."""
        logits, _ = states[0].model._head_forward(
            "dial",
            np.concatenate([s.entities for s in states]),
            np.concatenate([s.entities_proj for s in states]),
            np.stack([s.h for s in states])[:, None],
        )
        return softmax(logits[:, 0], axis=-1)

    def tsel_probs(self) -> np.ndarray:
        out, _ = self.model._head_forward("tsel", self.entities, self.entities_proj, self.h[None, None])
        return softmax(out[0, 0])


def step_queued(states: Sequence[DecoderState]) -> None:
    """Feed each of ``states``, all of one model and each with a queued
    token, the first of its queued tokens: one ``gru_cell`` call over their
    (n, H) rows, in the given order."""
    model = states[0].model
    tokens = [s.queue.popleft() for s in states]
    h = gru_cell(model.input_table()[tokens], model.store["gru.U"], np.stack([s._h for s in states]))
    for s, token, row in zip(states, tokens, h):
        s._h = row
        if s.log is not None:
            s.log.append((token, row.copy()))


# --- training loop -------------------------------------------------------------

@dataclass
class TrainResult:
    model: GroundingModel
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1


def _mean_losses(model: GroundingModel, examples: Sequence[StreamExample]) -> dict[str, float]:
    sums: dict[str, float] = {}
    for losses in model.run_example(examples):
        for k, v in losses.items():
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

    def step(batch: list[StreamExample], rng: np.random.Generator) -> list[float]:
        return [losses["total"] for losses in model.run_example(batch, train=True, rng=rng, backward=True)]

    def validate() -> tuple[float, dict]:
        valid = _mean_losses(model, valid_ex)
        total = valid.pop("total")
        return total, {"valid_loss": total, **{f"valid_{k}": v for k, v in valid.items()}}

    history, best_epoch = fit(
        model.store, train_ex, step, validate, config, "train_loss", log_path=log_path, quiet=quiet
    )
    return TrainResult(model=model, history=history, best_epoch=best_epoch)
