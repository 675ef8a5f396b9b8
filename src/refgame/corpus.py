"""Canonical data model, ingestion, validation and automatic referent
propagation for dialogues, markables and referent judgements.

The corpus is immutable after load; every invariant is checked when a corpus
is built.  File layout (all UTF-8 JSON): scenarios.json, dialogues.json,
markables.json, judgements.json.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Collection, Iterable, Mapping

import numpy as np

from .errors import IntegrityError, SchemaError
from .io import atomic_write_json, from_record, read_list, read_records
from .scenario import AGENTS, Scenario, load_scenarios, save_scenarios


@dataclass(frozen=True)
class Message:
    speaker: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class Selection:
    speaker: str
    entity_id: int


Event = Message | Selection


@dataclass(frozen=True)
class Dialogue:
    """A dialogue's events in order.  ``messages`` and ``selections`` are
    built from them on first use and kept; equality, hashing and pickling
    see only the fields."""

    id: str
    scenario_id: str
    events: tuple[Event, ...]
    outcome: bool

    @cached_property
    def messages(self) -> tuple[Message, ...]:
        return tuple(e for e in self.events if isinstance(e, Message))

    @cached_property
    def selections(self) -> dict[str, int]:
        return {e.speaker: e.entity_id for e in self.events if isinstance(e, Selection)}

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in _DIALOGUE_CACHE}


_DIALOGUE_CACHE = frozenset(("messages", "selections"))


@dataclass(frozen=True)
class Markable:
    """A referring-expression span: token interval [start_token, end_token)
    of one utterance (= message), plus optional flags and same-utterance
    anaphora/cataphora links."""

    id: str
    dialogue_id: str
    utterance_index: int
    start_token: int
    end_token: int
    speaker: str
    generic: bool = False
    all_referents: bool = False
    no_referent: bool = False
    anaphora_of: str | None = None
    cataphora_of: str | None = None

    @property
    def is_linked(self) -> bool:
        return self.anaphora_of is not None or self.cataphora_of is not None

    @property
    def is_manual(self) -> bool:
        """Markables whose referents come from human judgements."""
        return not (self.generic or self.all_referents or self.no_referent or self.is_linked)


@dataclass(frozen=True)
class ReferentJudgement:
    markable_id: str
    annotator_id: str
    referents: frozenset[int]
    ambiguous: bool = False
    unidentifiable: bool = False


@dataclass
class AnnotatedCorpus:
    scenarios: dict[str, Scenario]
    dialogues: dict[str, Dialogue]
    markables: dict[str, Markable]
    judgements: dict[str, tuple[ReferentJudgement, ...]]  # keyed by markable id
    vocabulary: Counter = field(default_factory=Counter)
    markables_by_dialogue: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        scenarios: Collection[Scenario],
        dialogues: Collection[Dialogue],
        markables: Collection[Markable],
        judgements: Iterable[ReferentJudgement],
    ) -> "AnnotatedCorpus":
        """Key the records by id and validate the corpus; two scenarios,
        dialogues or markables with one id raise IntegrityError."""
        sc = _by_id("scenario", scenarios)
        dl = _by_id("dialogue", dialogues)
        mk = _by_id("markable", markables)
        jd: dict[str, list[ReferentJudgement]] = {}
        for j in judgements:
            jd.setdefault(j.markable_id, []).append(j)
        by_dialogue: dict[str, list[str]] = {}
        for m in mk.values():
            by_dialogue.setdefault(m.dialogue_id, []).append(m.id)
        for ids in by_dialogue.values():
            ids.sort(key=lambda mid: (mk[mid].utterance_index, mk[mid].start_token))
        vocab: Counter = Counter()
        for d in dl.values():
            for msg in d.messages:
                vocab.update(msg.tokens)
        corpus = cls(
            scenarios=sc,
            dialogues=dl,
            markables=mk,
            judgements={k: tuple(v) for k, v in jd.items()},
            vocabulary=vocab,
            markables_by_dialogue={k: tuple(v) for k, v in by_dialogue.items()},
        )
        validate_corpus(corpus)
        return corpus

    def speaker_view(self, markable: Markable):
        scenario = self.scenarios[self.dialogues[markable.dialogue_id].scenario_id]
        return scenario.view(markable.speaker)

    def visible_to_speaker(self, markable: Markable) -> frozenset[int]:
        return frozenset(self.speaker_view(markable).visible)

    def utterance_tokens(self, markable: Markable) -> tuple[str, ...]:
        return self.dialogues[markable.dialogue_id].messages[markable.utterance_index].tokens

    def markable_tokens(self, markable: Markable) -> tuple[str, ...]:
        return self.utterance_tokens(markable)[markable.start_token:markable.end_token]


def _by_id(kind: str, records: Collection) -> dict:
    by_id = {r.id: r for r in records}
    if len(by_id) != len(records):
        counts = Counter(r.id for r in records)
        raise IntegrityError(f"duplicate {kind} id {next(k for k, n in counts.items() if n > 1)}")
    return by_id


# --- validation -------------------------------------------------------------

def validate_corpus(corpus: AnnotatedCorpus) -> None:
    """Check every structural invariant; raise IntegrityError naming the
    offending record on the first violation."""
    for d in corpus.dialogues.values():
        if d.scenario_id not in corpus.scenarios:
            raise IntegrityError(f"dialogue {d.id}: unknown scenario {d.scenario_id}")
        scenario = corpus.scenarios[d.scenario_id]
        selections = [e for e in d.events if isinstance(e, Selection)]
        per_speaker = Counter(s.speaker for s in selections)
        for agent in AGENTS:
            if per_speaker.get(agent, 0) != 1:
                raise IntegrityError(f"dialogue {d.id}: expected exactly one selection by {agent}")
        picks = {}
        for s in selections:
            if s.speaker not in AGENTS:
                raise IntegrityError(f"dialogue {d.id}: unknown speaker {s.speaker!r}")
            if s.entity_id not in scenario.view(s.speaker).visible:
                raise IntegrityError(
                    f"dialogue {d.id}: {s.speaker} selected entity {s.entity_id} outside their view"
                )
            picks[s.speaker] = s.entity_id
        if d.outcome != (picks["A"] == picks["B"]):
            raise IntegrityError(f"dialogue {d.id}: outcome flag inconsistent with selections")
        for e in d.events:
            if isinstance(e, Message) and e.speaker not in AGENTS:
                raise IntegrityError(f"dialogue {d.id}: unknown speaker {e.speaker!r}")

    spans: dict[tuple[str, int], list[tuple[int, int, str]]] = {}
    for m in corpus.markables.values():
        if m.dialogue_id not in corpus.dialogues:
            raise IntegrityError(f"markable {m.id}: unknown dialogue {m.dialogue_id}")
        d = corpus.dialogues[m.dialogue_id]
        messages = d.messages
        if not 0 <= m.utterance_index < len(messages):
            raise IntegrityError(f"markable {m.id}: utterance index {m.utterance_index} out of range")
        msg = messages[m.utterance_index]
        if m.speaker != msg.speaker:
            raise IntegrityError(f"markable {m.id}: speaker {m.speaker} != utterance speaker {msg.speaker}")
        if not 0 <= m.start_token < m.end_token <= len(msg.tokens):
            raise IntegrityError(
                f"markable {m.id}: bad span ({m.start_token}, {m.end_token}) for a "
                f"{len(msg.tokens)}-token utterance"
            )
        if sum([m.generic, m.all_referents, m.no_referent]) > 1:
            raise IntegrityError(f"markable {m.id}: more than one flag set")
        if m.anaphora_of is not None and m.cataphora_of is not None:
            raise IntegrityError(f"markable {m.id}: both anaphora and cataphora links set")
        spans.setdefault((m.dialogue_id, m.utterance_index), []).append(
            (m.start_token, m.end_token, m.id)
        )

    for (_, _), lst in spans.items():
        lst.sort()
        for (s1, e1, id1), (s2, e2, id2) in zip(lst, lst[1:]):
            if s2 < e1:
                raise IntegrityError(f"markables {id1} and {id2} overlap or nest")

    for m in corpus.markables.values():
        for link, earlier in ((m.anaphora_of, True), (m.cataphora_of, False)):
            if link is None:
                continue
            if link not in corpus.markables:
                raise IntegrityError(f"markable {m.id}: link to unknown markable {link}")
            target = corpus.markables[link]
            if (target.dialogue_id, target.utterance_index) != (m.dialogue_id, m.utterance_index):
                raise IntegrityError(f"markable {m.id}: link to {link} crosses utterances")
            if target.generic:
                raise IntegrityError(f"markable {m.id}: link to generic markable {link}")
            if earlier and target.start_token >= m.start_token:
                raise IntegrityError(f"markable {m.id}: anaphora link must point backwards")
            if not earlier and target.start_token <= m.start_token:
                raise IntegrityError(f"markable {m.id}: cataphora link must point forwards")
    # each markable has at most one link, so a walk along it finds any cycle
    for mid in corpus.markables:
        chain = [mid]
        while (m := corpus.markables[chain[-1]]).is_linked:
            chain.append(m.anaphora_of or m.cataphora_of)
            if chain[-1] in chain[:-1]:
                raise IntegrityError(f"cyclic markable links: {' -> '.join(chain)}")

    for mid, js in corpus.judgements.items():
        if mid not in corpus.markables:
            raise IntegrityError(f"judgement on unknown markable {mid}")
        m = corpus.markables[mid]
        if not m.is_manual:
            raise IntegrityError(f"judgement on non-manual markable {mid}")
        visible = corpus.visible_to_speaker(m)
        seen = set()
        for j in js:
            if j.annotator_id in seen:
                raise IntegrityError(f"markable {mid}: duplicate judgement by {j.annotator_id}")
            seen.add(j.annotator_id)
            if not j.referents <= visible:
                raise IntegrityError(
                    f"markable {mid}: judgement by {j.annotator_id} names referents "
                    f"outside the speaker's view"
                )


# --- automatic referent propagation ------------------------------------------

@dataclass(frozen=True)
class GoldEntry:
    """Aggregated referents of one markable; dropped markables (majority
    judged unidentifiable) carry no referent set."""

    referents: frozenset[int]
    dropped: bool = False


def propagate_auto_referents(
    corpus: AnnotatedCorpus, manual_gold: Mapping[str, GoldEntry]
) -> dict[str, GoldEntry]:
    """Referent assignments for flagged and linked markables.

    no-referent -> empty set; all-referents -> the speaker's 7 visible
    entities; anaphora/cataphora -> a copy of the (transitively) resolved
    target, which may be another auto markable or a manual one whose entry
    must be supplied via ``manual_gold``.  Generic markables get nothing.
    Idempotent: feeding the output back in changes nothing.  Validation has
    already checked the links: they form no cycle and reach no generic
    markable, so every chain ends at a flagged or a manual markable.
    """

    def resolve(m: Markable) -> GoldEntry:
        while m.is_linked and not (m.no_referent or m.all_referents):
            target = m.anaphora_of or m.cataphora_of
            if target not in manual_gold and corpus.markables[target].is_manual:
                raise IntegrityError(
                    f"markable {m.id}: link target {target} is manually judged but no "
                    f"aggregated referents were supplied"
                )
            m = corpus.markables[target]
        if m.no_referent:
            return GoldEntry(frozenset())
        if m.all_referents:
            return GoldEntry(corpus.visible_to_speaker(m))
        return manual_gold[m.id]

    return {mid: resolve(m) for mid, m in corpus.markables.items() if not (m.generic or m.is_manual)}


# --- statistics ---------------------------------------------------------------

@dataclass(frozen=True)
class CorpusStats:
    n_scenarios: int
    n_dialogues: int
    n_markables: int            # non-generic referring expressions
    n_generic: int
    n_all_referents: int
    n_no_referent: int
    n_anaphora: int
    n_cataphora: int
    n_manual: int
    n_judgements: int
    pct_ambiguous: float
    pct_unidentifiable: float
    vocab_size: int
    n_tokens: int

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def table(self) -> str:
        rows = [
            ("scenarios", self.n_scenarios),
            ("dialogues", self.n_dialogues),
            ("markables", self.n_markables),
            ("  all-referents", self.n_all_referents),
            ("  no-referent", self.n_no_referent),
            ("  anaphora", self.n_anaphora),
            ("  cataphora", self.n_cataphora),
            ("  manually judged", self.n_manual),
            ("generic (excluded)", self.n_generic),
            ("judgements", self.n_judgements),
            ("% ambiguous", f"{self.pct_ambiguous:.2f}"),
            ("% unidentifiable", f"{self.pct_unidentifiable:.2f}"),
            ("vocabulary", self.vocab_size),
            ("tokens", self.n_tokens),
        ]
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def corpus_stats(corpus: AnnotatedCorpus) -> CorpusStats:
    mk = [m for m in corpus.markables.values() if not m.generic]
    n_generic = len(corpus.markables) - len(mk)
    n_all = sum(m.all_referents for m in mk)
    n_none = sum(m.no_referent for m in mk)
    n_ana = sum(m.anaphora_of is not None for m in mk)
    n_cata = sum(m.cataphora_of is not None for m in mk)
    n_manual = sum(m.is_manual for m in mk)
    all_j = [j for js in corpus.judgements.values() for j in js]
    n_j = len(all_j)
    return CorpusStats(
        n_scenarios=len(corpus.scenarios),
        n_dialogues=len(corpus.dialogues),
        n_markables=len(mk),
        n_generic=n_generic,
        n_all_referents=n_all,
        n_no_referent=n_none,
        n_anaphora=n_ana,
        n_cataphora=n_cata,
        n_manual=n_manual,
        n_judgements=n_j,
        pct_ambiguous=100.0 * sum(j.ambiguous for j in all_j) / n_j if n_j else 0.0,
        pct_unidentifiable=100.0 * sum(j.unidentifiable for j in all_j) / n_j if n_j else 0.0,
        vocab_size=len(corpus.vocabulary),
        n_tokens=sum(corpus.vocabulary.values()),
    )


# --- dataset splits -------------------------------------------------------------

@dataclass(frozen=True)
class Split:
    train: tuple[str, ...]
    valid: tuple[str, ...]
    test: tuple[str, ...]
    seed: int = 0

    def to_dict(self) -> dict:
        return {"train": list(self.train), "valid": list(self.valid), "test": list(self.test), "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "Split":
        return from_record(cls, d, **{k: tuple(read_list(d, k, str)) for k in ("train", "valid", "test")})


def split_dataset(corpus: AnnotatedCorpus, seed: int) -> Split:
    """Deterministic dialogue-level 8:1:1 partition: floor(N/10) dialogues
    each for valid and test, remainder to train."""
    ids = sorted(corpus.dialogues)
    n = len(ids)
    if n < 10:
        raise ValueError(f"need at least 10 dialogues to split, got {n}")
    rng = np.random.default_rng(seed)
    perm = [ids[i] for i in rng.permutation(n)]
    tenth = n // 10
    train = tuple(perm[: n - 2 * tenth])
    valid = tuple(perm[n - 2 * tenth: n - tenth])
    test = tuple(perm[n - tenth:])
    return Split(train=train, valid=valid, test=test, seed=seed)


# --- canonical JSON io ------------------------------------------------------------

def _event_to_dict(e: Event) -> dict:
    if isinstance(e, Message):
        return {"type": "message", "speaker": e.speaker, "tokens": list(e.tokens)}
    return {"type": "selection", "speaker": e.speaker, "entity_id": e.entity_id}


def _event_from_dict(d: dict) -> Event:
    kind = d.get("type")
    if kind == "message":
        return from_record(Message, d, tokens=tuple(read_list(d, "tokens", str)))
    if kind == "selection":
        return from_record(Selection, d)
    raise SchemaError(f"unknown event type {kind!r}")


def dialogue_to_dict(d: Dialogue) -> dict:
    return {
        "id": d.id,
        "scenario_id": d.scenario_id,
        "events": [_event_to_dict(e) for e in d.events],
        "outcome": d.outcome,
    }


def dialogue_from_dict(d: dict) -> Dialogue:
    return from_record(
        Dialogue, d, events=tuple(_event_from_dict(e) for e in read_list(d, "events", dict))
    )


def markable_to_dict(m: Markable) -> dict:
    return dict(vars(m))


def markable_from_dict(d: dict) -> Markable:
    return from_record(Markable, d)


def judgement_to_dict(j: ReferentJudgement) -> dict:
    return {**vars(j), "referents": sorted(j.referents)}


def judgement_from_dict(d: dict) -> ReferentJudgement:
    return from_record(ReferentJudgement, d, referents=frozenset(read_list(d, "referents", int)))


def save_gold(gold: Mapping[str, GoldEntry], path) -> None:
    """Write aggregated gold as {markable id: {"referents", "dropped"}}."""
    atomic_write_json(
        path, {mid: {**vars(e), "referents": sorted(e.referents)} for mid, e in sorted(gold.items())}
    )


FILES = ("scenarios.json", "dialogues.json", "markables.json", "judgements.json")


def save_corpus(corpus: AnnotatedCorpus, path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    save_scenarios(list(corpus.scenarios.values()), path / "scenarios.json")
    atomic_write_json(path / "dialogues.json", [dialogue_to_dict(d) for d in corpus.dialogues.values()])
    atomic_write_json(path / "markables.json", [markable_to_dict(m) for m in corpus.markables.values()])
    atomic_write_json(
        path / "judgements.json",
        [judgement_to_dict(j) for js in corpus.judgements.values() for j in js],
    )


def load_corpus(path) -> AnnotatedCorpus:
    path = Path(path)
    for name in FILES:
        if not (path / name).exists():
            raise SchemaError(f"missing corpus file {name} under {path}")
    scenarios = load_scenarios(path / "scenarios.json")
    dialogues = read_records(path / "dialogues.json", dialogue_from_dict)
    markables = read_records(path / "markables.json", markable_from_dict)
    judgements = read_records(path / "judgements.json", judgement_from_dict)
    return AnnotatedCorpus.build(scenarios, dialogues, markables, judgements)
