"""Canonical data model, ingestion, validation and automatic referent
propagation for dialogues, markables and referent judgements.

The corpus is immutable after load; every invariant is checked when a corpus
is built.  File layout (all UTF-8 JSON): scenarios.json, dialogues.json,
markables.json, judgements.json.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import IntegrityError, SchemaError
from .io import atomic_write_json, read_json
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
    id: str
    scenario_id: str
    events: tuple[Event, ...]
    outcome: bool

    @property
    def messages(self) -> tuple[Message, ...]:
        return tuple(e for e in self.events if isinstance(e, Message))

    @property
    def selections(self) -> dict[str, int]:
        return {e.speaker: e.entity_id for e in self.events if isinstance(e, Selection)}


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
        scenarios: Iterable[Scenario],
        dialogues: Iterable[Dialogue],
        markables: Iterable[Markable],
        judgements: Iterable[ReferentJudgement],
    ) -> "AnnotatedCorpus":
        sc = {s.id: s for s in scenarios}
        dl = {d.id: d for d in dialogues}
        mk = {m.id: m for m in markables}
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
    _check_link_cycles(corpus)

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


def _check_link_cycles(corpus: AnnotatedCorpus) -> None:
    color: dict[str, int] = {}

    def visit(mid: str, stack: list[str]) -> None:
        state = color.get(mid, 0)
        if state == 1:
            raise IntegrityError(f"cyclic markable links: {' -> '.join(stack + [mid])}")
        if state == 2:
            return
        color[mid] = 1
        m = corpus.markables[mid]
        nxt = m.anaphora_of or m.cataphora_of
        if nxt is not None:
            visit(nxt, stack + [mid])
        color[mid] = 2

    for mid in corpus.markables:
        visit(mid, [])


# --- automatic referent propagation ------------------------------------------

@dataclass(frozen=True)
class GoldEntry:
    """Aggregated referents of one markable; dropped markables (majority
    judged unidentifiable) carry no referent set."""

    referents: frozenset[int]
    dropped: bool = False


def propagate_auto_referents(
    corpus: AnnotatedCorpus,
    manual_gold: Mapping[str, GoldEntry] | None = None,
) -> dict[str, GoldEntry]:
    """Referent assignments for flagged and linked markables.

    no-referent -> empty set; all-referents -> the speaker's 7 visible
    entities; anaphora/cataphora -> a copy of the (transitively) resolved
    target, which may be another auto markable or a manual one whose entry
    must be supplied via ``manual_gold``.  Generic markables get nothing.
    Idempotent: feeding the output back in changes nothing.
    """
    manual_gold = dict(manual_gold or {})
    resolved: dict[str, GoldEntry] = {}

    def resolve(mid: str, chain: tuple[str, ...]) -> GoldEntry:
        if mid in resolved:
            return resolved[mid]
        if mid in chain:
            raise IntegrityError(f"cyclic markable links: {' -> '.join(chain + (mid,))}")
        m = corpus.markables[mid]
        if m.no_referent:
            entry = GoldEntry(frozenset())
        elif m.all_referents:
            entry = GoldEntry(corpus.visible_to_speaker(m))
        elif m.is_linked:
            target = m.anaphora_of or m.cataphora_of
            tm = corpus.markables[target]
            if tm.generic:
                raise IntegrityError(f"markable {mid}: link to generic markable {target}")
            if tm.is_manual:
                if target not in manual_gold:
                    raise IntegrityError(
                        f"markable {mid}: link target {target} is manually judged but no "
                        f"aggregated referents were supplied"
                    )
                entry = manual_gold[target]
            else:
                entry = resolve(target, chain + (mid,))
        else:
            raise ValueError(f"markable {mid} is not auto-annotated")
        resolved[mid] = entry
        return entry

    out: dict[str, GoldEntry] = {}
    for mid, m in corpus.markables.items():
        if m.generic or m.is_manual:
            continue
        out[mid] = resolve(mid, ())
    return out


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
    seed: int

    def to_dict(self) -> dict:
        return {"train": list(self.train), "valid": list(self.valid), "test": list(self.test), "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "Split":
        return cls(tuple(d["train"]), tuple(d["valid"]), tuple(d["test"]), int(d.get("seed", 0)))


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
        return Message(speaker=str(d["speaker"]), tokens=tuple(str(t) for t in d["tokens"]))
    if kind == "selection":
        return Selection(speaker=str(d["speaker"]), entity_id=int(d["entity_id"]))
    raise SchemaError(f"unknown event type {kind!r}")


def dialogue_to_dict(d: Dialogue) -> dict:
    return {
        "id": d.id,
        "scenario_id": d.scenario_id,
        "events": [_event_to_dict(e) for e in d.events],
        "outcome": d.outcome,
    }


def dialogue_from_dict(d: dict) -> Dialogue:
    try:
        return Dialogue(
            id=str(d["id"]),
            scenario_id=str(d["scenario_id"]),
            events=tuple(_event_from_dict(e) for e in d["events"]),
            outcome=bool(d["outcome"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed dialogue record: {exc}") from exc


def markable_to_dict(m: Markable) -> dict:
    return {
        "id": m.id,
        "dialogue_id": m.dialogue_id,
        "utterance_index": m.utterance_index,
        "start_token": m.start_token,
        "end_token": m.end_token,
        "speaker": m.speaker,
        "generic": m.generic,
        "all_referents": m.all_referents,
        "no_referent": m.no_referent,
        "anaphora_of": m.anaphora_of,
        "cataphora_of": m.cataphora_of,
    }


def markable_from_dict(d: dict) -> Markable:
    try:
        return Markable(
            id=str(d["id"]),
            dialogue_id=str(d["dialogue_id"]),
            utterance_index=int(d["utterance_index"]),
            start_token=int(d["start_token"]),
            end_token=int(d["end_token"]),
            speaker=str(d["speaker"]),
            generic=bool(d.get("generic", False)),
            all_referents=bool(d.get("all_referents", False)),
            no_referent=bool(d.get("no_referent", False)),
            anaphora_of=d.get("anaphora_of"),
            cataphora_of=d.get("cataphora_of"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed markable record: {exc}") from exc


def judgement_to_dict(j: ReferentJudgement) -> dict:
    return {
        "markable_id": j.markable_id,
        "annotator_id": j.annotator_id,
        "referents": sorted(j.referents),
        "ambiguous": j.ambiguous,
        "unidentifiable": j.unidentifiable,
    }


def judgement_from_dict(d: dict) -> ReferentJudgement:
    try:
        return ReferentJudgement(
            markable_id=str(d["markable_id"]),
            annotator_id=str(d["annotator_id"]),
            referents=frozenset(int(i) for i in d["referents"]),
            ambiguous=bool(d.get("ambiguous", False)),
            unidentifiable=bool(d.get("unidentifiable", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed judgement record: {exc}") from exc


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
    dialogues = [dialogue_from_dict(d) for d in _read_list(path / "dialogues.json")]
    markables = [markable_from_dict(m) for m in _read_list(path / "markables.json")]
    judgements = [judgement_from_dict(j) for j in _read_list(path / "judgements.json")]
    return AnnotatedCorpus.build(scenarios, dialogues, markables, judgements)


def _read_list(path) -> list:
    data = read_json(path)
    if not isinstance(data, list):
        raise SchemaError(f"{path} must hold a JSON list")
    return data
