"""Import adapter: maps an externally released annotation bundle into the
canonical corpus schema.

The canonical schema is defined by this package (corpus.py / scenario.py).
Released data was not available while this adapter was written, so it
targets the documented *bundle* layout below.  Every value is read through
the strict readers of ``io``: a missing key, a value of the wrong JSON type
(a bool is never a number, an index or an agent), an unknown id or an
offset outside its utterance raises SchemaError naming the file and
record.  All unit conversions happen here: entity coordinates are affinely
rescaled into the world box, sizes into the default scenario size range
(the range the models' features assume), colors accept numbers in
[0, 256) or grayscale hex strings.

Expected bundle layout (directory):
  scenarios.json   list of {"uuid", "kbs": [[entity...], [entity...]]}
                   entity = {"id": string or int, "x", "y", "size", "color"}
  transcripts.json list of {"uuid", "scenario_uuid", "events": [event...]}
                   event = {"action": "message", "agent": 0|1, "data": text}
                         | {"action": "select",  "agent": 0|1, "data": entity id}
  markables.json   list of {"markable_id", "dialogue_uuid", "utterance",
                   "start_token", "end_token", "speaker": 0|1,
                   "generic"/"all_referents"/"no_referent": bool,
                   "anaphora_of"/"cataphora_of": markable id}
                   (char-offset spans: use "start_char"/"end_char" instead,
                   offsets into the utterance text)
  judgements.json  list of {"markable_id", "annotator", "referents": [ids],
                   "ambiguous", "unidentifiable"}
"""

from __future__ import annotations

import re
from pathlib import Path

from .corpus import (
    AnnotatedCorpus,
    Dialogue,
    Markable,
    Message,
    ReferentJudgement,
    Selection,
)
from .errors import SchemaError
from .io import from_record, read_list, read_records, read_value
from .scenario import COLOR_RANGE, DEFAULT_CONFIG, VIEW_SIZE, Entity, Scenario, View

AGENT_NAMES = {0: "A", 1: "B", "0": "A", "1": "B", "A": "A", "B": "B"}

# a release's own entity ids
RawId = int | str


def _parse_color(value) -> float:
    if type(value) is not str:
        c = float(value)
    elif re.fullmatch("#[0-9a-fA-F]{6}", value):
        r, g, b = (int(value[i: i + 2], 16) for i in (1, 3, 5))
        c = (r + g + b) / 3.0
    else:
        raise SchemaError(f"cannot parse color {value!r}")
    if not 0.0 <= c < COLOR_RANGE + 1:
        raise SchemaError(f"color {c} outside [0, {COLOR_RANGE})")
    return min(c, COLOR_RANGE - 1e-9)


def _agent(record, key: str) -> str:
    value = read_value(record, key, RawId)
    if value not in AGENT_NAMES:
        raise SchemaError(f"{key!r} must name agent 0/1 or A/B, got {value!r}")
    return AGENT_NAMES[value]


def _dense_id(id_map: dict, raw: RawId) -> int:
    if raw not in id_map:
        raise SchemaError(f"unknown entity {raw!r}")
    return id_map[raw]


class _Affine:
    def __init__(self, src_lo: float, src_hi: float, dst_lo: float, dst_hi: float):
        if src_hi <= src_lo:
            src_hi = src_lo + 1.0
        self.a = (dst_hi - dst_lo) / (src_hi - src_lo)
        self.b = dst_lo - src_lo * self.a

    def __call__(self, v: float) -> float:
        return self.a * v + self.b


def import_scenario(record: dict) -> tuple[Scenario, dict]:
    """Returns (scenario, original-entity-id -> dense-id map)."""
    uuid = read_value(record, "uuid", str)
    kbs = read_list(record, "kbs", list)
    if len(kbs) != 2:
        raise SchemaError(f"scenario {uuid}: expected 2 agent contexts, got {len(kbs)}")

    raw: dict[RawId, tuple[float, float, float, float]] = {}
    membership: dict[RawId, list[int]] = {}
    for agent_idx, kb in enumerate(kbs):
        keys = [read_value(e, "id", RawId) for e in kb]
        if len(keys) != VIEW_SIZE or len(set(keys)) != VIEW_SIZE:
            raise SchemaError(f"scenario {uuid}: agent {agent_idx} context must list {VIEW_SIZE} distinct entities")
        for key, e in zip(keys, kb):
            attrs = (
                read_value(e, "x", float),
                read_value(e, "y", float),
                read_value(e, "size", float),
                _parse_color(read_value(e, "color", float | str)),
            )
            if raw.setdefault(key, attrs) != attrs:
                raise SchemaError(f"scenario {uuid}: entity {key} has conflicting attributes")
            membership.setdefault(key, []).append(agent_idx)

    xs, ys, sizes, _ = zip(*raw.values())
    fx = _Affine(min(xs), max(xs), -0.9, 0.9)
    fy = _Affine(min(ys), max(ys), -0.9, 0.9)
    fs = _Affine(min(sizes), max(sizes), DEFAULT_CONFIG.size_min, DEFAULT_CONFIG.size_max)

    id_map = {key: i for i, key in enumerate(sorted(raw, key=str))}
    entities = tuple(
        Entity(id=id_map[key], x=fx(x), y=fy(y), size=fs(size), color=color)
        for key, (x, y, size, color) in sorted(raw.items(), key=lambda kv: str(kv[0]))
    )
    by_id = {e.id: e for e in entities}

    views = []
    for agent_idx, agent in enumerate("AB"):
        members = sorted(
            (id_map[key] for key, agents in membership.items() if agent_idx in agents)
        )
        pts = [by_id[i] for i in members]
        cx = (min(p.x for p in pts) + max(p.x for p in pts)) / 2.0
        cy = (min(p.y for p in pts) + max(p.y for p in pts)) / 2.0
        radius = max(((p.x - cx) ** 2 + (p.y - cy) ** 2) ** 0.5 + p.size for p in pts) * 1.05
        ordered = tuple(p.id for p in sorted(pts, key=lambda p: (p.y, p.x)))
        views.append(View(agent=agent, center=(cx, cy), radius=radius, visible=ordered))

    num_shared = len(set(views[0].visible) & set(views[1].visible))
    scenario = Scenario(
        id=uuid, entities=entities, view_a=views[0], view_b=views[1], num_shared=num_shared
    )
    return scenario, id_map


def import_dialogue(record: dict, id_maps: dict[str, dict]) -> Dialogue:
    uuid = read_value(record, "uuid", str)
    sid = read_value(record, "scenario_uuid", str)
    if sid not in id_maps:
        raise SchemaError(f"transcript {uuid}: unknown scenario {sid}")
    events = []
    picks = {}
    for ev in read_list(record, "events", dict):
        agent = _agent(ev, "agent")
        action = read_value(ev, "action", str)
        if action == "message":
            events.append(Message(speaker=agent, tokens=tuple(read_value(ev, "data", str).split())))
        elif action == "select":
            entity = _dense_id(id_maps[sid], read_value(ev, "data", RawId))
            picks[agent] = entity
            events.append(Selection(speaker=agent, entity_id=entity))
        else:
            raise SchemaError(f"dialogue {uuid}: unknown action {action!r}")
    if set(picks) != {"A", "B"}:
        raise SchemaError(f"dialogue {uuid}: needs exactly one selection per agent")
    return Dialogue(id=uuid, scenario_id=sid, events=tuple(events), outcome=picks["A"] == picks["B"])


def _char_span_to_tokens(tokens: tuple[str, ...], start_char: int, end_char: int) -> tuple[int, int]:
    """Convert char offsets over the space-joined utterance to token indices;
    offsets must align with token boundaries."""
    bounds = []
    pos = 0
    for t in tokens:
        bounds.append((pos, pos + len(t)))
        pos += len(t) + 1
    starts = {b[0]: i for i, b in enumerate(bounds)}
    ends = {b[1]: i + 1 for i, b in enumerate(bounds)}
    if start_char not in starts or end_char not in ends:
        raise SchemaError(
            f"char span ({start_char}, {end_char}) does not align to token boundaries"
        )
    return starts[start_char], ends[end_char]


def import_markable(record: dict, dialogues: dict[str, Dialogue]) -> Markable:
    mid = read_value(record, "markable_id", str)
    did = read_value(record, "dialogue_uuid", str)
    utt = read_value(record, "utterance", int)
    if did not in dialogues:
        raise SchemaError(f"markable {mid}: unknown dialogue {did}")
    messages = dialogues[did].messages
    if not 0 <= utt < len(messages):
        raise SchemaError(f"markable {mid}: no utterance {utt} in dialogue {did}")
    tokens = messages[utt].tokens
    if "start_token" in record:
        start, end = read_value(record, "start_token", int), read_value(record, "end_token", int)
    else:
        start, end = _char_span_to_tokens(
            tokens, read_value(record, "start_char", int), read_value(record, "end_char", int)
        )
    if not 0 <= start < end <= len(tokens):
        raise SchemaError(f"markable {mid}: span ({start}, {end}) outside its {len(tokens)} tokens")
    # the flags and links share the canonical names, so the strict reader takes them
    return from_record(
        Markable, record, id=mid, dialogue_id=did, utterance_index=utt,
        start_token=start, end_token=end, speaker=_agent(record, "speaker"),
    )


def import_judgement(record: dict, id_maps: dict[str, dict]) -> ReferentJudgement:
    """``id_maps`` maps each markable id to its scenario's entity id map."""
    mid = read_value(record, "markable_id", str)
    if mid not in id_maps:
        raise SchemaError(f"judgement on unknown markable {mid}")
    return from_record(
        ReferentJudgement, record,
        markable_id=mid,
        annotator_id=read_value(record, "annotator", str),
        referents=frozenset(_dense_id(id_maps[mid], r) for r in read_list(record, "referents", RawId)),
    )


def import_bundle(src) -> AnnotatedCorpus:
    """Read a release bundle directory and build a validated corpus."""
    src = Path(src)
    scenarios = read_records(src / "scenarios.json", import_scenario)
    id_maps = {scenario.id: id_map for scenario, id_map in scenarios}
    transcripts = read_records(src / "transcripts.json", lambda r: import_dialogue(r, id_maps))
    dialogues = {d.id: d for d in transcripts}
    markables = read_records(src / "markables.json", lambda r: import_markable(r, dialogues))
    markable_id_maps = {m.id: id_maps[dialogues[m.dialogue_id].scenario_id] for m in markables}
    judgements = read_records(
        src / "judgements.json", lambda r: import_judgement(r, markable_id_maps)
    )
    return AnnotatedCorpus.build([s for s, _ in scenarios], transcripts, markables, judgements)
