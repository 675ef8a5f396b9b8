"""Import adapter: maps an externally released annotation bundle into the
canonical corpus schema.

The canonical schema is defined by this package (corpus.py / scenario.py).
Released data was not available while this adapter was written, so it
targets the documented *bundle* layout below and accepts a field-map JSON
that renames keys when the real files differ.  All unit conversions happen
here: entity coordinates are affinely rescaled into the world box, sizes
into the default scenario size range (the range the models' features
assume), colors accept numbers in [0, 256) or grayscale hex strings.

Expected bundle layout (directory):
  scenarios.json   list of {"uuid", "kbs": [[entity...], [entity...]]}
                   entity = {"id", "x", "y", "size", "color"}
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
from .io import read_json
from .scenario import COLOR_RANGE, DEFAULT_CONFIG, Entity, Scenario, View

AGENT_NAMES = {0: "A", 1: "B", "0": "A", "1": "B", "A": "A", "B": "B"}

DEFAULT_FIELD_MAP = {
    "scenarios_file": "scenarios.json",
    "transcripts_file": "transcripts.json",
    "markables_file": "markables.json",
    "judgements_file": "judgements.json",
}


def _parse_color(value) -> float:
    if isinstance(value, (int, float)):
        c = float(value)
    elif isinstance(value, str) and value.startswith("#") and len(value) == 7:
        r, g, b = (int(value[i: i + 2], 16) for i in (1, 3, 5))
        c = (r + g + b) / 3.0
    else:
        raise SchemaError(f"cannot parse color {value!r}")
    if not 0.0 <= c < COLOR_RANGE + 1:
        raise SchemaError(f"color {c} outside [0, {COLOR_RANGE})")
    return min(c, COLOR_RANGE - 1e-9)


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
    try:
        uuid = str(record["uuid"])
        kbs = record["kbs"]
        if len(kbs) != 2:
            raise SchemaError(f"scenario {uuid}: expected 2 agent contexts, got {len(kbs)}")
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed scenario record: {exc}") from exc

    raw: dict[object, dict] = {}
    membership: dict[object, list[int]] = {}
    for agent_idx, kb in enumerate(kbs):
        if len(kb) != 7:
            raise SchemaError(f"scenario {uuid}: agent {agent_idx} context must list 7 entities")
        for e in kb:
            key = e["id"]
            if key in raw and raw[key] != e:
                raise SchemaError(f"scenario {uuid}: entity {key} has conflicting attributes")
            raw[key] = e
            membership.setdefault(key, []).append(agent_idx)

    xs = [float(e["x"]) for e in raw.values()]
    ys = [float(e["y"]) for e in raw.values()]
    sizes = [float(e["size"]) for e in raw.values()]
    fx = _Affine(min(xs), max(xs), -0.9, 0.9)
    fy = _Affine(min(ys), max(ys), -0.9, 0.9)
    fs = _Affine(min(sizes), max(sizes), DEFAULT_CONFIG.size_min, DEFAULT_CONFIG.size_max)

    id_map = {key: i for i, key in enumerate(sorted(raw, key=str))}
    entities = tuple(
        Entity(
            id=id_map[key],
            x=fx(float(raw[key]["x"])),
            y=fy(float(raw[key]["y"])),
            size=fs(float(raw[key]["size"])),
            color=_parse_color(raw[key]["color"]),
        )
        for key in sorted(raw, key=str)
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


def _tokenize(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def import_dialogue(record: dict, id_map: dict) -> Dialogue:
    try:
        uuid = str(record["uuid"])
        events = []
        picks = {}
        for ev in record["events"]:
            agent = AGENT_NAMES[ev["agent"]]
            if ev["action"] == "message":
                events.append(Message(speaker=agent, tokens=_tokenize(str(ev["data"]))))
            elif ev["action"] == "select":
                entity = id_map[ev["data"]]
                picks[agent] = entity
                events.append(Selection(speaker=agent, entity_id=entity))
            else:
                raise SchemaError(f"dialogue {uuid}: unknown action {ev['action']!r}")
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed transcript record: {exc}") from exc
    if set(picks) != {"A", "B"}:
        raise SchemaError(f"dialogue {uuid}: needs exactly one selection per agent")
    return Dialogue(
        id=uuid,
        scenario_id=str(record["scenario_uuid"]),
        events=tuple(events),
        outcome=picks["A"] == picks["B"],
    )


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
    try:
        mid = str(record["markable_id"])
        did = str(record["dialogue_uuid"])
        utt = int(record["utterance"])
        speaker = AGENT_NAMES[record["speaker"]]
        dialogue = dialogues[did]
        tokens = dialogue.messages[utt].tokens
        if "start_token" in record:
            start, end = int(record["start_token"]), int(record["end_token"])
        else:
            start, end = _char_span_to_tokens(
                tokens, int(record["start_char"]), int(record["end_char"])
            )
        return Markable(
            id=mid,
            dialogue_id=did,
            utterance_index=utt,
            start_token=start,
            end_token=end,
            speaker=speaker,
            generic=bool(record.get("generic", False)),
            all_referents=bool(record.get("all_referents", False)),
            no_referent=bool(record.get("no_referent", False)),
            anaphora_of=record.get("anaphora_of"),
            cataphora_of=record.get("cataphora_of"),
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed markable record {record.get('markable_id')!r}: {exc}") from exc


def import_bundle(src, *, field_map: dict | None = None) -> AnnotatedCorpus:
    """Read a release bundle directory and build a validated corpus."""
    src = Path(src)
    fm = dict(DEFAULT_FIELD_MAP)
    fm.update(field_map or {})

    scenarios = []
    id_maps: dict[str, dict] = {}
    for record in read_json(src / fm["scenarios_file"]):
        scenario, id_map = import_scenario(record)
        scenarios.append(scenario)
        id_maps[scenario.id] = id_map

    dialogues = {}
    for record in read_json(src / fm["transcripts_file"]):
        sid = str(record["scenario_uuid"])
        if sid not in id_maps:
            raise SchemaError(f"transcript {record.get('uuid')!r}: unknown scenario {sid}")
        d = import_dialogue(record, id_maps[sid])
        dialogues[d.id] = d

    markables = [import_markable(r, dialogues) for r in read_json(src / fm["markables_file"])]

    mark_dialogue = {m.id: m.dialogue_id for m in markables}
    judgements = []
    for record in read_json(src / fm["judgements_file"]):
        mid = str(record["markable_id"])
        if mid not in mark_dialogue:
            raise SchemaError(f"judgement on unknown markable {mid}")
        sid = dialogues[mark_dialogue[mid]].scenario_id
        judgements.append(
            ReferentJudgement(
                markable_id=mid,
                annotator_id=str(record["annotator"]),
                referents=frozenset(id_maps[sid][r] for r in record["referents"]),
                ambiguous=bool(record.get("ambiguous", False)),
                unidentifiable=bool(record.get("unidentifiable", False)),
            )
        )

    return AnnotatedCorpus.build(scenarios, dialogues.values(), markables, judgements)
