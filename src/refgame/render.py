"""Deterministic static rendering: SVG dot views with referent highlight
rings, and HTML dialogue pages with color-keyed markable underlines.

Output bytes are a pure function of the inputs: floats are formatted with
fixed precision and highlight colors are assigned in input order from a
fixed palette."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .corpus import AnnotatedCorpus, Dialogue, Markable, Message
from .scenario import Scenario, View

CANVAS = 430.0
MARGIN = 15.0
PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
    "#a65628", "#f781bf", "#17becf", "#bcbd22", "#8c564b",
)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def color_hex(color: float) -> str:
    """Grayscale fill for a color value in [0, 256): 0 is black."""
    level = int(round(color))
    level = min(max(level, 0), 255)
    return f"#{level:02x}{level:02x}{level:02x}"


def highlight_color(index: int) -> str:
    return PALETTE[index % len(PALETTE)]


def render_view(
    view: View,
    scenario: Scenario,
    highlights: Mapping[str, Iterable[int]] | None = None,
    *,
    title: str = "",
) -> str:
    """SVG document: the view circle, one filled dot per visible entity
    (radius from size, gray fill from color), and a ring per highlight set
    in palette order.  Missing entities raise KeyError."""
    highlights = highlights or {}
    scale = (CANVAS / 2.0 - MARGIN) / view.radius
    cx0, cy0 = view.center

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (CANVAS / 2.0 + (x - cx0) * scale, CANVAS / 2.0 + (y - cy0) * scale)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(CANVAS)}" height="{_fmt(CANVAS)}" '
        f'viewBox="0 0 {_fmt(CANVAS)} {_fmt(CANVAS)}">',
        f'<circle cx="{_fmt(CANVAS / 2)}" cy="{_fmt(CANVAS / 2)}" '
        f'r="{_fmt(view.radius * scale)}" fill="none" stroke="#666666" stroke-width="1.00"/>',
    ]
    if title:
        lines.append(
            f'<text x="{_fmt(CANVAS / 2)}" y="{_fmt(MARGIN)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12.00">{escape_xml(title)}</text>'
        )
    ring_specs: list[tuple[int, str]] = []
    for h_idx, (label, entity_ids) in enumerate(highlights.items()):
        color = highlight_color(h_idx)
        for eid in entity_ids:
            if eid not in view.visible:
                raise KeyError(f"highlight {label!r}: entity {eid} not in view {view.agent}")
            ring_specs.append((eid, color))
    for eid in view.visible:
        e = scenario.entity(eid)
        px, py = to_px(e.x, e.y)
        lines.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(e.size * scale)}" '
            f'fill="{color_hex(e.color)}" stroke="#333333" stroke-width="0.50"/>'
        )
    ring_gap = 3.0
    seen: dict[int, int] = {}
    for eid, color in ring_specs:
        e = scenario.entity(eid)
        px, py = to_px(e.x, e.y)
        level = seen.get(eid, 0)
        seen[eid] = level + 1
        r = e.size * scale + 3.0 + ring_gap * level
        lines.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(r)}" '
            f'fill="none" stroke="{color}" stroke-width="2.00"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def escape_xml(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def render_dialogue(
    dialogue: Dialogue,
    scenario: Scenario,
    markables: Sequence[Markable],
    referents: Mapping[str, frozenset[int] | set[int]],
) -> str:
    """Static HTML page: one SVG panel per agent view with highlight rings,
    and the dialogue text with markable spans underlined in matching
    colors.  Markables without referent entries are underlined in gray
    with no ring."""
    by_utt: dict[int, list[Markable]] = {}
    panel_highlights = {"A": {}, "B": {}}
    colors: dict[str, str] = {}  # a highlighted markable's ring and underline color
    for m in sorted(markables, key=lambda m: (m.utterance_index, m.start_token)):
        if m.dialogue_id != dialogue.id:
            raise ValueError(f"markable {m.id} belongs to dialogue {m.dialogue_id}")
        by_utt.setdefault(m.utterance_index, []).append(m)
        if referents.get(m.id):
            panel = panel_highlights[m.speaker]
            colors[m.id] = highlight_color(len(panel))
            panel[m.id] = sorted(referents[m.id])

    text_lines = []
    utt = -1
    for event in dialogue.events:
        if isinstance(event, Message):
            utt += 1
            pieces = []
            spans = {m.start_token: m for m in by_utt.get(utt, [])}
            t = 0
            tokens = event.tokens
            while t < len(tokens):
                m = spans.get(t)
                if m is None:
                    pieces.append(escape_xml(tokens[t]))
                    t += 1
                    continue
                if m.end_token > len(tokens):
                    raise ValueError(f"markable {m.id} span exceeds utterance length")
                color = colors.get(m.id, "#999999")
                body = escape_xml(" ".join(tokens[t:m.end_token]))
                pieces.append(
                    f'<span style="border-bottom:2px solid {color}">{body}</span>'
                )
                t = m.end_token
            text_lines.append(
                f'<div class="u"><b>{event.speaker}:</b> {" ".join(pieces)}</div>'
            )
        else:
            text_lines.append(
                f'<div class="u sel"><b>{event.speaker}:</b> selected entity '
                f"{event.entity_id}</div>"
            )
    outcome = "success" if dialogue.outcome else "failure"
    svg_a = render_view(scenario.view_a, scenario, panel_highlights["A"], title="A's view")
    svg_b = render_view(scenario.view_b, scenario, panel_highlights["B"], title="B's view")
    head = f"dialogue {dialogue.id}"
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"/>"
        f"<title>{escape_xml(head)}</title>"
        "<style>body{font-family:sans-serif;margin:20px}"
        ".panels{display:flex;gap:16px}.u{margin:6px 0}.sel{color:#555}</style>"
        "</head><body>\n"
        f"<h3>{escape_xml(head)} ({outcome})</h3>\n"
        f'<div class="panels"><div>{svg_a}</div><div>{svg_b}</div></div>\n'
        + "\n".join(text_lines)
        + "\n</body></html>\n"
    )


def render_judgements(
    corpus: AnnotatedCorpus, markable_id: str
) -> str:
    """One SVG panel per judgement of a markable, side by side (for
    disagreement inspection)."""
    m = corpus.markables[markable_id]
    scenario = corpus.scenarios[corpus.dialogues[m.dialogue_id].scenario_id]
    view = scenario.view(m.speaker)
    panels = []
    for j in sorted(corpus.judgements.get(markable_id, ()), key=lambda j: j.annotator_id):
        panels.append(
            "<div><p>"
            + escape_xml(f"{j.annotator_id}: {sorted(j.referents)}")
            + "</p>"
            + render_view(view, scenario, {markable_id: sorted(j.referents)})
            + "</div>"
        )
    text = escape_xml(" ".join(corpus.markable_tokens(m)))
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"/>"
        f"<title>{escape_xml(markable_id)}</title></head><body>\n"
        f"<h3>markable {escape_xml(markable_id)}: “{text}”</h3>\n"
        '<div style="display:flex;gap:16px">' + "\n".join(panels) + "</div>\n</body></html>\n"
    )
