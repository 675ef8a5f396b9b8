"""Synthetic corpora: scripted dialogues with markables, flags, links and
noisy multi-annotator judgements over generated scenarios.

This is fixture machinery: it gives every downstream pipeline (stats,
agreement, gold aggregation, model training, tagging, selfplay, rendering)
a valid corpus to run on without any external data.  The scripts are
template-based and deliberately simple; they are not a model of human
dialogue."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import (
    AnnotatedCorpus,
    Dialogue,
    Markable,
    Message,
    ReferentJudgement,
    Selection,
)
from .scenario import DEFAULT_CONFIG, SHARED_COUNTS, Scenario, generate_scenario

N_ANNOTATORS = 3   # judgements per manually judged markable
SUCCESS_RATE = 0.8  # share of dialogues whose two selections match


def _size_word(e) -> str:
    t = (e.size - DEFAULT_CONFIG.size_min) / (DEFAULT_CONFIG.size_max - DEFAULT_CONFIG.size_min)
    return "small" if t < 1 / 3 else ("medium" if t < 2 / 3 else "large")


def _color_word(e) -> str:
    return "dark" if e.color < 85 else ("gray" if e.color < 170 else "light")


@dataclass
class _UttBuilder:
    """Accumulates tokens and markable spans for one utterance."""

    tokens: list
    spans: list  # (start, end, referents or None, flags dict)

    def words(self, text: str) -> None:
        self.tokens.extend(text.split())

    def markable(self, text: str, referents=None, **flags) -> int:
        """Add a span and return its index; a link flag names a span by index."""
        start = len(self.tokens)
        self.words(text)
        self.spans.append((start, len(self.tokens), referents, flags))
        return len(self.spans) - 1


def make_synthetic_corpus(n_dialogues: int, seed: int = 0, *, flip_rate: float = 0.02) -> AnnotatedCorpus:
    """Build a valid annotated corpus of scripted referring-game dialogues;
    each judgement flips each visible entity with probability ``flip_rate``."""
    master = np.random.SeedSequence(seed)
    streams = master.spawn(n_dialogues)
    scenarios: dict[str, Scenario] = {}
    dialogues: list[Dialogue] = []
    markables: list[Markable] = []
    judgements: list[ReferentJudgement] = []

    for d_idx in range(n_dialogues):
        rng = np.random.default_rng(streams[d_idx])
        k = SHARED_COUNTS[d_idx % len(SHARED_COUNTS)]
        scenario = generate_scenario(DEFAULT_CONFIG, k, rng)
        if scenario.id not in scenarios:
            scenarios[scenario.id] = scenario
        did = f"d{d_idx:05d}"
        shared = sorted(scenario.shared_ids)
        target = int(shared[rng.integers(len(shared))])
        t_ent = scenario.entity(target)
        vis_a = list(scenario.view_a.visible)
        vis_b = list(scenario.view_b.visible)

        utts: list[_UttBuilder] = []
        speakers: list[str] = []

        def say(speaker: str) -> _UttBuilder:
            b = _UttBuilder(tokens=[], spans=[])
            utts.append(b)
            speakers.append(speaker)
            return b

        size_w = _size_word(t_ent)
        color_w = _color_word(t_ent)

        style = int(rng.integers(5))
        u = say("A")
        u.words("i have")
        if style == 0:
            u.markable(f"a {size_w} {color_w} dot", {target})
        elif style == 1:
            buddy = int(vis_a[int(rng.integers(7))])
            while buddy == target:
                buddy = int(vis_a[int(rng.integers(7))])
            b_ent = scenario.entity(buddy)
            if d_idx % 2:
                first = u.markable(f"a {size_w} {color_w} dot", {target})
                u.words("with")
                u.markable(f"a {_color_word(b_ent)} one", {buddy})
                u.words("next to")
                u.markable("it", anaphora_of=first)
            else:
                u.markable("it", cataphora_of=len(u.spans) + 1)  # the dot named next
                u.words("i mean")
                u.markable(f"a {size_w} {color_w} dot", {target})
                u.words("with")
                u.markable(f"a {_color_word(b_ent)} one", {buddy})
        elif style == 2:
            mates = sorted(
                (e for e in vis_a if e != target),
                key=lambda e: abs(scenario.entity(e).color - t_ent.color),
            )[:1]
            group = {target, int(mates[0])}
            u.markable(f"two {color_w} dots", group)
            u.words("close together")
        elif style == 3:
            u.markable(f"a {size_w} {color_w} dot", {target})
            u.words("does that match ?")
        else:
            u.markable("a lonely cluster", None, generic=True)
            u.words("and")
            u.markable(f"a {size_w} {color_w} dot", {target})

        reply = int(rng.integers(4))
        u = say("B")
        if reply == 0:
            u.words("yes i see")
            u.markable("it", {target})
        elif reply == 1:
            u.words("no")
            u.markable("none of mine", None, no_referent=True)
            u.words(f"look {size_w}")
        elif reply == 2:
            u.markable("all of my dots", None, all_referents=True)
            u.words(f"are {color_w} here")
        else:
            u.words("i might see")
            u.markable(f"that {color_w} dot", {target})

        u = say("A")
        u.words("ok lets pick")
        u.markable(f"the {size_w} {color_w} one", {target})

        events: list = [Message(speaker=s, tokens=tuple(b.tokens)) for s, b in zip(speakers, utts)]
        success = bool(rng.random() < SUCCESS_RATE)
        pick_a = target
        if success:
            pick_b = target
        else:
            others = [e for e in vis_b if e != target]
            pick_b = int(others[int(rng.integers(len(others)))])
        events.append(Selection(speaker="A", entity_id=pick_a))
        events.append(Selection(speaker="B", entity_id=pick_b))
        dialogues.append(
            Dialogue(id=did, scenario_id=scenario.id, events=tuple(events), outcome=pick_a == pick_b)
        )

        for u_idx, (b, speaker) in enumerate(zip(utts, speakers)):
            visible = frozenset(scenario.view(speaker).visible)
            for s_idx, (start, end, referents, flags) in enumerate(b.spans):
                links = {k: f"{did}_m{u_idx}_{v}" for k, v in flags.items() if k.endswith("_of")}
                mark = Markable(
                    id=f"{did}_m{u_idx}_{s_idx}",
                    dialogue_id=did,
                    utterance_index=u_idx,
                    start_token=start,
                    end_token=end,
                    speaker=speaker,
                    **{**flags, **links},
                )
                markables.append(mark)
                if not mark.is_manual or referents is None:
                    continue
                truth = frozenset(int(r) for r in referents)
                assert truth <= visible
                for a_idx in range(N_ANNOTATORS):
                    noisy = set(truth)
                    for e in sorted(visible):
                        if rng.random() < flip_rate:
                            noisy.symmetric_difference_update({e})
                    unident = rng.random() < 0.01
                    judgements.append(
                        ReferentJudgement(
                            markable_id=mark.id,
                            annotator_id=f"ann{a_idx}",
                            referents=frozenset() if unident else frozenset(noisy),
                            ambiguous=noisy != truth and rng.random() < 0.5,
                            unidentifiable=unident,
                        )
                    )

    return AnnotatedCorpus.build(scenarios.values(), dialogues, markables, judgements)


def make_span_annotations(
    corpus: AnnotatedCorpus, n_annotators: int = 3, jitter: float = 0.05, seed: int = 0
) -> dict[str, list[Markable]]:
    """Simulated independent markable-detection passes (for span-agreement
    statistics): the first annotator reproduces the corpus markables; each
    other one moves a span's start, and then its end, by one token with
    probability ``jitter`` each.  A start moves one token earlier, or one
    later where the span opens its utterance; an end moves one token later
    where the utterance has room.  Every span keeps ``0 <= start < end <=
    n_tokens``."""
    rng = np.random.default_rng(seed)
    out: dict[str, list[Markable]] = {}
    for a_idx in range(n_annotators):
        name = f"spanner{a_idx}"
        marks = []
        for mid in sorted(corpus.markables):
            m = corpus.markables[mid]
            start, end = m.start_token, m.end_token
            n_tokens = len(corpus.utterance_tokens(m))
            if a_idx > 0 and rng.random() < jitter:
                if start > 0:
                    start -= 1
                elif end - start > 1:
                    start += 1
            if a_idx > 0 and rng.random() < jitter and end < n_tokens:
                end += 1
            marks.append(
                Markable(
                    id=f"{name}_{m.id}",
                    dialogue_id=m.dialogue_id,
                    utterance_index=m.utterance_index,
                    start_token=start,
                    end_token=end,
                    speaker=m.speaker,
                )
            )
        out[name] = marks
    return out
