"""Selfplay: the full collaborative referring game between two agents.

Protocol: agents alternate utterances starting with A; an utterance ends at
the end-of-utterance token or the token cap; the dialogue ends when an
agent emits the selection control token (or at the utterance cap, in which
case selection is forced and the game flagged).  Both agents then pick an
entity via their target-selection policy and the game succeeds iff the
picked world entities are identical.  Every game is replayable from
(agents, scenario, seed)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from .corpus import Dialogue, GoldEntry, Message, Selection
from .errors import GameAbortedError
from .io import csv_text
from .model import (
    EOU, REF_THRESHOLD, SEL, THEM, YOU, DecoderState, GroundingModel, dialogue_examples,
)
from .scenario import Scenario, View, view_feature_matrix


@dataclass(frozen=True)
class ProtocolConfig:
    temperature: float = 0.25
    max_utterances: int = 20
    max_tokens_per_utterance: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if self.max_utterances <= 0 or self.max_tokens_per_utterance <= 0:
            raise ValueError("limits must be positive")


@dataclass
class GameTranscript:
    scenario_id: str
    num_shared: int
    seed: int
    messages: list[dict] = field(default_factory=list)  # {"speaker", "tokens"}
    selections: dict = field(default_factory=dict)      # speaker -> entity id
    success: bool = False
    forced: bool = False
    predicted_referents: dict | None = None             # markable id -> [entity ids]
    aborted: bool = False
    abort_message: str | None = None

    def to_dict(self) -> dict:
        out = {
            "scenario_id": self.scenario_id,
            "num_shared": self.num_shared,
            "seed": self.seed,
            "messages": self.messages,
            "selections": self.selections,
            "success": self.success,
            "forced": self.forced,
        }
        if self.predicted_referents is not None:
            out["predicted_referents"] = {
                mid: sorted(refs) for mid, refs in self.predicted_referents.items()
            }
        if self.aborted:
            out["aborted"] = True
            out["abort_message"] = self.abort_message
        return out

    def to_dialogue(self, dialogue_id: str) -> Dialogue:
        events: list = [
            Message(speaker=m["speaker"], tokens=tuple(m["tokens"])) for m in self.messages
        ]
        events.append(Selection(speaker="A", entity_id=self.selections["A"]))
        events.append(Selection(speaker="B", entity_id=self.selections["B"]))
        return Dialogue(
            id=dialogue_id,
            scenario_id=self.scenario_id,
            events=tuple(events),
            outcome=self.success,
        )


def temperature_weights(probs: np.ndarray, temperature: float) -> np.ndarray:
    """Renormalized distribution proportional to p_i^(1/temperature)."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    with np.errstate(divide="ignore"):
        logits = np.log(probs) / temperature
    logits -= logits.max()
    w = np.exp(logits)
    total = w.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError("degenerate distribution after temperature scaling")
    return w / total


def sample_token(probs: np.ndarray, temperature: float, rng: np.random.Generator) -> int:
    """Sample proportionally to p_i^(1/temperature)."""
    return int(rng.choice(len(probs), p=temperature_weights(probs, temperature)))


class Agent(Protocol):
    def reset(self, scenario: Scenario, role: str, rng: np.random.Generator) -> None: ...

    def observe(self, speaker_is_self: bool, tokens: Sequence[str]) -> None: ...

    def act(self) -> tuple[list[str], bool]:
        """Produce one utterance; returns (tokens, wants_selection)."""
        ...

    def select(self) -> int:
        """Pick a world entity id from the agent's own view."""
        ...


class ScriptedAgent:
    """Test/baseline agent: says a fixed line on its first turn, then emits
    the selection signal; picks via a pluggable policy on its own view."""

    def __init__(self, pick: Callable[[Scenario, View, np.random.Generator], int], line: str = ""):
        self.pick = pick
        self.line = line
        self.scenario: Scenario | None = None
        self.view: View | None = None
        self.rng: np.random.Generator | None = None
        self.spoke = False

    def reset(self, scenario: Scenario, role: str, rng: np.random.Generator) -> None:
        self.scenario = scenario
        self.view = scenario.view(role)
        self.rng = rng
        self.spoke = False

    def observe(self, speaker_is_self: bool, tokens: Sequence[str]) -> None:
        pass

    def act(self) -> tuple[list[str], bool]:
        if self.line and not self.spoke:
            self.spoke = True
            return self.line.split(), False
        return [], True

    def select(self) -> int:
        return self.pick(self.scenario, self.view, self.rng)


def pick_random(scenario: Scenario, view: View, rng: np.random.Generator) -> int:
    return int(view.visible[rng.integers(len(view.visible))])


def pick_center(scenario: Scenario, view: View, rng: np.random.Generator) -> int:
    """Fair heuristic: the visible entity closest to the view's own centre
    (which sits toward the overlap region of the two views)."""
    cx, cy = view.center
    best = min(
        (scenario.entity(e) for e in view.visible),
        key=lambda ent: math.hypot(ent.x - cx, ent.y - cy),
    )
    return best.id


def pick_darkest(scenario: Scenario, view: View, rng: np.random.Generator) -> int:
    """Fair heuristic with strongly k-dependent success: both players picking
    their darkest visible dot agree whenever the darkest dot of the union is
    shared (probability ~ k/(14-k))."""
    return min((scenario.entity(e) for e in view.visible), key=lambda ent: ent.color).id


def random_agent() -> ScriptedAgent:
    return ScriptedAgent(pick_random)


def center_agent() -> ScriptedAgent:
    return ScriptedAgent(pick_center, line="i will pick the middle one")


def darkest_agent() -> ScriptedAgent:
    return ScriptedAgent(pick_darkest, line="i will pick the darkest dot")


class ModelAgent:
    """Wraps a trained generation-capable model (a DIAL variant) for play.

    ``act`` decodes ahead on a fork of the committed state.  When
    ``observe`` then reports exactly the utterance it emitted, the fork,
    which has already consumed ``<you>`` and those tokens, becomes the
    committed state and only ``<eou>`` is fed; any other observation
    (a truncated utterance, a ``[SEL]`` event, the partner's turn) is fed
    token by token onto the committed state."""

    def __init__(self, model: GroundingModel, temperature: float, max_tokens: int):
        if "dial" not in model.heads or "tsel" not in model.heads:
            raise ValueError("selfplay needs a variant with TSEL and DIAL heads")
        self.model = model
        self.temperature = temperature
        self.max_tokens = max_tokens
        self.forbidden = {model.vocab.encode(YOU), model.vocab.encode(THEM)}
        self.state: DecoderState | None = None
        self.view: View | None = None
        self.rng: np.random.Generator | None = None
        self._ahead: tuple[DecoderState, tuple[str, ...]] | None = None

    def reset(self, scenario: Scenario, role: str, rng: np.random.Generator) -> None:
        attrs, rel = view_feature_matrix(scenario, role)
        self.state = self.model.start_state(attrs, rel)
        self.view = scenario.view(role)
        self.rng = rng
        self._ahead = None

    def observe(self, speaker_is_self: bool, tokens: Sequence[str]) -> None:
        encode = self.model.vocab.encode
        ahead, self._ahead = self._ahead, None
        if speaker_is_self and ahead is not None and ahead[1] == tuple(tokens):
            self.state = ahead[0]
        else:
            self.state.feed(encode(YOU if speaker_is_self else THEM))
            for t in tokens:
                self.state.feed(encode(t))
        self.state.feed(encode(EOU))

    def act(self) -> tuple[list[str], bool]:
        vocab = self.model.vocab
        out: list[str] = []
        wants_selection = False
        state = self.state.fork()
        state.feed(vocab.encode(YOU))
        for _ in range(self.max_tokens):
            probs = state.next_token_probs().copy()
            for t in self.forbidden:
                probs[t] = 0.0
            total = probs.sum()
            if total <= 0:
                raise GameAbortedError("model assigned zero mass to all legal tokens")
            token_id = sample_token(probs / total, self.temperature, self.rng)
            token = vocab.decode(token_id)
            if token == SEL:
                wants_selection = True
                break
            if token == EOU:
                break
            out.append(token)
            state.feed(token_id)
        self._ahead = (state, tuple(out))
        return out, wants_selection

    def select(self) -> int:
        probs = self.state.tsel_probs()
        return int(self.view.visible[int(np.argmax(probs))])


def run_game(
    agent_a: Agent,
    agent_b: Agent,
    scenario: Scenario,
    protocol: ProtocolConfig,
    rng: np.random.Generator,
) -> GameTranscript:
    """Play one game; deterministic given the rng state.  An exception from
    any agent call ends the game as a ``GameAbortedError`` naming the
    scenario."""
    transcript = GameTranscript(
        scenario_id=scenario.id, num_shared=scenario.num_shared, seed=protocol.seed
    )
    agents = {"A": agent_a, "B": agent_b}
    try:
        for role, agent in agents.items():
            agent.reset(scenario, role, rng)
        speaker = "A"
        ended_by_selection = False
        for _ in range(protocol.max_utterances):
            tokens, wants_selection = agents[speaker].act()
            tokens = tokens[: protocol.max_tokens_per_utterance]
            if tokens:
                transcript.messages.append({"speaker": speaker, "tokens": tokens})
                for role, agent in agents.items():
                    agent.observe(role == speaker, tokens)
            if wants_selection:
                # the selection control token is its own event, as in training
                for role, agent in agents.items():
                    agent.observe(role == speaker, [SEL])
                ended_by_selection = True
                break
            speaker = "B" if speaker == "A" else "A"
        transcript.forced = not ended_by_selection
        picks = {}
        for role, agent in agents.items():
            entity = int(agent.select())
            if entity not in scenario.view(role).visible:
                raise GameAbortedError(f"agent {role} selected entity {entity} outside its view")
            picks[role] = entity
    except GameAbortedError:
        raise
    except Exception as exc:  # surface agent bugs with game context
        raise GameAbortedError(f"game on scenario {scenario.id} failed: {exc!r}") from exc
    transcript.selections = picks
    transcript.success = picks["A"] == picks["B"]
    return transcript


@dataclass
class BatchResult:
    """Per shared count: ``games`` played, ``aborted`` among them, and the
    ``successes`` and success ``rates`` of the games that finished (a count
    whose games all aborted has no rate)."""

    rates: dict[int, float]
    games: dict[int, int]
    successes: dict[int, int]
    aborted: dict[int, int]
    transcripts: list[GameTranscript] = field(default_factory=list)

    def summary_csv(self) -> str:
        return csv_text(
            ("num_shared", "games", "successes", "success_rate"),
            ((k, self.games[k], self.successes[k], f"{self.rates[k]:.4f}") for k in sorted(self.rates)),
        )

    def transcripts_jsonl(self) -> str:
        return "\n".join(json.dumps(t.to_dict()) for t in self.transcripts) + "\n"

    def summary(self, seconds: float) -> dict:
        """Game counts, success rate per shared count, the forced-selection
        rate and mean utterances and tokens over the finished games (None
        when every game aborted), and games and emitted tokens per second
        for a batch that took ``seconds``."""
        done = [t for t in self.transcripts if not t.aborted]
        tokens = [sum(len(m["tokens"]) for m in t.messages) for t in done]

        def mean(values):
            return sum(values) / len(done) if done else None

        return {
            "games": len(self.transcripts),
            "aborted_games": sum(self.aborted.values()),
            "success_rate": {str(k): self.rates[k] for k in sorted(self.rates)},
            "forced_rate": mean([t.forced for t in done]),
            "utterances_per_game": mean([len(t.messages) for t in done]),
            "tokens_per_game": mean(tokens),
            "seconds": seconds,
            "games_per_s": len(self.transcripts) / seconds,
            "tokens_per_s": sum(tokens) / seconds,
        }


def annotate_transcript(
    transcript: GameTranscript,
    scenario: Scenario,
    model: GroundingModel,
    tagger,
    dialogue_id: str | None = None,
):
    """Interpretation pipeline for a finished game: detect markables with
    the tagger, then predict each markable's referents with the model's REF
    head from the speaker's own perspective.  Returns (dialogue, markables,
    predicted referent sets keyed by markable id) and stores the
    predictions on the transcript."""
    from .tagger import predict_markables

    if "ref" not in model.heads:
        raise ValueError("transcript annotation needs a variant with a REF head")
    dialogue = transcript.to_dialogue(dialogue_id or f"selfplay_{transcript.scenario_id}")
    markables = predict_markables(tagger, [dialogue])
    # every detected markable gets a REF row; its target is unknown
    unknown = {m.id: GoldEntry(frozenset()) for m in markables}
    examples = [
        ex for ex in dialogue_examples(dialogue, scenario, model.vocab, markables, unknown)
        if ex.markable_ids
    ]
    predictions: dict[str, frozenset[int]] = {}
    for ex, probs in zip(examples, model.ref_probs_at(examples)):
        for mid, row in zip(ex.markable_ids, probs >= REF_THRESHOLD):
            predictions[mid] = frozenset(e for e, hit in zip(ex.entity_ids, row) if hit)
    transcript.predicted_referents = {k: sorted(v) for k, v in predictions.items()}
    return dialogue, markables, predictions


class CheckpointAgentFactory:
    """Picklable model-agent factory for multi-process batches: each worker
    loads the checkpoint once and reuses it."""

    def __init__(self, prefix, temperature: float, max_tokens: int):
        self.prefix = str(prefix)
        self.temperature = temperature
        self.max_tokens = max_tokens
        self._model: GroundingModel | None = None

    def __getstate__(self):
        return {"prefix": self.prefix, "temperature": self.temperature,
                "max_tokens": self.max_tokens}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._model = None

    @property
    def model(self) -> GroundingModel:
        """The checkpoint's model, loaded on first use in this process."""
        if self._model is None:
            self._model = GroundingModel.load(self.prefix)
        return self._model

    def __call__(self) -> "ModelAgent":
        return ModelAgent(self.model, temperature=self.temperature, max_tokens=self.max_tokens)


def _play_one(payload) -> GameTranscript:
    """One game; an aborted game comes back as a transcript that records it."""
    agent_factory, scenario, protocol, stream = payload
    rng = np.random.default_rng(stream)
    try:
        return run_game(agent_factory(), agent_factory(), scenario, protocol, rng)
    except GameAbortedError as exc:
        return GameTranscript(
            scenario_id=scenario.id, num_shared=scenario.num_shared, seed=protocol.seed,
            aborted=True, abort_message=str(exc),
        )


def run_batch(
    agent_factory: Callable[[], Agent],
    scenarios: Iterable[Scenario],
    protocol: ProtocolConfig,
    jobs: int = 1,
) -> BatchResult:
    """Play every scenario with a fresh agent pair.  Per-game rng streams
    are spawned from protocol.seed by scenario order and results are
    reduced in that order, so rates and transcripts do not depend on
    scheduling.  A game that raises ``GameAbortedError`` is recorded as
    aborted and the batch goes on.  ``jobs`` > 1 distributes games over a
    process pool (the agent factory must then be picklable)."""
    scenario_list = list(scenarios)
    streams = np.random.SeedSequence(protocol.seed).spawn(max(len(scenario_list), 1))
    payloads = [
        (agent_factory, scenario, protocol, streams[i])
        for i, scenario in enumerate(scenario_list)
    ]
    if jobs > 1 and len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            transcripts = list(pool.map(_play_one, payloads, chunksize=32))
    else:
        transcripts = [_play_one(p) for p in payloads]
    games: dict[int, int] = {}
    successes: dict[int, int] = {}
    aborted: dict[int, int] = {}
    for scenario, transcript in zip(scenario_list, transcripts):
        k = scenario.num_shared
        games[k] = games.get(k, 0) + 1
        successes[k] = successes.get(k, 0) + int(transcript.success)
        aborted[k] = aborted.get(k, 0) + int(transcript.aborted)
    rates = {k: successes[k] / (games[k] - aborted[k]) for k in games if games[k] > aborted[k]}
    return BatchResult(
        rates=rates, games=games, successes=successes, aborted=aborted, transcripts=transcripts
    )
