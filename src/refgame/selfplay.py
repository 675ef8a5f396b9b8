"""Selfplay: the full collaborative referring game between two agents.

Protocol: agents alternate utterances starting with A; an utterance ends at
the end-of-utterance token or the token cap; the dialogue ends when an
agent emits the selection control token (or at the utterance cap, in which
case selection is forced and the game flagged).  Both agents then pick an
entity via their target-selection policy and the game succeeds iff the
picked world entities are identical.  Every game is replayable from
(agents, scenario, seed).  ``run_game`` on a list of games plays them in
lockstep, one GRU step and one DIAL head call per tick for every game's
decoders, and each game samples from its own rng.  Between two model
agents that play in lockstep, the listener steps each token in the tick
that draws it, beside the speaker.  A game's rows agree with one-game,
one-row-at-a-time play up to the rounding of the batched GEMMs."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from .corpus import AnnotatedCorpus, Dialogue, GoldEntry, Message, ReferentJudgement, Selection
from .errors import GameAbortedError
from .io import csv_text
from .model import (
    EOU, REF_THRESHOLD, SEL, THEM, YOU, DecoderState, GroundingModel, dialogue_examples, step_queued,
)
from .scenario import Scenario, View, view_feature_matrix

# games per lockstep run_game call in run_batch: more rows per GRU and DIAL
# head call, against a longer tail of ticks that only the slowest games run.
# With listeners stepping beside their speakers, 300 paper-size model games
# through `refgame selfplay` on 2 CPUs played in a median of 1.70 s at 64,
# 1.80 s at 128 (faster than 64 in 4 of 8 alternating rounds) and 2.53 s at
# 32 (BENCH_listener_lockstep.json, "games_chunk").
GAMES_CHUNK = 64
GAME_ID = "game{:05d}"  # the dialogue id of a batch's i-th game, which its markables carry


@dataclass(frozen=True)
class ProtocolConfig:
    temperature: float = 0.25
    max_utterances: int = 20
    max_tokens_per_utterance: int = 30
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.temperature < math.inf:  # nan and inf are refused too
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
    markables: list | None = field(default=None, repr=False)  # annotate_transcript's; not in the record
    aborted: bool = False
    abort_message: str | None = None
    # role -> the committed DecoderState of each of two state-keeping model
    # agents, its model and its log of rows, until annotate_transcript reads
    # them; not a part of the record
    states: dict | None = field(default=None, compare=False, repr=False)

    def __getstate__(self) -> dict:
        # the states hold a model and its rows, for this process only
        return {**self.__dict__, "states": None}

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
        if self.aborted:
            raise ValueError(f"the game on scenario {self.scenario_id} aborted, so it has no dialogue")
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


def temperature_weights(probs: np.ndarray, temperature) -> np.ndarray:
    """Renormalized distribution proportional to p_i^(1/temperature) over
    the last axis; for (n, V) rows the temperature may be a (n, 1) column.
    Raises ValueError for a temperature that is not positive.  A degenerate
    row (a NaN probability or temperature, or no mass) comes back all NaN;
    any other row's total is finite and at least its largest term, exp(0)."""
    if np.any(np.asarray(temperature) <= 0):
        raise ValueError("temperature must be > 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        logits = np.log(probs) / temperature
        logits -= logits.max(axis=-1, keepdims=True)
        w = np.exp(logits)
        return w / w.sum(axis=-1, keepdims=True)


def sample_token(rows: np.ndarray, temperature, rngs) -> list:
    """One token id per row of ``rows`` (n, V), drawn from that row's rng in
    ``rngs`` proportionally to p_i^(1/temperature); ``temperature`` is one
    value or a (n, 1) column.  Each row makes one ``rng.random()``,
    searched in its normalised cumulative weights: the draw that
    ``rng.choice(V, p=w)`` makes (in float64, as it does).  A degenerate
    row draws nothing and comes back as its ValueError in place of a
    token."""
    cdf = np.cumsum(temperature_weights(rows, temperature).astype(np.float64, copy=False), axis=-1)
    cdf /= cdf[:, -1:]
    degenerate = np.isnan(cdf[:, -1]).tolist()
    return [
        ValueError("degenerate distribution after temperature scaling") if bad
        else int(row.searchsorted(rng.random(), side="right"))
        for row, rng, bad in zip(cdf, rngs, degenerate)
    ]


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

    ``utter`` is the one token loop.  It decodes ahead on a fork of the
    committed state; given its partner as ``listener``, it also steps the
    listener's fork, fed ``<them>`` and each token in the tick that draws
    it.  When ``observe`` then reports exactly the utterance that a fork
    was stepped over, from that fork's side, the fork becomes the
    committed state and only ``<eou>`` is fed; any other observation (a
    truncated utterance, a ``[SEL]`` event, an utterance from a partner
    that does not play in lockstep) is fed token by token onto the
    committed state.  ``run_game`` runs the ``utter`` of many games in
    lockstep, each with its partner when both agents play in lockstep,
    and then takes each utterance from ``act``; called with none decoded,
    ``act`` runs ``utter`` alone, with no listener.

    With ``keep_states`` the committed state logs a copy of the GRU row of
    every token it consumes, the adopted fork's rows included, so the log
    holds the dialogue's states from this player's perspective.  A game
    between two such agents puts both committed states, logs included, on
    its transcript, where ``annotate_transcript`` reads its REF rows
    instead of running the GRU again; ``run_batch`` with a tagger does so
    slice by slice.  A row is
    2 KiB at paper size in float64, and an untrained paper-size game holds
    210-290 KiB of rows on average, a 64-game slice 13-18 MiB."""

    def __init__(self, model: GroundingModel, temperature: float, max_tokens: int,
                 keep_states: bool = True):
        if "dial" not in model.heads or "tsel" not in model.heads:
            raise ValueError("selfplay needs a variant with TSEL and DIAL heads")
        if not 0 < temperature < math.inf:
            raise ValueError("temperature must be > 0")
        self.model = model
        self.temperature = temperature
        self.max_tokens = max_tokens
        self.keep_states = keep_states
        # the speaker prefixes, which the protocol supplies
        self.forbidden = [model.vocab.encode(YOU), model.vocab.encode(THEM)]
        self.state: DecoderState | None = None
        self.view: View | None = None
        self.rng: np.random.Generator | None = None
        self._ahead: tuple[DecoderState, tuple[str, ...]] | None = None
        self._utterance: tuple[list[str], bool] | None = None

    def reset(self, scenario: Scenario, role: str, rng: np.random.Generator) -> None:
        attrs, rel = view_feature_matrix(scenario, role)
        self.state = self.model.start_state(attrs, rel)
        self.state.log = [] if self.keep_states else None
        self.view = scenario.view(role)
        self.rng = rng
        self._ahead = None
        self._utterance = None

    def observe(self, speaker_is_self: bool, tokens: Sequence[str]) -> None:
        encode = self.model.vocab.encode
        ahead, self._ahead = self._ahead, None
        if ahead is not None and ahead[1:] == (speaker_is_self, tuple(tokens)):
            if self.state.log is not None:  # the fork logged what it stepped past the committed state
                self.state.log.extend(ahead[0].log)
                ahead[0].log = self.state.log
            self.state = ahead[0]
        else:
            self.state.feed(encode(YOU if speaker_is_self else THEM))
            for t in tokens:
                self.state.feed(encode(t))
        self.state.feed(encode(EOU))

    def utter(self, listener: ModelAgent | None = None):
        """Decode the next utterance, (tokens, wants_selection), for ``act``
        to return, as a ``_lockstep`` coroutine: it yields ``(state, None,
        heard)`` when its committed state's queued tokens must be fed
        first, then ``(state, self, heard)`` whenever it needs its next
        token drawn from the fork ``state``, and is sent that token id.
        With a ``listener``, ``heard`` is the listener's fork of its own
        committed state, fed ``<them>`` and each token as it is drawn, so
        that the listener steps the utterance in the ticks that draw it;
        else it is None."""
        vocab = self.model.vocab
        heard = None
        if listener is not None:
            hear = listener.model.vocab.encode
            heard = listener.state.fork()
            heard.feed(hear(THEM))
        # what this agent heard is fed before the fork, so it is fed once
        # whichever of the two states the next observation keeps
        if self.state.queue:
            yield self.state, None, heard
        state = self.state.fork()
        state.feed(vocab.encode(YOU))
        out: list[str] = []
        wants_selection = False
        for _ in range(self.max_tokens):
            token_id = yield state, self, heard
            token = vocab.decode(token_id)
            if token == SEL:
                wants_selection = True
                break
            if token == EOU:
                break
            out.append(token)
            state.feed(token_id)
            if heard is not None:
                heard.feed(hear(token))
        self._ahead = (state, True, tuple(out))
        if listener is not None:
            listener._ahead = (heard, False, tuple(out))
        self._utterance = (out, wants_selection)

    def act(self) -> tuple[list[str], bool]:
        """The utterance that ``utter`` decoded for this turn; with none
        decoded, ``utter`` runs alone first, as a lockstep of one."""
        if self._utterance is None:
            _lockstep([self.utter()])
        utterance, self._utterance = self._utterance, None
        return utterance

    def select(self) -> int:
        probs = self.state.tsel_probs()
        return int(self.view.visible[int(np.argmax(probs))])


def _plays_in_lockstep(agent) -> bool:
    """A ModelAgent whose token loop is ``utter``; a subclass that
    overrides ``act`` has its own and plays through it."""
    return isinstance(agent, ModelAgent) and type(agent).act is ModelAgent.act


def _draw(requests: list[tuple[DecoderState, ModelAgent, object]]) -> list:
    """The next token of each ``(state, agent, _)`` request, all of one
    model, or the exception that ends its game.  One DIAL head call scores
    the rows and, with the forbidden tokens masked, one ``sample_token``
    call draws each row from its own agent's rng at that agent's
    temperature.  A row with no mass left comes back as a
    ``GameAbortedError`` and a degenerate one as its ValueError."""
    agents = [agent for _, agent, _ in requests]
    probs = DecoderState.next_token_probs([state for state, _, _ in requests])
    probs[:, agents[0].forbidden] = 0.0
    total = probs.sum(axis=1, keepdims=True)
    # in the rows' dtype, as a Python float temperature would be cast
    temperature = np.array([[agent.temperature] for agent in agents], dtype=probs.dtype)
    with np.errstate(invalid="ignore"):  # a row with no mass left is 0/0
        tokens = sample_token(probs / total, temperature, [agent.rng for agent in agents])
    return [
        GameAbortedError("model assigned zero mass to all legal tokens") if mass <= 0 else token
        for mass, token in zip(total[:, 0].tolist(), tokens)
    ]


def _lockstep(coroutines: list) -> list:
    """Run decoding coroutines (``_game``, ``ModelAgent.utter``) together
    and return each one's return value.

    A coroutine yields ``(state, agent, rider)``: it waits for the decoder
    state ``state`` to be fed its queued tokens and then, unless ``agent``
    is None, for the next token drawn from it for ``agent``; ``rider``, a
    state or None, is fed alongside and not waited for.  Each tick feeds
    one queued token to every state waited on or riding, in one
    ``step_queued`` call per model, then draws for every request whose
    state has no queue left, in one ``_draw`` call per model.  It then
    resumes, in waiting order, the coroutines that drew, with their
    tokens, and then every other one whose state is fed.  An exception
    that ``_draw`` returns is raised inside that coroutine only; one that
    a coroutine lets out ends the run."""
    results: list = [None] * len(coroutines)
    waiting: dict[int, tuple] = {}

    def resume(i: int, value=None) -> None:
        waiting.pop(i, None)
        try:
            if isinstance(value, BaseException):
                waiting[i] = coroutines[i].throw(value)
            else:
                waiting[i] = coroutines[i].send(value)
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(coroutines)):
        resume(i)
    while waiting:
        queued: dict[int, list[DecoderState]] = {}
        for state, _, rider in waiting.values():
            for s in (state, rider):
                if s is not None and s.queue:
                    queued.setdefault(id(s.model), []).append(s)
        for states in queued.values():
            step_queued(states)
        draws: dict[int, list[int]] = {}
        for i, (state, agent, _) in waiting.items():
            if agent is not None and not state.queue:
                draws.setdefault(id(state.model), []).append(i)
        drawn: dict[int, object] = {}
        for group in draws.values():
            drawn.update(zip(group, _draw([waiting[i] for i in group])))
        ready = [i for i, (state, _, _) in waiting.items() if not state.queue]
        for i in sorted(ready, key=lambda i: i not in drawn):  # stable: the draws first
            resume(i, drawn.get(i))
    return results


def _game(agent_a: Agent, agent_b: Agent, scenario: Scenario, protocol: ProtocolConfig,
          rng: np.random.Generator):
    """One game as a ``_lockstep`` coroutine; returns its transcript.  An
    exception from any agent call ends the game as an aborted transcript
    with no messages, whose ``abort_message`` is a ``GameAbortedError``'s
    own or names the scenario and the exception."""
    transcript = GameTranscript(
        scenario_id=scenario.id, num_shared=scenario.num_shared, seed=protocol.seed
    )
    agents = {"A": agent_a, "B": agent_b}
    # two lockstep agents step each utterance on both sides as it is drawn
    paired = all(map(_plays_in_lockstep, agents.values()))
    try:
        for role, agent in agents.items():
            agent.reset(scenario, role, rng)
        speaker, listener = "A", "B"
        ended_by_selection = False
        for _ in range(protocol.max_utterances):
            agent = agents[speaker]
            if _plays_in_lockstep(agent):
                yield from agent.utter(agents[listener] if paired else None)
            tokens, wants_selection = agent.act()
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
            speaker, listener = listener, speaker
        transcript.forced = not ended_by_selection
        # what each heard, fed before it selects: a pair's in the same
        # ticks, the longer queue waited on and the other fed alongside
        queued = [agent.state for agent in agents.values() if isinstance(agent, ModelAgent) and agent.state.queue]
        if paired and len(queued) == 2:
            queued.sort(key=lambda state: len(state.queue))
            yield queued[1], None, queued[0]
        else:
            for state in queued:
                yield state, None, None
        picks = {}
        for role, agent in agents.items():
            entity = int(agent.select())
            if entity not in scenario.view(role).visible:
                raise GameAbortedError(f"agent {role} selected entity {entity} outside its view")
            picks[role] = entity
    except Exception as exc:  # surface agent bugs with game context
        return GameTranscript(
            scenario_id=scenario.id, num_shared=scenario.num_shared, seed=protocol.seed, aborted=True,
            abort_message=str(exc) if isinstance(exc, GameAbortedError)
            else f"game on scenario {scenario.id} failed: {exc!r}",
        )
    transcript.selections = picks
    transcript.success = picks["A"] == picks["B"]
    if all(isinstance(agent, ModelAgent) and agent.keep_states for agent in agents.values()):
        transcript.states = {role: agent.state for role, agent in agents.items()}
    return transcript


def run_game(
    agent_a: Agent | Sequence[Agent],
    agent_b: Agent | Sequence[Agent],
    scenario: Scenario | Sequence[Scenario],
    protocol: ProtocolConfig,
    rng: np.random.Generator | Sequence[np.random.Generator],
):
    """Play one game, deterministic given the rng state, and return its
    transcript.  A failed game is not an exception: an exception from any
    agent call ends the game, which comes back as an aborted transcript
    whose ``abort_message`` says what failed.

    Given equal-length lists of agents, scenarios and rngs, plays those
    games in lockstep and returns their transcripts in order: every live
    game's decoders advance in one GRU step and one DIAL head call per
    model per tick, and an aborted game leaves the others to go on."""
    one = isinstance(scenario, Scenario)
    if one:
        games = [(agent_a, agent_b, scenario, rng)]
    elif len(agent_a) == len(agent_b) == len(scenario) == len(rng):
        games = list(zip(agent_a, agent_b, scenario, rng))
    else:
        raise ValueError("run_game needs as many agents of each role and rngs as scenarios")
    transcripts = _lockstep([_game(a, b, s, protocol, r) for a, b, s, r in games])
    return transcripts[0] if one else transcripts


@dataclass
class BatchResult:
    """The transcripts of a batch, in scenario order.  Per shared count, in
    order of first appearance, they give the ``games`` played, ``aborted``
    among them, and the ``successes`` and success ``rates`` of the games
    that finished (a count whose games all aborted has no rate)."""

    transcripts: list[GameTranscript]

    def _count(self, counted) -> dict[int, int]:
        counts: dict[int, int] = {}
        for t in self.transcripts:
            counts[t.num_shared] = counts.get(t.num_shared, 0) + int(counted(t))
        return counts

    games = property(lambda self: self._count(lambda t: True))
    successes = property(lambda self: self._count(lambda t: t.success))
    aborted = property(lambda self: self._count(lambda t: t.aborted))

    @property
    def rates(self) -> dict[int, float]:
        games, successes, aborted = self.games, self.successes, self.aborted
        return {k: successes[k] / (games[k] - aborted[k]) for k in games if games[k] > aborted[k]}

    def summary_csv(self) -> str:
        games, successes, rates = self.games, self.successes, self.rates
        return csv_text(
            ("num_shared", "games", "successes", "success_rate"),
            ((k, games[k], successes[k], f"{rates[k]:.4f}") for k in sorted(rates)),
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
            "aborted_games": len(self.transcripts) - len(done),
            "success_rate": {str(k): rate for k, rate in sorted(self.rates.items())},
            "forced_rate": mean([t.forced for t in done]),
            "utterances_per_game": mean([len(t.messages) for t in done]),
            "tokens_per_game": mean(tokens),
            "seconds": seconds,
            "games_per_s": len(self.transcripts) / seconds,
            "tokens_per_s": sum(tokens) / seconds,
        }

    def corpus(self, scenarios: Sequence[Scenario]) -> AnnotatedCorpus:
        """The games ``run_batch`` annotated, the i-th played on ``scenarios[i]``, as a corpus:
        their scenarios, a dialogue per game (id ``GAME_ID`` of i), the tagger's markables and,
        per markable, one ``speaker-model`` judgement holding the speaker's REF prediction."""
        games = [(GAME_ID.format(i), t, s) for i, (t, s) in enumerate(zip(self.transcripts, scenarios))
                 if t.markables is not None]
        return AnnotatedCorpus.build(
            list({s.id: s for _, _, s in games}.values()),
            [t.to_dialogue(game) for game, t, _ in games],
            [m for _, t, _ in games for m in t.markables],
            [ReferentJudgement(m.id, "speaker-model", frozenset(t.predicted_referents[m.id]))
             for _, t, _ in games for m in t.markables],
        )


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
    markables and predictions on the transcript.

    A perspective whose player was a state-keeping ``ModelAgent`` of
    ``model`` reads its REF rows from the states that player's decoder
    stepped to in play, held on the transcript, whose token ids must equal
    the dialogue's stream through the last message's ``<eou>`` (else
    ValueError); every other perspective runs the model's GRU over the
    dialogue.  The transcript's states are dropped either way.  An aborted
    game has no dialogue and raises ValueError."""
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
    played, transcript.states = transcript.states or {}, None
    heard = sum(len(m["tokens"]) + 2 for m in transcript.messages)  # prefix, tokens, <eou>
    for ex in examples:
        own = played.get(ex.perspective)
        if own is None or own.model is not model:
            continue
        log = own.log[:heard]
        if [token for token, _ in log] != ex.tokens[:heard].tolist():
            raise ValueError(f"player {ex.perspective}'s states on scenario {transcript.scenario_id} "
                             "were not stepped over this transcript's messages")
        ex.states = np.array([row for _, row in log])
    predictions: dict[str, frozenset[int]] = {}
    for ex, probs in zip(examples, model.ref_probs_at(examples)):
        for mid, row in zip(ex.markable_ids, probs >= REF_THRESHOLD):
            predictions[mid] = frozenset(e for e, hit in zip(ex.entity_ids, row) if hit)
    transcript.predicted_referents = {k: sorted(v) for k, v in predictions.items()}
    transcript.markables = markables
    return dialogue, markables, predictions


def _play_slice(games: slice, *batch) -> list[GameTranscript]:
    """The ``games`` of a ``run_batch`` (given its arguments, else a pool
    worker's) in lockstep, each with a fresh agent pair; with a tagger,
    then each finished game annotated from its own agents' decoder rows
    and numbered by its place in the batch."""
    agent_factory, scenarios, protocol, streams, tagger = batch or _pool_batch
    scenarios, streams = scenarios[games], streams[games]
    agents_a = [agent_factory() for _ in scenarios]
    transcripts = run_game(
        agents_a, [agent_factory() for _ in scenarios],
        scenarios, protocol, [np.random.default_rng(stream) for stream in streams],
    )
    if tagger is not None:
        for i, (t, scenario, agent_a) in enumerate(zip(transcripts, scenarios, agents_a), games.start):
            if not t.aborted:
                annotate_transcript(t, scenario, agent_a.model, tagger, dialogue_id=GAME_ID.format(i))
    return transcripts


def _openblas_function(*symbols):
    """The first of ``symbols`` that an OpenBLAS mapped into this process
    exports, as a ctypes function, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


_pool_batch: tuple = ()  # run_batch arguments, set by _start_worker in pool workers only


def _start_worker(*batch) -> None:
    """Pool initializer: keep the run_batch arguments, sent once per worker
    (under fork, not pickled at all), and run OpenBLAS on one thread, so
    that workers do not crowd the CPUs; with no setter found, BLAS is left
    as it is."""
    import ctypes

    global _pool_batch
    _pool_batch = batch
    set_threads = _openblas_function(
        "scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads"
    )
    if set_threads is not None:
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)


def run_batch(
    agent_factory: Callable[[], Agent],
    scenarios: Iterable[Scenario],
    protocol: ProtocolConfig,
    jobs: int = 1,
    tagger=None,
) -> BatchResult:
    """Play every scenario with a fresh agent pair, in lockstep slices of
    ``GAMES_CHUNK`` games.  Per-game rng streams are spawned from
    protocol.seed by scenario order and results are reduced in that order,
    so rates and transcripts do not depend on scheduling.  A game's rows
    may round differently beside other rows in a GEMM, so slicing can
    move its probabilities by rounding, which flips a draw only when it
    falls within that distance of a cdf step.  A game that fails comes
    back as an aborted transcript and the batch goes on.
    ``agent_factory`` is any zero-argument callable that returns a fresh
    agent: a scripted agent function, or
    ``functools.partial(ModelAgent, model, temperature=..., max_tokens=...)``
    over a loaded model.  With a ``tagger``, each slice annotates its
    finished ``ModelAgent`` games (``annotate_transcript``, dialogue ids
    ``game00000`` on) from the rows its own agents kept, so no transcript
    comes back holding rows.  ``jobs`` > 1 plays the slices on a process
    pool whose workers get these arguments once and one BLAS thread."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    scenario_list = list(scenarios)
    batch = (agent_factory, scenario_list, protocol,
             np.random.SeedSequence(protocol.seed).spawn(len(scenario_list)), tagger)
    slices = [slice(lo, lo + GAMES_CHUNK) for lo in range(0, len(scenario_list), GAMES_CHUNK)]
    if jobs > 1 and len(slices) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs, initializer=_start_worker, initargs=batch) as pool:
            parts = list(pool.map(_play_slice, slices))
    else:
        parts = [_play_slice(games, *batch) for games in slices]
    return BatchResult([t for part in parts for t in part])
