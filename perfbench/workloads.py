"""The benchmark's workloads over refgame's four single-machine batch jobs.

Each workload builds its inputs from the run seed with ``refgame.synth`` and
``refgame.scenario`` in ``setup``, then ``run_pass`` makes one closed-loop
pass: it times calls into public entry points, one after another in this
process, and checks what they returned.  Checks run outside the timed
calls.  README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import fmean

import numpy as np

from refgame import agreement, corpus, model, scenario, selfplay, synth, tagger

SHARED = (4, 5, 6)
KDE_ADJECTIVES = ("dark", "gray", "light")
# synthetic dialogues behind the selfplay vocabulary (43 words + 5 control tokens)
VOCAB_DIALOGUES = 30


@dataclass(frozen=True)
class Sizes:
    train_dialogues: int
    train_epochs: int           # timed train_model
    check_epochs: int           # untimed train_model behind the loss check
    games_per_k: int            # model games per shared count per pass
    scripted_per_k: int         # scripted games per shared count per pass
    replays: int                # games replayed one at a time in the final check
    tagger_dialogues: int
    tagger_epochs: int          # timed train_tagger
    tagger_check_epochs: int    # untimed train_tagger behind the accuracy check
    heldout_dialogues: int
    corpus_dialogues: int
    model: dict = field(default_factory=dict)    # ModelConfig overrides
    tagger: dict = field(default_factory=dict)   # TaggerConfig overrides


# Paper dimensions: every config field the workload does not name is at its
# default (ModelConfig: 256-d, dropout 0.5, batch 16; TaggerConfig: 64/128-d).
PAPER = Sizes(
    train_dialogues=40, train_epochs=1, check_epochs=3,
    games_per_k=10, scripted_per_k=200, replays=3,
    tagger_dialogues=120, tagger_epochs=1, tagger_check_epochs=5, heldout_dialogues=100,
    corpus_dialogues=500,
)

# Toy dimensions for the self-test: same code paths, a few seconds in all.
TINY = Sizes(
    train_dialogues=10, train_epochs=1, check_epochs=2,
    games_per_k=1, scripted_per_k=5, replays=1,
    tagger_dialogues=30, tagger_epochs=1, tagger_check_epochs=4, heldout_dialogues=10,
    corpus_dialogues=20,
    model=dict(embed_dim=16, hidden_dim=16, attr_dim=8, rel_dim=8, attn_dim=16, mlp_dim=16),
    tagger=dict(embed_dim=16, hidden_dim=16, lr=1e-2, batch_size=8),
)

SIZES = {"paper": PAPER, "tiny": TINY}


def derive_seed(seed: int, *path: int) -> int:
    """A 32-bit seed for one input stream of the run seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


class Ops:
    """Operations attempted and the ones that failed a check or raised."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, label: str, problems) -> None:
        self.attempted += 1
        problems = [p for p in problems if p]
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems[:5]))

    def fail(self, label: str, message: str) -> None:
        self.attempted += 1
        self.failures.append(f"{label}: {message}")


@dataclass
class PassOut:
    rates: dict[str, float]      # end-to-end metrics of this pass
    items: float                 # work units behind the headline rate
    counts: dict[str, float]     # exact counts, equal at equal seed
    outputs: object              # JSON-able results; traced and untraced must match
    seconds: dict[str, float] = field(default_factory=dict)   # timed phases
    digest: str = ""             # sha256 of the outputs


def outputs_digest(outputs) -> str:
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _history(records: list[dict]) -> list[dict]:
    """Training history without its wall-clock field."""
    return [{k: v for k, v in rec.items() if k != "seconds"} for rec in records]


def _finite(records: list[dict], keys) -> list[str]:
    return [
        f"epoch {rec['epoch']}: {key}={rec[key]!r}"
        for rec in records for key in keys if not math.isfinite(rec[key])
    ]


class Workload:
    name = ""
    headline = ""          # the rate reported as items_per_s
    rates = ()             # every end-to-end rate the workload reports
    fixed_inputs = True    # every pass sees the same inputs

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, k: int, phase, ops: Ops, first: bool) -> PassOut:
        raise NotImplementedError

    def final_checks(self, ops: Ops) -> None:
        pass

    def describe(self) -> dict:
        return {"sizes": asdict(self.sizes)}


class _SignalRecorder:
    """Passes every call through to an agent and notes whether any of its
    utterances signalled selection."""

    def __init__(self, agent):
        self.agent = agent
        self.signalled = False

    def reset(self, scenario_, role, rng):
        self.agent.reset(scenario_, role, rng)

    def observe(self, speaker_is_self, tokens):
        self.agent.observe(speaker_is_self, tokens)

    def act(self):
        tokens, wants_selection = self.agent.act()
        self.signalled |= wants_selection
        return tokens, wants_selection

    def select(self):
        return self.agent.select()


def _game_problems(t: dict, scen, protocol) -> list[str]:
    problems = []
    for role in ("A", "B"):
        if t["selections"].get(role) not in scen.view(role).visible:
            problems.append(f"{role} selected {t['selections'].get(role)} outside its view")
    if len(t["messages"]) > protocol.max_utterances:
        problems.append(f"{len(t['messages'])} utterances over the cap")
    for m in t["messages"]:
        if not 0 < len(m["tokens"]) <= protocol.max_tokens_per_utterance:
            problems.append(f"utterance of {len(m['tokens'])} tokens")
        if {model.YOU, model.THEM} & set(m["tokens"]):
            problems.append("speaker prefix emitted as a token")
    if t["success"] != (t["selections"]["A"] == t["selections"]["B"]):
        problems.append("success disagrees with the selections")
    return problems


def _annotation_problems(t: dict, scen, markables, predictions) -> list[str]:
    problems = []
    messages = t["messages"]
    for m in markables:
        if not 0 <= m.utterance_index < len(messages):
            problems.append(f"{m.id}: no utterance {m.utterance_index}")
            continue
        msg = messages[m.utterance_index]
        if not 0 <= m.start_token < m.end_token <= len(msg["tokens"]):
            problems.append(f"{m.id}: span ({m.start_token}, {m.end_token}) outside utterance")
        if m.speaker != msg["speaker"]:
            problems.append(f"{m.id}: speaker {m.speaker} did not say utterance")
    if set(predictions) != {m.id for m in markables}:
        problems.append("predictions do not cover the markables")
    speaker = {m.id: m.speaker for m in markables}
    for mid, refs in predictions.items():
        if mid in speaker and not refs <= set(scen.view(speaker[mid]).visible):
            problems.append(f"{mid}: referent outside the speaker's view")
    return problems


class Selfplay(Workload):
    """Model selfplay, transcript annotation, and scripted selfplay."""

    name = "selfplay"
    headline = "selfplay_tokens_per_s"
    rates = ("selfplay_games_per_s", headline, "annotate_games_per_s", "scripted_games_per_s")
    # each pass plays fresh scenarios, so a run averages over many games
    fixed_inputs = False

    def setup(self) -> None:
        # The agents are fixed across run seeds, as a released checkpoint
        # would be: their weights set how long games run, and so the cost
        # per token.  The run seed picks the scenarios and sampling streams.
        s = self.sizes
        words = synth.make_synthetic_corpus(VOCAB_DIALOGUES, seed=0)
        vocab = model.Vocabulary.from_corpus(words, sorted(words.dialogues))
        built = model.GroundingModel(model.ModelConfig(**s.model), vocab)
        prefix = self.workdir / "selfplay_model"
        built.save(prefix)
        self.model = model.GroundingModel.load(prefix)
        self.tagger = tagger.MarkableTagger(tagger.TaggerConfig(**s.tagger), vocab)
        self.scenario_config = scenario.ScenarioConfig()
        # warm-up: one short game, the same for every seed
        warm = scenario.generate_scenarios(self.scenario_config, {4: 1}, seed=0)
        protocol = selfplay.ProtocolConfig(max_utterances=2)
        batch = selfplay.run_batch(self._agent_factory(protocol), warm, protocol, jobs=1)
        selfplay.annotate_transcript(batch.transcripts[0], warm[0], self.model, self.tagger)
        self.replay_source = None

    def _agent_factory(self, protocol):
        return functools.partial(
            selfplay.ModelAgent, self.model,
            temperature=protocol.temperature, max_tokens=protocol.max_tokens_per_utterance,
        )

    def run_pass(self, k, phase, ops, first):
        s = self.sizes
        play_seed = derive_seed(self.seed, k, 0)
        protocol = selfplay.ProtocolConfig(seed=play_seed)
        with phase("play"):
            scenarios = scenario.generate_scenarios(
                self.scenario_config, {n: s.games_per_k for n in SHARED}, seed=play_seed
            )
            batch = selfplay.run_batch(self._agent_factory(protocol), scenarios, protocol, jobs=1)
        played = [t.to_dict() for t in batch.transcripts]
        with phase("annotate"):
            annotated = [
                selfplay.annotate_transcript(t, scen, self.model, self.tagger,
                                             dialogue_id=f"g{i:04d}")
                for i, (t, scen) in enumerate(zip(batch.transcripts, scenarios))
            ]
        scripted_seed = derive_seed(self.seed, k, 1)
        with phase("scripted"):
            scripted_scenarios = scenario.generate_scenarios(
                self.scenario_config, {n: s.scripted_per_k for n in SHARED}, seed=scripted_seed
            )
            scripted = selfplay.run_batch(
                selfplay.darkest_agent, scripted_scenarios,
                selfplay.ProtocolConfig(seed=scripted_seed), jobs=1,
            )

        for i, (t, scen) in enumerate(zip(played, scenarios)):
            ops.check(f"pass {k} game {i}", _game_problems(t, scen, protocol))
        for i, ((_, marks, preds), t, scen) in enumerate(zip(annotated, played, scenarios)):
            ops.check(f"pass {k} annotation {i}", _annotation_problems(t, scen, marks, preds))
        scripted_problems = [] if scripted.games == {n: s.scripted_per_k for n in SHARED} \
            else [f"games per shared count {scripted.games}"]
        for t, scen in zip(scripted.transcripts, scripted_scenarios):
            scripted_problems += _game_problems(t.to_dict(), scen, selfplay.ProtocolConfig())
        ops.check(f"pass {k} scripted batch", scripted_problems)
        if first:
            self.replay_source = (scenarios, protocol, played)

        games = len(played)
        tokens = sum(len(m["tokens"]) for t in played for m in t["messages"])
        seconds = phase.seconds
        return PassOut(
            rates={
                "selfplay_games_per_s": games / seconds["play"],
                "selfplay_tokens_per_s": tokens / seconds["play"],
                "annotate_games_per_s": games / seconds["annotate"],
                "scripted_games_per_s": len(scripted_scenarios) / seconds["scripted"],
            },
            items=tokens,
            counts={
                "selfplay.tokens_emitted": tokens,
                "selfplay.utterances_per_game": sum(len(t["messages"]) for t in played) / games,
                "selfplay.forced_share": sum(t["forced"] for t in played) / games,
                "annotate.markables": sum(len(marks) for _, marks, _ in annotated),
            },
            outputs={
                "transcripts": [t.to_dict() for t in batch.transcripts],
                "markables": [
                    [[m.id, m.utterance_index, m.start_token, m.end_token] for m in marks]
                    for _, marks, _ in annotated
                ],
                "scripted": [[t.selections["A"], t.selections["B"]] for t in scripted.transcripts],
            },
        )

    def final_checks(self, ops):
        """Replay the first games of the first pass one at a time."""
        if self.replay_source is None:
            return
        scenarios, protocol, played = self.replay_source
        streams = np.random.SeedSequence(protocol.seed).spawn(len(scenarios))
        factory = self._agent_factory(protocol)
        for i in range(min(self.sizes.replays, len(scenarios))):
            a, b = _SignalRecorder(factory()), _SignalRecorder(factory())
            t = selfplay.run_game(a, b, scenarios[i], protocol, np.random.default_rng(streams[i]))
            problems = []
            if t.to_dict() != played[i]:
                problems.append("replayed transcript differs from the batch")
            if t.forced == (a.signalled or b.signalled):
                problems.append(f"forced={t.forced} but selection signalled={a.signalled or b.signalled}")
            ops.check(f"replay game {i}", problems)

    def describe(self):
        return {**super().describe(), "dtype": self.model.config.dtype,
                "protocol": asdict(selfplay.ProtocolConfig()),
                "vocab_size": len(self.model.vocab)}


def _path_problems(path) -> list[str]:
    problems = []
    if path and path[0] == tagger.I:
        problems.append("decoded path starts with I")
    if any(a == tagger.O and b == tagger.I for a, b in zip(path, path[1:])):
        problems.append("decoded path puts I after O")
    return problems


class Train(Workload):
    """The two training jobs: train_model at paper size, then train_tagger
    and predict_markables at the tagger's default size.

    The timed trainings are short, so a run holds several passes.  The
    loss and accuracy checks need longer training on the same inputs; the
    final checks run it once, untimed.  The loss check validates on the
    valid and test dialogues together: on the 4 valid dialogues alone, the
    target-selection head's early overfitting can lift the total validation
    loss above the untrained model's (seed 825)."""

    name = "train"
    headline = "train_examples_per_s"
    rates = (headline, "tagger_train_utts_per_s", "tagger_decode_utts_per_s")
    min_accuracy = 0.97   # the acceptance suite's held-out tagger floor

    def setup(self) -> None:
        s = self.sizes
        self.corpus = synth.make_synthetic_corpus(s.train_dialogues, seed=self.seed)
        self.split = corpus.split_dataset(self.corpus, seed=self.seed)
        self.gold = agreement.aggregate_corpus_gold(self.corpus)
        self.config = model.ModelConfig(epochs=s.train_epochs, **s.model)
        self.check_config = model.ModelConfig(epochs=s.check_epochs, **s.model)
        self.check_split = corpus.Split(self.split.train, self.split.valid + self.split.test,
                                        (), self.split.seed)
        vocab = model.Vocabulary.from_corpus(self.corpus, self.split.train)
        untrained = model.GroundingModel(self.config, vocab)
        valid = model.build_examples(self.corpus, self.check_split.valid, vocab, self.gold)
        self.untrained_valid_loss = fmean(untrained.run_example(ex)["total"] for ex in valid)
        warm = model.build_examples(self.corpus, self.split.train[:1], vocab, self.gold)[0]
        untrained.run_example(warm, train=True, rng=np.random.default_rng(0), backward=True)

        self.tag_corpus = synth.make_synthetic_corpus(
            s.tagger_dialogues, seed=derive_seed(self.seed, 0, 3)
        )
        self.tag_split = corpus.split_dataset(self.tag_corpus, seed=self.seed)
        self.heldout = synth.make_synthetic_corpus(
            s.heldout_dialogues, seed=derive_seed(self.seed, 0, 2)
        )
        self.tag_config = tagger.TaggerConfig(epochs=s.tagger_epochs, **s.tagger)
        self.tag_check_config = tagger.TaggerConfig(epochs=s.tagger_check_epochs, **s.tagger)
        tag_vocab = model.Vocabulary.from_corpus(self.tag_corpus, self.tag_split.train)
        tag_ex = tagger.build_tag_examples(self.tag_corpus, self.tag_split.train, tag_vocab)
        self.train_utts = len(tag_ex)
        self.heldout_utts = sum(
            1 for d in self.heldout.dialogues.values() for m in d.messages if m.tokens
        )
        tagger.MarkableTagger(self.tag_config, tag_vocab).nll(tag_ex[0], backward=True)

    def run_pass(self, k, phase, ops, first):
        with phase("train_model"):
            result = model.train_model(self.config, self.corpus, self.split, self.gold)
        with phase("train_tagger"):
            tagged = tagger.train_tagger(self.tag_corpus, self.tag_split, self.tag_config)
        with phase("predict"):
            marks = tagger.predict_markables(tagged.tagger, self.heldout)

        ops.check(f"pass {k} train_model", _finite(result.history, ("train_loss", "valid_loss")))
        ops.check(f"pass {k} train_tagger", _finite(tagged.history, ("train_nll",)))
        if first:
            self._check_markables(tagged.tagger, marks, ops)
        examples = 2 * len(self.split.train) * len(result.history)
        utts = self.train_utts * len(tagged.history)
        seconds = phase.seconds
        return PassOut(
            rates={
                self.headline: examples / seconds["train_model"],
                "tagger_train_utts_per_s": utts / seconds["train_tagger"],
                "tagger_decode_utts_per_s": self.heldout_utts / seconds["predict"],
            },
            items=examples,
            counts={},
            outputs={
                "history": _history(result.history),
                "best_epoch": result.best_epoch,
                "tagger_history": _history(tagged.history),
                "tagger_best_epoch": tagged.best_epoch,
                "markables": [[m.id, m.utterance_index, m.start_token, m.end_token] for m in marks],
            },
        )

    def _check_markables(self, trained, marks, ops):
        """Spans inside their utterances, and decoded paths that never put I
        first or I after O."""
        problems = []
        for m in marks:
            tokens = self.heldout.dialogues[m.dialogue_id].messages[m.utterance_index].tokens
            if not 0 <= m.start_token < m.end_token <= len(tokens):
                problems.append(f"{m.id}: span outside its utterance")
        for ex in self._heldout_examples(trained):
            problems += _path_problems(trained.decode(ex.tokens))
        ops.check("predict_markables", problems)

    def _heldout_examples(self, trained):
        return tagger.build_tag_examples(
            self.heldout, sorted(self.heldout.dialogues), trained.vocab
        )

    def final_checks(self, ops):
        """Train longer on the same inputs, untimed: the model must beat its
        untrained validation loss, the tagger the held-out accuracy floor."""
        result = model.train_model(self.check_config, self.corpus, self.check_split, self.gold)
        best = result.history[result.best_epoch]["valid_loss"]
        ops.check("train_model validation loss", [] if best < self.untrained_valid_loss else [
            f"valid loss {best:.6f} not below untrained {self.untrained_valid_loss:.6f}"
        ])
        trained = tagger.train_tagger(self.tag_corpus, self.tag_split, self.tag_check_config).tagger
        hits = total = 0
        problems = []
        for ex in self._heldout_examples(trained):
            path = trained.decode(ex.tokens)
            problems += _path_problems(path)
            hits += int(np.sum(np.asarray(path) == ex.tags))
            total += len(ex.tags)
        if hits / total < self.min_accuracy:
            problems.append(f"held-out token accuracy {hits / total:.4f} < {self.min_accuracy}")
        ops.check("tagger held-out accuracy", problems)

    def describe(self):
        return {**super().describe(), "dtype": self.config.dtype,
                "tagger_dtype": self.tag_config.dtype,
                "examples_per_epoch": 2 * len(self.split.train),
                "tagger_train_utterances": self.train_utts,
                "heldout_utterances": self.heldout_utts}


class Corpus(Workload):
    """Save, load and analyse a synthetic corpus."""

    name = "corpus"
    headline = "corpus_analyze_dialogues_per_s"
    rates = ("corpus_save_dialogues_per_s", "corpus_load_dialogues_per_s", headline)

    def setup(self) -> None:
        self.corpus = synth.make_synthetic_corpus(self.sizes.corpus_dialogues, seed=self.seed)
        self.directory = self.workdir / "corpus"

    def run_pass(self, k, phase, ops, first):
        with phase("save"):
            corpus.save_corpus(self.corpus, self.directory)
        with phase("load"):
            loaded = corpus.load_corpus(self.directory)
        with phase("analyze"):
            stats = corpus.corpus_stats(loaded)
            gold = agreement.aggregate_corpus_gold(loaded)
            report = agreement.referent_agreement(loaded)
            by_count = agreement.agreement_by_referent_count(loaded)
            correlation = agreement.token_exact_match_correlation(loaded)
            kdes = agreement.color_kde(loaded, KDE_ADJECTIVES, gold)
            grids = {adj: kde.grid() for adj, kde in kdes.items()}
            split = corpus.split_dataset(loaded, seed=self.seed)
        if first:
            self._check(loaded, stats, report, split, ops)
        n = len(self.corpus.dialogues)
        seconds = phase.seconds
        written = sum((self.directory / name).stat().st_size for name in corpus.FILES)
        return PassOut(
            rates={
                "corpus_save_dialogues_per_s": n / seconds["save"],
                "corpus_load_dialogues_per_s": n / seconds["load"],
                "corpus_analyze_dialogues_per_s": n / seconds["analyze"],
            },
            items=n,
            counts={"corpus.bytes_written": written},
            outputs={
                "stats": stats.to_dict(),
                "gold": {mid: [sorted(g.referents), g.dropped] for mid, g in sorted(gold.items())},
                "referent_agreement": report.to_dict(),
                "by_count": [asdict(row) for row in by_count],
                "correlation": correlation,
                "kde": {adj: [kdes[adj].bandwidth, x.tolist(), d.tolist()]
                        for adj, (x, d) in grids.items()},
                "split": split.to_dict(),
            },
        )

    def _check(self, loaded, stats, report, split, ops):
        c = self.corpus
        ops.check("load_corpus round trip", [
            f"{what} differ" for what, a, b in (
                ("scenarios", loaded.scenarios, c.scenarios),
                ("dialogues", loaded.dialogues, c.dialogues),
                ("markables", loaded.markables, c.markables),
                ("judgements", loaded.judgements, c.judgements),
            ) if a != b
        ])
        tokens = [tok for d in c.dialogues.values() for m in d.messages for tok in m.tokens]
        expected = {
            "n_scenarios": len({d.scenario_id for d in c.dialogues.values()}),
            "n_dialogues": len(c.dialogues),
            "n_markables": sum(not m.generic for m in c.markables.values()),
            "n_generic": sum(m.generic for m in c.markables.values()),
            "n_judgements": sum(len(js) for js in c.judgements.values()),
            "n_tokens": len(tokens),
            "vocab_size": len(set(tokens)),
        }
        got = stats.to_dict()
        ops.check("corpus_stats", [
            f"{key}={got[key]} expected {value}" for key, value in expected.items()
            if got[key] != value
        ])
        n = len(c.dialogues)
        parts = (split.train, split.valid, split.test)
        problems = []
        if set().union(*parts) != set(c.dialogues) or sum(map(len, parts)) != n:
            problems.append("split is not a disjoint cover of the dialogues")
        if tuple(map(len, parts)) != (n - 2 * (n // 10), n // 10, n // 10):
            problems.append(f"split sizes {tuple(map(len, parts))} are not 8:1:1")
        ops.check("split_dataset", problems)
        ops.check("referent_agreement",
                  [] if -1.0 <= report.multi_pi <= 1.0 else [f"multi-pi {report.multi_pi}"])


WORKLOADS = {cls.name: cls for cls in (Train, Selfplay, Corpus)}
