"""Command-line interface: every batch workflow of the laboratory.

Subcommands: generate, import, validate, stats, agreement, aggregate,
split, train, evaluate, tag, selfplay, render, report.  All outputs
are written atomically; failures print a machine-readable JSON error to
stderr and exit nonzero.  The data root may also be supplied via the
REFGAME_DATA environment variable."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from . import __version__
from .errors import RefgameError
from .io import atomic_write_json, atomic_write_text, read_json


def _data_dir(args) -> Path:
    data = getattr(args, "data", None) or os.environ.get("REFGAME_DATA")
    if not data:
        raise RefgameError("no data directory: pass --data or set REFGAME_DATA")
    return Path(data)


def _scenario_config(args):
    from .config import load_config, typed
    from .scenario import ScenarioConfig

    values = load_config(args.config) if getattr(args, "config", None) else {}
    kwargs = {}
    for key, cast in (
        ("world_min", float), ("world_max", float), ("view_radius", float),
        ("size_min", float), ("size_max", float), ("min_separation", float),
        ("max_attempts", int),
    ):
        v = typed(values, f"scenario.{key}", cast, None)
        if v is not None:
            kwargs[key] = v
    distances = {}
    for k in (4, 5, 6):
        v = typed(values, f"scenario.center_distance_{k}", float, None)
        if v is not None:
            distances[k] = v
    if distances:
        base = ScenarioConfig().center_distance
        base.update(distances)
        kwargs["center_distance"] = base
    return ScenarioConfig(**kwargs)


def cmd_generate(args) -> int:
    from .scenario import generate_scenarios, save_scenarios

    shared = [int(s) for s in args.shared.split(",")]
    config = _scenario_config(args)
    scenarios = generate_scenarios(config, {k: args.count for k in shared}, seed=args.seed)
    save_scenarios(scenarios, args.out)
    print(f"wrote {len(scenarios)} scenarios to {args.out}")
    return 0


def cmd_import(args) -> int:
    from .corpus import save_corpus
    from .importer import import_bundle

    field_map = read_json(args.field_map) if args.field_map else None
    corpus = import_bundle(args.src, field_map=field_map)
    save_corpus(corpus, args.out)
    print(f"imported {len(corpus.dialogues)} dialogues, {len(corpus.markables)} markables -> {args.out}")
    return 0


def cmd_validate(args) -> int:
    from .corpus import corpus_stats, load_corpus

    corpus = load_corpus(_data_dir(args))
    stats = corpus_stats(corpus)
    print(json.dumps({"ok": True, "dialogues": stats.n_dialogues, "markables": stats.n_markables}))
    return 0


def cmd_stats(args) -> int:
    from .corpus import corpus_stats, load_corpus

    corpus = load_corpus(_data_dir(args))
    stats = corpus_stats(corpus)
    print(stats.table())
    if args.out:
        atomic_write_json(args.out, stats.to_dict())
    return 0


def cmd_agreement(args) -> int:
    from .agreement import (
        agreement_by_referent_count,
        aggregate_corpus_gold,
        color_kde,
        referent_agreement,
        token_exact_match_correlation,
    )
    from .corpus import load_corpus

    corpus = load_corpus(_data_dir(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    report = referent_agreement(corpus)
    atomic_write_json(out / "agreement.json", report.to_dict())

    rows = agreement_by_referent_count(corpus)
    lines = ["# Referents,% Agreement,% Exact,% Judgements"]
    for r in rows:
        lines.append(
            f"{r.n_referents},{100 * r.agreement:.2f},{100 * r.exact_match:.2f},{r.pct_judgements:.2f}"
        )
    atomic_write_text(out / "by_referent_count.csv", "\n".join(lines) + "\n")

    corr = token_exact_match_correlation(corpus, min_count=args.min_count)
    lines = ["token,rho,count"]
    for tok, (rho, count) in sorted(corr.items(), key=lambda kv: kv[1][0]):
        lines.append(f"{tok},{rho:.4f},{count}")
    atomic_write_text(out / "token_correlation.csv", "\n".join(lines) + "\n")

    adjectives = [a for a in args.adjectives.split(",") if a]
    gold = aggregate_corpus_gold(corpus)
    for adj in adjectives:
        try:
            kde = color_kde(corpus, [adj], gold=gold)[adj]
        except ValueError:
            continue
        xs, ds = kde.grid(0.0, 256.0, 512)
        lines = ["color,density"]
        lines += [f"{x:.4f},{d:.8f}" for x, d in zip(xs, ds)]
        atomic_write_text(out / f"kde_{adj}.csv", "\n".join(lines) + "\n")
    print(f"agreement reports written to {out}")
    return 0


def cmd_aggregate(args) -> int:
    from .agreement import aggregate_corpus_gold
    from .corpus import load_corpus

    corpus = load_corpus(_data_dir(args))
    gold = aggregate_corpus_gold(corpus)
    atomic_write_json(
        args.out,
        {
            mid: {"referents": sorted(entry.referents), "dropped": entry.dropped}
            for mid, entry in sorted(gold.items())
        },
    )
    print(f"aggregated gold for {len(gold)} markables -> {args.out}")
    return 0


def cmd_split(args) -> int:
    from .corpus import load_corpus, split_dataset

    corpus = load_corpus(_data_dir(args))
    split = split_dataset(corpus, args.seed)
    atomic_write_json(args.out, split.to_dict())
    print(f"split {len(corpus.dialogues)} dialogues {len(split.train)}/{len(split.valid)}/{len(split.test)}")
    return 0


def _load_gold(path) -> dict:
    from .corpus import GoldEntry

    return {
        mid: GoldEntry(referents=frozenset(rec["referents"]), dropped=rec["dropped"])
        for mid, rec in read_json(path).items()
    }


# config fields that `train` flags set; ModelConfig and TaggerConfig hold the defaults
TRAIN_FLAGS = (
    "variant", "epochs", "seed", "lr", "batch_size", "dropout", "embed_dim", "hidden_dim",
    "attr_dim", "rel_dim", "attn_dim", "mlp_dim", "dtype",
)


def cmd_train(args) -> int:
    from dataclasses import fields

    from .corpus import Split, load_corpus
    from .agreement import aggregate_corpus_gold

    corpus = load_corpus(_data_dir(args))
    split = Split.from_dict(read_json(args.split))
    out = Path(args.out)
    given = {k: v for k in TRAIN_FLAGS if (v := getattr(args, k)) is not None}
    if args.task == "tagger":
        from .tagger import TaggerConfig, train_tagger

        model_only = sorted(set(given) - {f.name for f in fields(TaggerConfig)})
        if model_only:
            flags = ", ".join("--" + k.replace("_", "-") for k in model_only)
            raise RefgameError(f"--task tagger does not take {flags}")
        config = TaggerConfig(**given)
        result = train_tagger(corpus, split, config, log_path=out.with_suffix(".log.jsonl"), quiet=args.quiet)
        result.tagger.save(out)
        best = result.history[result.best_epoch]
        print(json.dumps({"task": "tagger", "best_epoch": result.best_epoch, **best}))
        return 0

    from .model import ModelConfig, train_model

    gold = _load_gold(args.gold) if args.gold else aggregate_corpus_gold(corpus)
    config = ModelConfig(**given)
    result = train_model(
        config, corpus, split, gold, log_path=out.with_suffix(".log.jsonl"), quiet=args.quiet
    )
    result.model.save(out, history=result.history)
    print(json.dumps({"task": "model", "variant": config.variant, "best_epoch": result.best_epoch}))
    return 0


def cmd_evaluate(args) -> int:
    from .agreement import aggregate_corpus_gold
    from .corpus import Split, load_corpus
    from .evaluation import evaluate_model
    from .model import GroundingModel

    corpus = load_corpus(_data_dir(args))
    split = Split.from_dict(read_json(args.split))
    model = GroundingModel.load(args.model)
    gold = _load_gold(args.gold) if args.gold else aggregate_corpus_gold(corpus)
    report = evaluate_model(model, corpus, split.test, gold)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_json(out / "report.json", report.to_dict())
    atomic_write_text(out / "grouped_by_referents.csv", report.grouped_csv())
    print(json.dumps({
        "Target Selection": report.tsel_accuracy,
        "Reference Resolution": report.ref_accuracy,
        "Exact Match": report.ref_exact_match,
        "Ref/TSEL Correlation": report.ref_tsel_correlation,
    }))
    return 0


def cmd_tag(args) -> int:
    from .corpus import dialogue_from_dict, markable_to_dict
    from .tagger import MarkableTagger, predict_markables

    tagger = MarkableTagger.load(args.model)
    dialogues = [dialogue_from_dict(d) for d in read_json(args.input)]
    markables = predict_markables(tagger, dialogues)
    atomic_write_json(args.out, [markable_to_dict(m) for m in markables])
    print(f"tagged {len(dialogues)} dialogues -> {len(markables)} markables")
    return 0


def cmd_selfplay(args) -> int:
    from .scenario import generate_scenarios
    from .selfplay import (
        CheckpointAgentFactory,
        ProtocolConfig,
        center_agent,
        darkest_agent,
        random_agent,
        run_batch,
    )

    shared = [int(s) for s in args.shared.split(",")]
    config = _scenario_config(args)
    scenarios = generate_scenarios(config, {k: args.games for k in shared}, seed=args.seed)
    protocol = ProtocolConfig(
        temperature=args.temperature,
        max_utterances=args.max_utterances,
        max_tokens_per_utterance=args.max_tokens,
        seed=args.seed,
    )
    if args.agent == "model":
        if not args.model:
            raise RefgameError("--agent model needs --model PREFIX")
        factory = CheckpointAgentFactory(
            args.model, temperature=args.temperature, max_tokens=args.max_tokens
        )
    elif args.agent == "random":
        factory = random_agent
    elif args.agent == "center":
        factory = center_agent
    elif args.agent == "darkest":
        factory = darkest_agent
    else:
        raise RefgameError(f"unknown agent {args.agent!r}")
    result = run_batch(factory, scenarios, protocol, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.tagger:
        if args.agent != "model":
            raise RefgameError("--tagger annotation needs --agent model")
        from .model import GroundingModel
        from .render import render_dialogue
        from .selfplay import annotate_transcript
        from .tagger import MarkableTagger

        model = GroundingModel.load(args.model)
        tagger = MarkableTagger.load(args.tagger)
        by_id = {s.id: s for s in scenarios}
        for i, transcript in enumerate(result.transcripts):
            scenario = by_id[transcript.scenario_id]
            dialogue, markables, refs = annotate_transcript(
                transcript, scenario, model, tagger, dialogue_id=f"game{i:05d}"
            )
            if i < args.render_games:
                html = render_dialogue(dialogue, scenario, markables, refs)
                atomic_write_text(out / f"game{i:05d}.html", html)
    atomic_write_text(out / "summary.csv", result.summary_csv())
    atomic_write_text(out / "transcripts.jsonl", result.transcripts_jsonl())
    print(result.summary_csv().strip())
    return 0


def cmd_render(args) -> int:
    from .corpus import load_corpus
    from .render import render_dialogue, render_judgements, render_view

    corpus = load_corpus(_data_dir(args))
    if args.dialogue:
        dialogue = corpus.dialogues[args.dialogue]
        scenario = corpus.scenarios[dialogue.scenario_id]
        markables = [
            corpus.markables[mid]
            for mid in corpus.markables_by_dialogue.get(args.dialogue, ())
        ]
        gold = _load_gold(args.gold) if args.gold else {}
        refs = {
            mid: entry.referents
            for mid, entry in gold.items()
            if not entry.dropped and mid in {m.id for m in markables}
        }
        html = render_dialogue(dialogue, scenario, markables, refs)
        atomic_write_text(args.out, html)
    elif args.markable:
        atomic_write_text(args.out, render_judgements(corpus, args.markable))
    elif args.scenario:
        scenario = corpus.scenarios[args.scenario]
        agent = args.agent_view or "A"
        atomic_write_text(
            args.out, render_view(scenario.view(agent), scenario, title=f"{agent}'s view")
        )
    else:
        raise RefgameError("render needs --scenario, --dialogue or --markable")
    print(f"wrote {args.out}")
    return 0


def cmd_report(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    index = []
    eval_reports = []
    for src in args.inputs:
        src = Path(src)
        files = sorted(p for p in src.rglob("*") if p.suffix in (".json", ".csv", ".svg", ".html", ".jsonl"))
        for p in files:
            dest = out / p.name
            shutil.copyfile(p, dest)
            index.append(p.name)
            if p.name == "report.json":
                record = read_json(p)
                if "variant" in record and "target_selection" in record:
                    eval_reports.append(record)
    if eval_reports:
        from .evaluation import summary_csv, summary_table

        summary = summary_table(eval_reports)
        atomic_write_json(out / "results_summary.json", summary)
        atomic_write_text(out / "results_summary.csv", summary_csv(summary))
        index.append("results_summary.json")
        index.append("results_summary.csv")
    atomic_write_json(out / "index.json", {"files": sorted(set(index)), "version": __version__})
    print(f"bundled {len(index)} files into {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refgame",
        description="Collaborative referring game laboratory",
    )
    parser.add_argument("--version", action="version", version=f"refgame {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate scenarios")
    p.add_argument("--shared", default="4,5,6")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("import", help="import a release bundle into the canonical schema")
    p.add_argument("--src", required=True)
    p.add_argument("--field-map")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_import)

    p = sub.add_parser("validate", help="load a corpus and check every invariant")
    p.add_argument("--data")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("stats", help="corpus statistics tables")
    p.add_argument("--data")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("agreement", help="agreement/disagreement/pragmatics reports")
    p.add_argument("--data")
    p.add_argument("--out", required=True)
    p.add_argument("--adjectives", default="black,dark,gray,grey,light,white")
    p.add_argument("--min-count", type=int, default=10)
    p.set_defaults(fn=cmd_agreement)

    p = sub.add_parser("aggregate", help="majority-vote gold referents")
    p.add_argument("--data")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_aggregate)

    p = sub.add_parser("split", help="deterministic 8:1:1 dialogue split")
    p.add_argument("--data")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser(
        "train", help="train a model or the markable tagger",
        description="Flags left out take the ModelConfig or TaggerConfig default.",
    )
    p.add_argument("--data")
    p.add_argument("--split", required=True)
    p.add_argument("--task", choices=("model", "tagger"), default="model")
    p.add_argument("--variant")
    p.add_argument("--gold", help="gold referents JSON (default: aggregate on the fly)")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--dropout", type=float)
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--hidden-dim", type=int)
    p.add_argument("--attr-dim", type=int)
    p.add_argument("--rel-dim", type=int)
    p.add_argument("--attn-dim", type=int)
    p.add_argument("--mlp-dim", type=int)
    p.add_argument("--dtype")
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a trained model on the test split")
    p.add_argument("--data")
    p.add_argument("--split", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--gold")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("tag", help="detect markables in dialogue JSON")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_tag)

    p = sub.add_parser("selfplay", help="play batches of referring games")
    p.add_argument("--agent", choices=("model", "random", "center", "darkest"), default="darkest")
    p.add_argument("--model")
    p.add_argument("--shared", default="4,5,6")
    p.add_argument("--games", type=int, default=100)
    p.add_argument("--temperature", type=float, default=0.25)
    p.add_argument("--max-utterances", type=int, default=20)
    p.add_argument("--max-tokens", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--tagger", help="annotate transcripts with detected markables and REF predictions")
    p.add_argument("--render-games", type=int, default=0,
                   help="with --tagger: write annotated HTML for the first N games")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_selfplay)

    p = sub.add_parser("render", help="render scenario views or annotated dialogues")
    p.add_argument("--data")
    p.add_argument("--scenario")
    p.add_argument("--agent-view", choices=("A", "B"))
    p.add_argument("--dialogue")
    p.add_argument("--markable")
    p.add_argument("--gold")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("report", help="bundle generated reports into one directory")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (RefgameError, FileNotFoundError, KeyError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
