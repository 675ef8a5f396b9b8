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
import sys
import time
from dataclasses import asdict
from functools import partial
from pathlib import Path

from . import __version__
from .errors import RefgameError, SchemaError
from .io import atomic_write_bytes, atomic_write_json, atomic_write_text, csv_text, read_json, read_records


def _data_dir(args) -> Path:
    data = getattr(args, "data", None) or os.environ.get("REFGAME_DATA")
    if not data:
        raise RefgameError("no data directory: pass --data or set REFGAME_DATA")
    return Path(data)


def _shared_counts(value: str) -> list[int]:
    """The argparse type of ``--shared``: comma-separated shared-entity
    counts, each given once."""
    counts = []
    for item in value.split(","):
        try:
            count = int(item)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{item!r} in {value!r} is not an integer") from None
        if count in counts:
            raise argparse.ArgumentTypeError(f"{count} is repeated in {value!r}")
        counts.append(count)
    return counts


def _by_id(table, flag: str, key: str):
    """``table[key]`` for the id given to ``flag``; an unknown id raises
    RefgameError naming both."""
    if key not in table:
        raise RefgameError(f"{flag} {key!r}: no such id in the corpus")
    return table[key]


def _split(path, corpus):
    """The split in ``path``.  Raises SchemaError naming the file when it
    is not a split, and when an id, the first in train, valid, test order,
    is not a dialogue of ``corpus`` or is listed a second time."""
    from .corpus import Split

    data = read_json(path)
    try:
        split = Split.from_dict(data)
        seen = set()
        for part in ("train", "valid", "test"):
            for did in getattr(split, part):
                if did not in corpus.dialogues:
                    raise SchemaError(f"{part} dialogue {did!r} is not in the corpus")
                if did in seen:
                    raise SchemaError(f"{part} dialogue {did!r} is listed twice")
                seen.add(did)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    return split


def _scenario_config(args):
    from .scenario import DEFAULT_CONFIG, load_scenario_config

    return load_scenario_config(args.config) if args.config else DEFAULT_CONFIG


def cmd_generate(args) -> int:
    from .scenario import generate_scenarios, save_scenarios

    config = _scenario_config(args)
    scenarios = generate_scenarios(config, {k: args.count for k in args.shared}, seed=args.seed)
    save_scenarios(scenarios, args.out)
    print(f"wrote {len(scenarios)} scenarios to {args.out}")
    return 0


def cmd_import(args) -> int:
    from .corpus import save_corpus
    from .importer import import_bundle

    corpus = import_bundle(args.src)
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

    rows = [
        (r.n_referents, f"{100 * r.agreement:.2f}", f"{100 * r.exact_match:.2f}", f"{r.pct_judgements:.2f}")
        for r in agreement_by_referent_count(corpus)
    ]
    header = ("# Referents", "% Agreement", "% Exact", "% Judgements")
    atomic_write_text(out / "by_referent_count.csv", csv_text(header, rows))

    corr = token_exact_match_correlation(corpus, min_count=args.min_count)
    rows = [
        (tok, f"{rho:.4f}", count) for tok, (rho, count) in sorted(corr.items(), key=lambda kv: kv[1][0])
    ]
    atomic_write_text(out / "token_correlation.csv", csv_text(("token", "rho", "count"), rows))

    adjectives = [a for a in args.adjectives.split(",") if a]
    gold = aggregate_corpus_gold(corpus)
    for adj in adjectives:
        try:
            kde = color_kde(corpus, [adj], gold=gold)[adj]
        except ValueError:
            continue
        rows = [(f"{x:.4f}", f"{d:.8f}") for x, d in zip(*kde.grid(0.0, 256.0, 512))]
        atomic_write_text(out / f"kde_{adj}.csv", csv_text(("color", "density"), rows))
    print(f"agreement reports written to {out}")
    return 0


def cmd_aggregate(args) -> int:
    from .agreement import aggregate_corpus_gold
    from .corpus import load_corpus, save_gold

    corpus = load_corpus(_data_dir(args))
    gold = aggregate_corpus_gold(corpus)
    save_gold(gold, args.out)
    print(f"aggregated gold for {len(gold)} markables -> {args.out}")
    return 0


def cmd_split(args) -> int:
    from .corpus import load_corpus, split_dataset

    corpus = load_corpus(_data_dir(args))
    split = split_dataset(corpus, args.seed)
    atomic_write_json(args.out, split.to_dict())
    print(f"split {len(corpus.dialogues)} dialogues {len(split.train)}/{len(split.valid)}/{len(split.test)}")
    return 0


# config field -> type of each `train` flag; ModelConfig and TaggerConfig hold the defaults
TRAIN_FLAGS = {
    "variant": str, "seed": int, "epochs": int, "batch_size": int, "lr": float, "dropout": float,
    "embed_dim": int, "hidden_dim": int, "attr_dim": int, "rel_dim": int, "attn_dim": int,
    "mlp_dim": int, "dtype": str,
}


def cmd_train(args) -> int:
    from dataclasses import fields

    from .corpus import load_corpus

    corpus = load_corpus(_data_dir(args))
    split = _split(args.split, corpus)
    out = Path(args.out)
    given = {k: v for k in TRAIN_FLAGS if (v := getattr(args, k)) is not None}
    if args.task == "tagger":
        from .tagger import TaggerConfig, train_tagger

        model_only = set(given) - {f.name for f in fields(TaggerConfig)}
        if model_only:
            flags = ", ".join("--" + k.replace("_", "-") for k in sorted(model_only))
            raise RefgameError(f"--task tagger does not take {flags}")
        config = TaggerConfig(**given)
        result = train_tagger(corpus, split, config, log_path=out.with_suffix(".log.jsonl"), quiet=args.quiet)
        result.tagger.save(out)
        best = result.history[result.best_epoch]
        print(json.dumps({"task": "tagger", "best_epoch": result.best_epoch, **best}))
        return 0

    from .agreement import aggregate_corpus_gold
    from .model import ModelConfig, train_model

    config = ModelConfig(**given)
    gold = aggregate_corpus_gold(corpus)
    result = train_model(
        config, corpus, split, gold, log_path=out.with_suffix(".log.jsonl"), quiet=args.quiet
    )
    result.model.save(out)
    print(json.dumps({"task": "model", "variant": config.variant, "best_epoch": result.best_epoch}))
    return 0


def cmd_evaluate(args) -> int:
    from .agreement import aggregate_corpus_gold
    from .corpus import load_corpus
    from .evaluation import evaluate_model
    from .model import GroundingModel

    corpus = load_corpus(_data_dir(args))
    split = _split(args.split, corpus)
    model = GroundingModel.load(args.model)
    report = evaluate_model(model, corpus, split.test, aggregate_corpus_gold(corpus))
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
    dialogues = read_records(args.input, dialogue_from_dict)
    markables = predict_markables(tagger, dialogues)
    atomic_write_json(args.out, [markable_to_dict(m) for m in markables])
    print(f"tagged {len(dialogues)} dialogues -> {len(markables)} markables")
    return 0


def cmd_selfplay(args) -> int:
    from .corpus import save_corpus
    from .model import GroundingModel
    from .scenario import generate_scenarios
    from .selfplay import ModelAgent, ProtocolConfig, center_agent, darkest_agent, random_agent, run_batch

    if args.agent == "model" and not args.model:
        raise RefgameError("--agent model needs --model PREFIX")
    if args.agent != "model" and (args.model or args.tagger):
        raise RefgameError(f"--agent {args.agent} does not take --model or --tagger")
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise NotADirectoryError(f"--out {out} exists and is not a directory")
    config = _scenario_config(args)
    scenarios = generate_scenarios(config, {k: args.games for k in args.shared}, seed=args.seed)
    # flags left out take the ProtocolConfig defaults
    flags = {"temperature": args.temperature, "max_utterances": args.max_utterances,
             "max_tokens_per_utterance": args.max_tokens}
    protocol = ProtocolConfig(**{k: v for k, v in flags.items() if v is not None}, seed=args.seed)
    model = tagger = None
    if args.agent == "model":
        model = GroundingModel.load(args.model)
        if args.tagger:
            from .tagger import MarkableTagger

            if "ref" not in model.heads:
                raise RefgameError(f"--tagger needs a variant with a REF head, not {model.config.variant}")
            tagger = MarkableTagger.load(args.tagger)
        factory = partial(
            ModelAgent, model,
            temperature=protocol.temperature, max_tokens=protocol.max_tokens_per_utterance,
            keep_states=tagger is not None,
        )
    else:
        factory = {"random": random_agent, "center": center_agent, "darkest": darkest_agent}[args.agent]
    t0 = time.perf_counter()
    result = run_batch(factory, scenarios, protocol, jobs=args.jobs, tagger=tagger)
    seconds = time.perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)
    if tagger is not None:
        save_corpus(result.corpus(), out / "corpus")
    atomic_write_text(out / "summary.csv", result.summary_csv())
    atomic_write_json(out / "summary.json", {
        **result.summary(seconds),
        "config": {
            "protocol": asdict(protocol),
            "agent": args.agent,
            "model": args.model,
            "tagger": args.tagger,
            "dtype": None if model is None else model.config.dtype,
            "seed": args.seed,
            "jobs": args.jobs,
            # the scenario config in --config's form, so the games can be regenerated
            "scenario": asdict(config),
            "shared": args.shared,
            "games": args.games,
        },
        "version": __version__,
    })
    atomic_write_text(out / "transcripts.jsonl", result.transcripts_jsonl())
    print(result.summary_csv().strip())
    return 0


def cmd_render(args) -> int:
    from .agreement import aggregate_corpus_gold
    from .corpus import load_corpus
    from .render import render_dialogue, render_judgements, render_view

    targets = {"--scenario": args.scenario, "--dialogue": args.dialogue, "--markable": args.markable}
    given = [flag for flag, value in targets.items() if value is not None]
    if len(given) != 1:
        got = " and ".join(given) or "none"
        raise RefgameError(f"render needs exactly one of --scenario, --dialogue and --markable, got {got}")
    if args.agent_view is not None and args.scenario is None:
        raise RefgameError("render takes --agent-view only with --scenario")
    corpus = load_corpus(_data_dir(args))
    if args.dialogue is not None:
        dialogue = _by_id(corpus.dialogues, "--dialogue", args.dialogue)
        scenario = corpus.scenarios[dialogue.scenario_id]
        ids = corpus.markables_by_dialogue.get(args.dialogue, ())
        gold = aggregate_corpus_gold(corpus)
        refs = {mid: gold[mid].referents for mid in ids if mid in gold and not gold[mid].dropped}
        html = render_dialogue(dialogue, scenario, [corpus.markables[mid] for mid in ids], refs)
        atomic_write_text(args.out, html)
    elif args.markable is not None:
        _by_id(corpus.markables, "--markable", args.markable)
        atomic_write_text(args.out, render_judgements(corpus, args.markable))
    else:
        scenario = _by_id(corpus.scenarios, "--scenario", args.scenario)
        agent = args.agent_view or "A"
        atomic_write_text(
            args.out, render_view(scenario.view(agent), scenario, title=f"{agent}'s view")
        )
    print(f"wrote {args.out}")
    return 0


def cmd_report(args) -> int:
    """Mirror each input directory's reports under its own basename in
    ``--out``, and summarize every evaluation ``report.json`` among them.
    Files under ``--out`` (an earlier bundle inside an input) are skipped."""
    out = Path(args.out)
    sources: dict[str, Path] = {}
    for src in map(Path, args.inputs):
        if not src.is_dir():
            raise RefgameError(f"report input {src} is not a directory")
        name = src.resolve().name
        if name in sources:
            raise RefgameError(f"report inputs {sources[name]} and {src} share the basename {name!r}")
        sources[name] = src
    bundle = out.resolve()
    index = []
    eval_reports = []
    for name, src in sources.items():
        files = sorted(
            p for p in src.rglob("*")
            if p.suffix in (".json", ".csv", ".svg", ".html", ".jsonl") and not p.resolve().is_relative_to(bundle)
        )
        for p in files:
            rel = Path(name, p.relative_to(src))
            atomic_write_bytes(out / rel, p.read_bytes())
            index.append(rel.as_posix())
            if p.name == "report.json":
                record = read_json(p)
                if "variant" in record and "target_selection" in record:
                    eval_reports.append(record)
    if eval_reports:
        from .evaluation import summary_csv, summary_table

        summary = summary_table(eval_reports)
        atomic_write_json(out / "results_summary.json", summary)
        atomic_write_text(out / "results_summary.csv", summary_csv(summary))
        index += ["results_summary.json", "results_summary.csv"]
    atomic_write_json(out / "index.json", {"files": sorted(index), "version": __version__})
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
    p.add_argument("--shared", type=_shared_counts, default="4,5,6")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("import", help="import a release bundle into the canonical schema")
    p.add_argument("--src", required=True)
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

    p = sub.add_parser("aggregate", help="export the majority-vote gold that train, evaluate and render use")
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
    for name, kind in TRAIN_FLAGS.items():
        p.add_argument("--" + name.replace("_", "-"), type=kind)
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a trained model on the test split")
    p.add_argument("--data")
    p.add_argument("--split", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("tag", help="detect markables in dialogue JSON")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_tag)

    p = sub.add_parser(
        "selfplay", help="play batches of referring games",
        description="--temperature, --max-utterances and --max-tokens left out take the "
                    "ProtocolConfig default.",
    )
    p.add_argument("--agent", choices=("model", "random", "center", "darkest"), default="darkest")
    p.add_argument("--model")
    p.add_argument("--shared", type=_shared_counts, default="4,5,6")
    p.add_argument("--games", type=int, default=100)
    p.add_argument("--temperature", type=float)
    p.add_argument("--max-utterances", type=int)
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, each with OpenBLAS on one thread and annotating the "
                        "games it plays")
    p.add_argument("--tagger", help="annotate the finished games and write them as a corpus to OUT/corpus")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_selfplay)

    p = sub.add_parser("render", help="render scenario views or annotated dialogues")
    p.add_argument("--data")
    p.add_argument("--scenario")
    p.add_argument("--agent-view", choices=("A", "B"))
    p.add_argument("--dialogue")
    p.add_argument("--markable")
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
    except (RefgameError, OSError, KeyError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
