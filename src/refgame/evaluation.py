"""Model-facing metrics: target-selection accuracy, reference-resolution
entity accuracy and exact match (overall and grouped by gold referent
count), and the per-dialogue REF/TSEL correlation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .agreement import pearson
from .corpus import AnnotatedCorpus, GoldEntry
from .io import csv_text
from .model import REF_THRESHOLD, GroundingModel, build_examples
from .scenario import VIEW_SIZE


@dataclass(frozen=True)
class GroupRow:
    n_referents: int
    accuracy: float
    exact_match: float
    count: int


@dataclass
class EvalReport:
    variant: str
    seed: int
    tsel_accuracy: float | None
    ref_accuracy: float | None
    ref_exact_match: float | None
    n_examples: int
    n_markables: int
    grouped: list[GroupRow] = field(default_factory=list)
    ref_tsel_correlation: float | None = None

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "seed": self.seed,
            "target_selection": self.tsel_accuracy,
            "reference_resolution": self.ref_accuracy,
            "exact_match": self.ref_exact_match,
            "n_examples": self.n_examples,
            "n_markables": self.n_markables,
            "ref_tsel_correlation": self.ref_tsel_correlation,
            "grouped_by_referents": [
                {
                    "# Referents": r.n_referents,
                    "% Accuracy": r.accuracy,
                    "% Exact Match": r.exact_match,
                    "Count": r.count,
                }
                for r in self.grouped
            ],
        }

    def grouped_csv(self) -> str:
        return csv_text(
            ("# Referents", "% Accuracy", "% Exact Match", "Count"),
            ((r.n_referents, f"{r.accuracy:.2f}", f"{r.exact_match:.2f}", r.count) for r in self.grouped),
        )


def evaluate_model(
    model: GroundingModel,
    corpus: AnnotatedCorpus,
    dialogue_ids: Sequence[str],
    gold: Mapping[str, GoldEntry],
) -> EvalReport:
    """Frozen-model metrics over a dialogue set.  Dropped markables are
    excluded upstream (build_examples); entity accuracy averages the 7
    binary decisions per markable; a referent is predicted where its REF
    probability reaches ``REF_THRESHOLD``."""
    if not dialogue_ids:
        raise ValueError("empty evaluation split")
    examples = build_examples(corpus, dialogue_ids, model.vocab, gold)
    probs = model.predict(examples)
    tsel_hits = [
        float(np.argmax(p["tsel"]) == ex.tsel_target)
        for p, ex in zip(probs, examples) if "tsel" in model.heads
    ]
    # one row per markable of every example: its gold referents and which of
    # its 7 decisions match them
    gold_rows = np.concatenate([ex.ref_targets for ex in examples]) == 1.0
    if "ref" in model.heads:
        match = (np.concatenate([p["ref"] for p in probs]) >= REF_THRESHOLD) == gold_rows
    else:  # no REF decisions to score
        gold_rows = match = gold_rows[:0]
    exact = match.all(axis=1)
    n_gold = gold_rows.sum(axis=1)
    grouped = []
    for n in np.unique(n_gold):
        rows = n_gold == n
        count = int(rows.sum())
        accuracy = 100.0 * int(match[rows].sum()) / (VIEW_SIZE * count)
        grouped.append(GroupRow(int(n), accuracy, 100.0 * int(exact[rows].sum()) / count, count))
    correlation = None
    if "tsel" in model.heads and "ref" in model.heads:
        per_example = np.split(match, np.cumsum([len(ex.ref_targets) for ex in examples])[:-1])
        pairs = [(float(m.mean()), hit) for m, hit in zip(per_example, tsel_hits) if len(m)]
        if len(pairs) >= 2:
            correlation = pearson(*zip(*pairs))
    return EvalReport(
        variant=model.config.variant,
        seed=model.config.seed,
        tsel_accuracy=100.0 * float(np.mean(tsel_hits)) if tsel_hits else None,
        ref_accuracy=100.0 * int(match.sum()) / match.size if match.size else None,
        ref_exact_match=100.0 * int(exact.sum()) / len(match) if len(match) else None,
        n_examples=len(examples),
        n_markables=len(match),
        grouped=grouped,
        ref_tsel_correlation=correlation,
    )


def _mean_sd(values) -> dict | None:
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    return {"mean": float(np.mean(vals)), "sd": float(np.std(vals))}


def summary_table(records: Sequence[Mapping]) -> list[dict]:
    """Per-variant mean +- sd over seeds, shaped like the headline results
    table.  ``records`` are ``EvalReport.to_dict()`` outputs (report.json)."""
    by_variant: dict[str, list[Mapping]] = {}
    for r in records:
        by_variant.setdefault(r["variant"], []).append(r)
    return [
        {
            "Model": variant,
            "Target Selection": _mean_sd(r.get("target_selection") for r in group),
            "Reference Resolution": _mean_sd(r.get("reference_resolution") for r in group),
            "Exact Match": _mean_sd(r.get("exact_match") for r in group),
            "seeds": sorted(r.get("seed", 0) for r in group),
        }
        for variant, group in sorted(by_variant.items())
    ]


def summary_csv(rows: Sequence[Mapping]) -> str:
    """``summary_table`` rows as CSV, one ``mean+-sd`` cell per metric."""

    def cell(stat):
        return "-" if stat is None else f"{stat['mean']:.2f}+-{stat['sd']:.2f}"

    metrics = ("Target Selection", "Reference Resolution", "Exact Match")
    return csv_text(("Model", *metrics), ((row["Model"], *(cell(row[m]) for m in metrics)) for row in rows))
