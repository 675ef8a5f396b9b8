"""Model-facing metrics: target-selection accuracy, reference-resolution
entity accuracy and exact match (overall and grouped by gold referent
count), and the per-dialogue REF/TSEL correlation."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .agreement import pearson
from .corpus import AnnotatedCorpus, GoldEntry
from .model import GroundingModel, build_examples
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
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["# Referents", "% Accuracy", "% Exact Match", "Count"])
        for r in self.grouped:
            w.writerow([r.n_referents, f"{r.accuracy:.2f}", f"{r.exact_match:.2f}", r.count])
        return buf.getvalue()


def evaluate_model(
    model: GroundingModel,
    corpus: AnnotatedCorpus,
    dialogue_ids: Sequence[str],
    gold: Mapping[str, GoldEntry],
) -> EvalReport:
    """Frozen-model metrics over a dialogue set.  Dropped markables are
    excluded upstream (build_examples); entity accuracy averages the 7
    binary decisions per markable; predictions threshold 0.5."""
    if not dialogue_ids:
        raise ValueError("empty evaluation split")
    examples = build_examples(corpus, dialogue_ids, model.vocab, gold)
    tsel_hits: list[float] = []
    per_entity_hits = 0
    per_entity_total = 0
    exact_hits = 0
    n_markables = 0
    by_count: dict[int, list[int]] = {}
    per_example_ref: list[float | None] = []
    per_example_tsel: list[float] = []
    for ex in examples:
        probs = model.predict(ex)
        if "tsel" in probs:
            hit = float(int(np.argmax(probs["tsel"])) == ex.tsel_target)
            tsel_hits.append(hit)
            per_example_tsel.append(hit)
        if "ref" in probs and len(ex.markable_ids) > 0:
            pred = probs["ref"] >= 0.5
            goldm = ex.ref_targets >= 0.5
            match = pred == goldm
            per_entity_hits += int(match.sum())
            per_entity_total += match.size
            row_exact = match.all(axis=1)
            exact_hits += int(row_exact.sum())
            n_markables += len(ex.markable_ids)
            per_example_ref.append(float(match.mean()))
            for row in range(len(ex.markable_ids)):
                n_ref = int(goldm[row].sum())
                bucket = by_count.setdefault(n_ref, [0, 0, 0])
                bucket[0] += int(match[row].sum())
                bucket[1] += int(row_exact[row])
                bucket[2] += 1
        else:
            per_example_ref.append(None)

    grouped = [
        GroupRow(
            n_referents=n,
            accuracy=100.0 * hits / (VIEW_SIZE * cnt),
            exact_match=100.0 * exact / cnt,
            count=cnt,
        )
        for n, (hits, exact, cnt) in sorted(by_count.items())
    ]
    correlation = None
    if "tsel" in model.heads and "ref" in model.heads:
        pairs = [
            (r, t)
            for r, t in zip(per_example_ref, per_example_tsel)
            if r is not None
        ]
        if len(pairs) >= 2:
            correlation = pearson([p[0] for p in pairs], [p[1] for p in pairs])
    return EvalReport(
        variant=model.config.variant,
        seed=model.config.seed,
        tsel_accuracy=100.0 * float(np.mean(tsel_hits)) if tsel_hits else None,
        ref_accuracy=(
            100.0 * per_entity_hits / per_entity_total if per_entity_total else None
        ),
        ref_exact_match=(100.0 * exact_hits / n_markables if n_markables else None),
        n_examples=len(examples),
        n_markables=n_markables,
        grouped=grouped,
        ref_tsel_correlation=correlation,
    )


def ref_tsel_correlation(
    ref_accuracy: Sequence[float], tsel_success: Sequence[float]
) -> float | None:
    """Pearson correlation between per-dialogue mean REF entity accuracy and
    the binary TSEL outcome over the same dialogues; None (flagged undefined)
    when either series has zero variance."""
    return pearson(ref_accuracy, tsel_success)


def summary_table(reports: Sequence[EvalReport]) -> dict:
    """Mean +- sd over seeds, shaped like the headline results table."""

    def stats(values):
        vals = [v for v in values if v is not None]
        if not vals:
            return None
        return {"mean": float(np.mean(vals)), "sd": float(np.std(vals))}

    return {
        "Model": reports[0].variant if reports else None,
        "Target Selection": stats([r.tsel_accuracy for r in reports]),
        "Reference Resolution": stats([r.ref_accuracy for r in reports]),
        "Exact Match": stats([r.ref_exact_match for r in reports]),
        "Ref/TSEL Correlation": stats([r.ref_tsel_correlation for r in reports]),
        "seeds": [r.seed for r in reports],
    }
