from __future__ import annotations

import numpy as np
import pytest

from refgame.agreement import aggregate_corpus_gold, pearson
from refgame.evaluation import evaluate_model, summary_table
from refgame.model import GroundingModel, ModelConfig, Vocabulary, build_examples
from refgame.synth import make_synthetic_corpus

TINY = dict(embed_dim=5, hidden_dim=6, attr_dim=4, rel_dim=3, attn_dim=5, mlp_dim=6, dropout=0.0)


@pytest.fixture(scope="module")
def setup():
    corpus = make_synthetic_corpus(8, seed=70)
    gold = aggregate_corpus_gold(corpus)
    ids = sorted(corpus.dialogues)
    vocab = Vocabulary.from_corpus(corpus, ids)
    model = GroundingModel(ModelConfig(variant="TSEL-REF", seed=1, **TINY), vocab)
    return corpus, gold, ids, model


def test_perfect_predictions_give_perfect_metrics(setup):
    corpus, gold, ids, model = setup

    class Oracle:
        config = model.config
        heads = model.heads
        vocab = model.vocab

        def predict(self, examples):
            return [self._predict(ex) for ex in examples]

        def _predict(self, ex):
            tsel = np.zeros(7)
            tsel[ex.tsel_target] = 1.0
            return {"tsel": tsel, "ref": ex.ref_targets.astype(float)}

    report = evaluate_model(Oracle(), corpus, ids, gold)
    assert report.tsel_accuracy == 100.0
    assert report.ref_accuracy == 100.0
    assert report.ref_exact_match == 100.0
    assert report.ref_tsel_correlation is None  # zero variance on both series


def test_hand_counted_off_by_one(setup):
    corpus, gold, ids, model = setup

    class OffByOne:
        """Flips exactly one entity decision per markable."""

        config = model.config
        heads = model.heads
        vocab = model.vocab

        def predict(self, examples):
            return [self._predict(ex) for ex in examples]

        def _predict(self, ex):
            tsel = np.zeros(7)
            tsel[ex.tsel_target] = 1.0
            ref = ex.ref_targets.astype(float).copy()
            if len(ref):
                ref[:, 0] = 1.0 - ref[:, 0]
            return {"tsel": tsel, "ref": ref}

    # restrict to one example with exactly two markables -> 12/14 correct
    examples = build_examples(corpus, ids, model.vocab, gold)
    ex2 = next(e for e in examples if len(e.markable_ids) == 2)
    report = evaluate_model(OffByOne(), corpus, [ex2.dialogue_id], gold)
    sub = [r for r in report.grouped]
    per_entity = sum(r.accuracy / 100 * 7 * r.count for r in sub)
    total = sum(7 * r.count for r in sub)
    # every markable in the dialogue has one wrong entity
    assert report.ref_accuracy == pytest.approx(100.0 * 6 / 7)
    assert report.ref_exact_match == 0.0
    assert per_entity / total == pytest.approx(6 / 7)


def test_grouped_recombines_to_overall(setup):
    corpus, gold, ids, model = setup
    report = evaluate_model(model, corpus, ids, gold)
    weights = sum(r.count for r in report.grouped)
    assert weights == report.n_markables
    acc = sum(r.accuracy * r.count for r in report.grouped) / weights
    exact = sum(r.exact_match * r.count for r in report.grouped) / weights
    assert acc == pytest.approx(report.ref_accuracy, abs=1e-12)
    assert exact == pytest.approx(report.ref_exact_match, abs=1e-12)


def test_eval_deterministic_and_order_independent(setup):
    corpus, gold, ids, model = setup
    a = evaluate_model(model, corpus, ids, gold)
    b = evaluate_model(model, corpus, list(reversed(ids)), gold)
    assert a.tsel_accuracy == b.tsel_accuracy
    assert a.ref_accuracy == b.ref_accuracy
    assert a.ref_exact_match == b.ref_exact_match


def test_empty_split_rejected(setup):
    corpus, gold, _, model = setup
    with pytest.raises(ValueError):
        evaluate_model(model, corpus, [], gold)


def test_correlation_trivial_series():
    assert pearson([1, 0, 1, 0], [1, 0, 1, 0]) == pytest.approx(1.0)


def test_correlation_independent_series_near_zero():
    rng = np.random.default_rng(0)
    x = rng.random(4000)
    y = rng.random(4000)
    assert abs(pearson(x, y)) < 0.05


def test_summary_table_mean_sd(setup):
    corpus, gold, ids, model = setup
    r = evaluate_model(model, corpus, ids, gold)
    (row,) = summary_table([r.to_dict(), r.to_dict()])
    assert row["Model"] == "TSEL-REF"
    assert row["Target Selection"]["sd"] == 0.0
    assert row["Target Selection"]["mean"] == pytest.approx(r.tsel_accuracy)


def test_report_serialization(setup):
    corpus, gold, ids, model = setup
    r = evaluate_model(model, corpus, ids, gold)
    d = r.to_dict()
    assert set(d["grouped_by_referents"][0]) == {"# Referents", "% Accuracy", "% Exact Match", "Count"}
    csv_text = r.grouped_csv()
    assert csv_text.startswith("# Referents,% Accuracy,% Exact Match,Count")



def test_grouped_csv_ends_lines_in_newline(setup):
    corpus, gold, ids, model = setup
    report = evaluate_model(model, corpus, ids, gold)
    text = report.grouped_csv()
    assert "\r" not in text
    assert text.count("\n") == 1 + len(report.grouped)
