"""Acceptance suite: one test per criterion, each printing a pass/fail line
in the terminal summary.  Criteria 1, 2 and 4 need the released corpus
(REFGAME_DATA pointing at an imported canonical corpus directory) and skip
with an explicit reason when it is absent; everything else runs standalone.
"""

from __future__ import annotations

import functools
import math
import os
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import conftest
from conftest import requires_dataset

TOL_GRAD = 1e-4
TOL_CRF = 1e-9
TOL_FLEISS = 1e-12
TOL_KDE = 1e-3


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"criterion {number} ({title})"
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                kind = type(exc).__name__
                if kind in ("Skipped", "SkipTest"):
                    conftest.ACCEPTANCE_RESULTS.append(f"SKIP {label}: {exc}")
                else:
                    conftest.ACCEPTANCE_RESULTS.append(f"FAIL {label}: {exc}")
                raise
            conftest.ACCEPTANCE_RESULTS.append(f"PASS {label}")

        return wrapper

    return decorate


def _released_corpus():
    from refgame.corpus import load_corpus

    return load_corpus(os.environ["REFGAME_DATA"])


@requires_dataset
@criterion(1, "corpus regression: markable/judgement tables and agreement")
def test_criterion_1_corpus_regression():
    from refgame.agreement import referent_agreement
    from refgame.corpus import corpus_stats

    t0 = time.perf_counter()
    corpus = _released_corpus()
    stats = corpus_stats(corpus)
    assert stats.n_dialogues == 5191
    assert stats.n_markables == 40172, stats
    assert stats.n_all_referents == 128
    assert stats.n_no_referent == 1149
    assert stats.n_anaphora == 4548
    assert stats.n_cataphora == 6
    assert stats.n_manual == 34341
    assert stats.n_judgements == 103894
    assert stats.pct_ambiguous == pytest.approx(4.65, abs=0.005)
    assert stats.pct_unidentifiable == pytest.approx(0.77, abs=0.005)
    report = referent_agreement(corpus)
    assert 100 * report.observed == pytest.approx(96.26, abs=0.3)
    assert 100 * report.multi_pi == pytest.approx(88.66, abs=0.3)
    assert 100 * report.exact_match == pytest.approx(86.90, abs=0.3)
    assert time.perf_counter() - t0 < 120.0


@requires_dataset
@criterion(2, "per-referent-count rows and token correlations")
def test_criterion_2_disagreement_tables():
    from refgame.agreement import agreement_by_referent_count, token_exact_match_correlation

    corpus = _released_corpus()
    expected_rows = {
        0: (78.04, 17.78, 1.31),
        1: (97.45, 90.28, 71.81),
        2: (94.87, 82.17, 14.85),
        3: (93.93, 83.03, 7.51),
        4: (92.18, 76.66, 2.20),
        5: (90.31, 71.03, 0.88),
        6: (90.75, 78.14, 1.22),
        7: (81.47, 62.50, 0.21),
    }
    rows = {r.n_referents: r for r in agreement_by_referent_count(corpus)}
    for n, (agree, exact, pct) in expected_rows.items():
        row = rows[n]
        assert 100 * row.agreement == pytest.approx(agree, abs=0.5), f"n={n} agreement"
        assert 100 * row.exact_match == pytest.approx(exact, abs=0.5), f"n={n} exact"
        assert row.pct_judgements == pytest.approx(pct, abs=0.5), f"n={n} share"
    corr = token_exact_match_correlation(corpus, min_count=50)
    assert corr["it"][0] == pytest.approx(-0.149, abs=0.02)
    assert corr["black"][0] == pytest.approx(0.145, abs=0.02)


@criterion(3, "standalone property suite")
def test_criterion_3_property_suite(medium_corpus, tmp_path):
    from refgame.agreement import aggregate_markable, color_kde, fleiss_multi_pi
    from refgame.corpus import (
        ReferentJudgement,
        load_corpus,
        save_corpus,
        split_dataset,
    )
    from refgame.agreement import aggregate_corpus_gold
    from refgame.corpus import Split
    from refgame.model import GroundingModel, ModelConfig, Vocabulary, build_examples, train_model
    from refgame.neural import (
        crf_nll,
        cross_entropy_rows,
        gru_sequence,
        gru_sequence_backward,
        linear,
        linear_backward,
        mlp,
        mlp_backward,
        sigmoid,
        tanh,
        tanh_backward,
    )
    from refgame.scenario import ScenarioConfig, generate_scenario, generate_scenarios
    from refgame.selfplay import ProtocolConfig, darkest_agent, run_batch
    from refgame.synth import make_synthetic_corpus

    from gradcheck import gradient_check

    # -- gradient checks: every primitive ---------------------------------
    rng = np.random.default_rng(0)
    for seed in range(20):
        r = np.random.default_rng(seed)
        # linear -> tanh -> sigmoid -> softmax chain exercising each primitive
        params = {"W": r.normal(size=(5, 4)), "b": r.normal(size=5), "x": r.normal(size=(3, 4))}
        target = 2

        def chain_loss():
            h = tanh(linear(params["x"], params["W"], params["b"]))
            s = sigmoid(h)
            return cross_entropy_rows(s @ np.ones((5, 5)), np.full(3, target))[0]

        h = tanh(linear(params["x"], params["W"], params["b"]))
        s = sigmoid(h)
        loss, dlogits = cross_entropy_rows(s @ np.ones((5, 5)), np.full(3, target))
        ds = dlogits @ np.ones((5, 5)).T
        dh = ds * s * (1.0 - s)  # sigmoid backward
        da = tanh_backward(dh, h)
        dx, dw, db = linear_backward(da, params["x"], params["W"])
        rep = gradient_check(chain_loss, params, {"W": dw, "b": db, "x": dx}, seed=seed)
        assert rep.max_rel_err < TOL_GRAD, f"primitive chain seed {seed}: {rep.max_rel_err}"

        # GRU
        p2 = {
            "W": r.normal(size=(9, 4)) * 0.5, "U": r.normal(size=(9, 3)) * 0.5,
            "b": r.normal(size=9) * 0.1, "x": r.normal(size=(4, 1, 4)),
        }
        tgt = r.normal(size=(4, 1, 3))

        def gru_loss():
            h_seq, _ = gru_sequence(p2["W"], p2["U"], p2["b"], p2["x"], [4])
            return float(((h_seq - tgt) ** 2).sum())

        h_seq, cache = gru_sequence(p2["W"], p2["U"], p2["b"], p2["x"], [4])
        dxx, grads = gru_sequence_backward(p2["W"], p2["U"], cache, 2 * (h_seq - tgt))
        rep = gradient_check(
            gru_loss, p2, {"W": grads["W"], "U": grads["U"], "b": grads["b"], "x": dxx}, seed=seed
        )
        assert rep.max_rel_err < TOL_GRAD, f"gru seed {seed}: {rep.max_rel_err}"

        # CRF nll
        p3 = {"em": r.normal(size=(4, 1, 3)), "tr": r.normal(size=(3, 3))}
        tags = r.integers(0, 3, size=(4, 1))

        def crf_loss():
            return crf_nll(p3["em"], p3["tr"], tags, [4])[0][0]

        _, d_em, d_tr = crf_nll(p3["em"], p3["tr"], tags, [4])
        rep = gradient_check(crf_loss, p3, {"em": d_em, "tr": d_tr}, seed=seed)
        assert rep.max_rel_err < TOL_GRAD, f"crf seed {seed}: {rep.max_rel_err}"

        # MLP + softmax head
        p4 = {
            "W1": r.normal(size=(6, 4)), "b1": r.normal(size=6),
            "W2": r.normal(size=(3, 6)), "b2": r.normal(size=3), "x": r.normal(size=(2, 4)),
        }
        t4 = np.array([0, 2])

        def mlp_loss():
            out, _ = mlp(p4["x"], p4["W1"], p4["b1"], p4["W2"], p4["b2"])
            return cross_entropy_rows(out, t4)[0]

        out, hidden = mlp(p4["x"], p4["W1"], p4["b1"], p4["W2"], p4["b2"])
        _, dl = cross_entropy_rows(out, t4)
        dx4, dw1, db1, dw2, db2 = mlp_backward(dl, p4["x"], hidden, p4["W1"], p4["W2"])
        rep = gradient_check(
            mlp_loss, p4, {"W1": dw1, "b1": db1, "W2": dw2, "b2": db2, "x": dx4}, seed=seed
        )
        assert rep.max_rel_err < TOL_GRAD, f"mlp seed {seed}: {rep.max_rel_err}"

    # -- gradient checks: every model variant's total loss ------------------
    micro = make_synthetic_corpus(2, seed=3)
    gold_micro = aggregate_corpus_gold(micro)
    ids_micro = sorted(micro.dialogues)
    vocab_micro = Vocabulary.from_corpus(micro, ids_micro)
    for variant in ("TSEL", "REF", "TSEL-REF", "TSEL-DIAL", "TSEL-REF-DIAL"):
        model = GroundingModel(
            ModelConfig(variant=variant, embed_dim=5, hidden_dim=6, attr_dim=4,
                        rel_dim=3, attn_dim=5, mlp_dim=6, dropout=0.0, seed=7),
            vocab_micro,
        )
        examples = build_examples(micro, ids_micro, vocab_micro, gold_micro)

        def total_loss():
            return sum(model.run_example(ex)["total"] for ex in examples)

        model.store.zero_grads()
        for ex in examples:
            model.run_example(ex, backward=True)
        rep = gradient_check(
            total_loss, model.store.params, model.store.grads, max_checks_per_param=16, seed=0
        )
        assert rep.max_rel_err < TOL_GRAD, f"variant {variant}: {rep.max_rel_err}"

    # -- CRF log-partition vs exhaustive enumeration ------------------------
    # crf_nll(gold) = log Z - score(gold), so log Z is the NLL plus the score
    def path_score(em, tr, path):
        return sum(em[t, k] for t, k in enumerate(path)) + sum(
            tr[j, k] for j, k in zip(path, path[1:])
        )

    for seed in range(20):
        r = np.random.default_rng(100 + seed)
        T, K = int(r.integers(1, 6)), int(r.integers(2, 5))
        em, tr = r.normal(size=(T, K)), r.normal(size=(K, K))
        scores = [path_score(em, tr, path) for path in product(range(K), repeat=T)]
        m = max(scores)
        brute = m + math.log(sum(math.exp(s - m) for s in scores))
        gold = tuple(int(k) for k in r.integers(0, K, size=T))
        nll = crf_nll(em[:, None], tr, np.array(gold)[:, None], [T])[0][0]
        assert abs(nll + path_score(em, tr, gold) - brute) < TOL_CRF

    # -- Fleiss multi-pi vs all-pairs brute force ---------------------------
    from collections import Counter
    from itertools import combinations

    for seed in range(50):
        r = np.random.default_rng(200 + seed)
        table = [
            list(r.integers(0, 2, size=int(r.integers(2, 6))))
            for _ in range(int(r.integers(1, 11)))
        ]
        rep = fleiss_multi_pi(table)
        ao = float(np.mean([
            np.mean([a == b for a, b in combinations(ls, 2)]) for ls in table
        ]))
        pooled = Counter(l for ls in table for l in ls)
        total = sum(pooled.values())
        ae = sum((c / total) ** 2 for c in pooled.values())
        assert abs(rep.observed - ao) < TOL_FLEISS
        assert abs(rep.expected - ae) < TOL_FLEISS
        if ae < 1.0:
            assert abs(rep.multi_pi - (ao - ae) / (1 - ae)) < TOL_FLEISS

    # -- majority-vote aggregation vs counting oracle -----------------------
    for seed in range(100):
        r = np.random.default_rng(300 + seed)
        n = int(r.integers(1, 10))
        sets = [frozenset(int(e) for e in r.choice(7, size=r.integers(0, 8), replace=False))
                for _ in range(n)]
        judgements = [
            ReferentJudgement(markable_id="m", annotator_id=f"a{i}", referents=s)
            for i, s in enumerate(sets)
        ]
        got = aggregate_markable(judgements).referents
        oracle = frozenset(e for e in range(7) if sum(e in s for s in sets) > n / 2)
        assert got == oracle

    # -- KDE normalization ---------------------------------------------------
    gold = aggregate_corpus_gold(medium_corpus)
    kdes = color_kde(medium_corpus, ["dark", "light", "gray"], gold)
    for kde in kdes.values():
        x, d = kde.grid(n=4096)
        assert abs(np.trapezoid(d, x) - 1.0) < TOL_KDE

    # -- scenario generator intersection exactness over 3,000 samples --------
    cfg = ScenarioConfig()
    scenarios = generate_scenarios(cfg, {4: 1000, 5: 1000, 6: 1000}, seed=999)
    assert len(scenarios) == 3000
    for s in scenarios:
        assert len(s.shared_ids) == s.num_shared
        assert len(s.view_a.visible) == len(s.view_b.visible) == 7

    # -- serialization round-trips -------------------------------------------
    save_corpus(medium_corpus, tmp_path / "corpus")
    loaded = load_corpus(tmp_path / "corpus")
    assert loaded.scenarios == medium_corpus.scenarios
    assert loaded.dialogues == medium_corpus.dialogues
    assert loaded.markables == medium_corpus.markables
    assert loaded.judgements == medium_corpus.judgements
    model.save(tmp_path / "model")   # the last gradient-checked variant
    reloaded = GroundingModel.load(tmp_path / "model")
    for name in model.store.params:
        assert model.store[name].tobytes() == reloaded.store[name].tobytes()

    # -- seeded determinism: generation, training, selfplay -------------------
    g1 = generate_scenarios(cfg, {5: 5}, seed=8)
    g2 = generate_scenarios(cfg, {5: 5}, seed=8)
    assert g1 == g2

    det = make_synthetic_corpus(4, seed=44)
    det_ids = tuple(sorted(det.dialogues))
    det_split = Split(train=det_ids, valid=det_ids, test=det_ids, seed=0)
    det_gold = aggregate_corpus_gold(det)
    det_cfg = ModelConfig(variant="TSEL-REF", embed_dim=5, hidden_dim=6, attr_dim=4,
                          rel_dim=3, attn_dim=5, mlp_dim=6, dropout=0.3,
                          epochs=2, patience=2, batch_size=2, seed=21)
    t1 = train_model(det_cfg, det, det_split, det_gold)
    t2 = train_model(det_cfg, det, det_split, det_gold)
    strip = lambda hist: [{k: v for k, v in rec.items() if k != "seconds"} for rec in hist]
    assert strip(t1.history) == strip(t2.history)
    for k in t1.model.store.params:
        assert np.array_equal(t1.model.store.params[k], t2.model.store.params[k])

    sp_scenarios = generate_scenarios(cfg, {4: 10}, seed=17)
    b1 = run_batch(darkest_agent, sp_scenarios, ProtocolConfig(seed=6))
    b2 = run_batch(darkest_agent, sp_scenarios, ProtocolConfig(seed=6))
    assert [t.to_dict() for t in b1.transcripts] == [t.to_dict() for t in b2.transcripts]


@requires_dataset
@pytest.mark.skipif(
    os.environ.get("REFGAME_FULL_TRAIN") != "1",
    reason="desk-scale training takes hours on CPU (set REFGAME_FULL_TRAIN=1)",
)
@criterion(4, "desk-scale model reproduction bands and joint-training gain")
def test_criterion_4_model_reproduction():
    from refgame.agreement import aggregate_corpus_gold
    from refgame.corpus import split_dataset
    from refgame.evaluation import evaluate_model
    from refgame.model import ModelConfig, train_model

    corpus = _released_corpus()
    gold = aggregate_corpus_gold(corpus)
    seeds = (0, 1, 2)
    results: dict[str, list] = {}
    for variant in ("TSEL", "TSEL-DIAL", "TSEL-REF", "TSEL-REF-DIAL"):
        for seed in seeds:
            split = split_dataset(corpus, seed=seed)
            cfg = ModelConfig(variant=variant, seed=seed, dtype="float32")
            trained = train_model(cfg, corpus, split, gold)
            report = evaluate_model(trained.model, corpus, split.test, gold)
            results.setdefault(variant, []).append(report)
    full = results["TSEL-REF-DIAL"]
    assert np.mean([r.tsel_accuracy for r in full]) >= 64.0
    assert np.mean([r.ref_accuracy for r in full]) >= 82.0
    assert np.mean([r.ref_exact_match for r in full]) >= 28.0

    def mean_tsel(variant):
        return float(np.mean([r.tsel_accuracy for r in results[variant]]))

    assert mean_tsel("TSEL-REF") >= mean_tsel("TSEL")
    assert mean_tsel("TSEL-REF-DIAL") >= mean_tsel("TSEL-DIAL")


@criterion(5, "selfplay monotonicity, closed-form random baseline, runtime")
def test_criterion_5_selfplay():
    from refgame.scenario import ScenarioConfig, generate_scenarios
    from refgame.selfplay import ProtocolConfig, darkest_agent, random_agent, run_batch

    t0 = time.perf_counter()
    cfg = ScenarioConfig()
    scenarios = generate_scenarios(cfg, {4: 1000, 5: 1000, 6: 1000}, seed=2025)
    result = run_batch(darkest_agent, scenarios, ProtocolConfig(seed=31))
    assert result.games == {4: 1000, 5: 1000, 6: 1000}
    assert result.rates[4] < result.rates[5] < result.rates[6], result.rates

    random_scenarios = generate_scenarios(cfg, {4: 1000}, seed=2026)
    random_result = run_batch(random_agent, random_scenarios, ProtocolConfig(seed=32))
    assert random_result.rates[4] == pytest.approx(4 / 49, abs=0.02)

    assert time.perf_counter() - t0 < 900.0


@criterion(6, "markable tagger held-out accuracy and BIO round-trip")
def test_criterion_6_tagger():
    from refgame.corpus import split_dataset
    from refgame.tagger import (
        TaggerConfig,
        bio_to_spans,
        build_tag_examples,
        spans_to_bio,
        train_tagger,
    )

    # BIO decode round-trip identity on random disjoint span sets
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 16))
        cuts = sorted(set(rng.integers(0, n + 1, size=6)) | {0, n})
        spans = [
            (lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo and rng.random() < 0.5
        ]
        assert bio_to_spans(spans_to_bio(spans, n)) == spans

    if conftest.dataset_available():
        corpus = _released_corpus()
        config = TaggerConfig(seed=0)
    else:
        from refgame.synth import make_synthetic_corpus

        corpus = make_synthetic_corpus(120, seed=101)
        config = TaggerConfig(
            embed_dim=24, hidden_dim=32, epochs=12, patience=4, batch_size=8, lr=5e-3, seed=0
        )
    split = split_dataset(corpus, seed=0)
    result = train_tagger(corpus, split, config)
    held_out = build_tag_examples(corpus, split.test, result.tagger.vocab)
    accuracy = result.tagger.scores(held_out)["token_accuracy"]
    assert accuracy >= 0.97, f"held-out token accuracy {accuracy:.4f}"


@criterion(7, "byte-deterministic rendering and golden files")
def test_criterion_7_rendering(tmp_path):
    from refgame.agreement import aggregate_corpus_gold
    from refgame.render import render_dialogue, render_view
    from refgame.scenario import ScenarioConfig, generate_scenario
    from refgame.synth import make_synthetic_corpus

    scenario = generate_scenario(ScenarioConfig(), 4, np.random.default_rng(2024))
    svg_args = (scenario.view_a, scenario, {"m1": [scenario.view_a.visible[2]]})
    first = render_view(*svg_args, title="A's view")
    second = render_view(*svg_args, title="A's view")
    assert first.encode() == second.encode()
    golden = Path(__file__).parent / "golden"
    assert first.encode() == (golden / "scenario_view.svg").read_bytes()

    corpus = make_synthetic_corpus(3, seed=77)
    gold = aggregate_corpus_gold(corpus)
    did = sorted(corpus.dialogues)[0]
    dialogue = corpus.dialogues[did]
    marks = [corpus.markables[m] for m in corpus.markables_by_dialogue[did]]
    refs = {
        m.id: gold[m.id].referents
        for m in marks
        if m.id in gold and not gold[m.id].dropped
    }
    html = render_dialogue(dialogue, corpus.scenarios[dialogue.scenario_id], marks, refs)
    assert html.encode() == (golden / "dialogue.html").read_bytes()
