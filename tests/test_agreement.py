from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refgame.agreement import (
    aggregate_corpus_gold,
    aggregate_markable,
    agreement_by_referent_count,
    color_kde,
    fleiss_multi_pi,
    markable_exact_rates,
    pairwise_entity_agreement,
    pearson,
    referent_agreement,
    silverman_bandwidth,
    span_agreement,
    token_exact_match_correlation,
)
from refgame.corpus import GoldEntry, ReferentJudgement
from refgame.synth import make_span_annotations, make_synthetic_corpus


def J(referents, unidentifiable=False, mid="m", ann="a"):
    return ReferentJudgement(
        markable_id=mid, annotator_id=ann, referents=frozenset(referents),
        unidentifiable=unidentifiable,
    )


class TestAggregate:
    def test_two_of_three(self):
        judgements = [J({1, 2}), J({1}), J({1, 2})]
        assert aggregate_markable(judgements) == GoldEntry(frozenset({1, 2}))

    def test_exact_tie_excluded(self):
        judgements = [J({5}), J({5}), J(set()), J(set())]
        assert aggregate_markable(judgements).referents == frozenset()

    def test_unidentifiable_majority_drops(self):
        judgements = [J(set(), unidentifiable=True), J(set(), unidentifiable=True), J({1})]
        assert aggregate_markable(judgements) == GoldEntry(frozenset(), dropped=True)

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            aggregate_markable([])

    @given(
        sets=st.lists(
            st.frozensets(st.integers(0, 6), max_size=7), min_size=1, max_size=9
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_counting_oracle(self, sets):
        judgements = [J(s, ann=f"a{i}") for i, s in enumerate(sets)]
        got = aggregate_markable(judgements).referents
        n = len(sets)
        oracle = frozenset(
            e for e in range(7) if sum(e in s for s in sets) > n / 2
        )
        assert got == oracle

    def test_auto_propagation_takes_precedence(self, medium_corpus):
        gold = aggregate_corpus_gold(medium_corpus)
        for mid, entry in gold.items():
            m = medium_corpus.markables[mid]
            if m.no_referent:
                assert entry.referents == frozenset()
            if m.all_referents:
                assert entry.referents == medium_corpus.visible_to_speaker(m)
            if m.anaphora_of:
                assert entry == gold[m.anaphora_of]
        assert not any(medium_corpus.markables[mid].generic for mid in gold)


class TestPairwise:
    VISIBLE = frozenset(range(7))

    def test_one_entity_difference(self):
        agree, exact = pairwise_entity_agreement(J({1, 2}), J({1}), self.VISIBLE)
        assert agree == pytest.approx(6 / 7)
        assert exact is False

    def test_identical(self):
        agree, exact = pairwise_entity_agreement(J({3}), J({3}), self.VISIBLE)
        assert (agree, exact) == (1.0, True)

    def test_disjoint_full(self):
        agree, exact = pairwise_entity_agreement(J(set()), J(set(range(7))), self.VISIBLE)
        assert (agree, exact) == (0.0, False)

    def test_exact_implies_full_agreement(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = frozenset(int(i) for i in rng.choice(7, size=rng.integers(0, 8), replace=False))
            agree, exact = pairwise_entity_agreement(J(s), J(s), self.VISIBLE)
            assert exact and agree == 1.0


class TestFleissMultiPi:
    def test_worked_example(self):
        # two items, three coders: [1,1,0] and [0,0,0]
        # Ao: item1 pairs agree 1/3, item2 3/3 -> mean 2/3
        # pooled: p(1)=2/6, p(0)=4/6 -> Ae = (1/3)^2 + (2/3)^2 = 5/9
        # pi = (2/3 - 5/9) / (1 - 5/9) = 0.25
        report = fleiss_multi_pi([[1, 1, 0], [0, 0, 0]])
        assert report.observed == pytest.approx(2 / 3)
        assert report.expected == pytest.approx(5 / 9)
        assert report.multi_pi == pytest.approx(0.25)

    def test_perfect_agreement_mixed_categories(self):
        report = fleiss_multi_pi([[1, 1], [0, 0], [1, 1]])
        assert report.observed == 1.0
        assert report.multi_pi == pytest.approx(1.0)

    def test_degenerate_single_category(self):
        report = fleiss_multi_pi([[1, 1], [1, 1]])
        assert report.observed == 1.0
        assert report.expected == 1.0
        assert report.multi_pi is None

    def test_requires_two_coders(self):
        with pytest.raises(ValueError):
            fleiss_multi_pi([[1]])

    @given(
        table=st.lists(
            st.lists(st.integers(0, 1), min_size=2, max_size=5),
            min_size=1, max_size=10,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_all_pairs_brute_force(self, table):
        report = fleiss_multi_pi(table)
        per_item = []
        for labels in table:
            pairs = list(combinations(labels, 2))
            per_item.append(np.mean([a == b for a, b in pairs]))
        ao = float(np.mean(per_item))
        pooled = Counter(l for ls in table for l in ls)
        total = sum(pooled.values())
        ae = sum((c / total) ** 2 for c in pooled.values())
        assert abs(report.observed - ao) < 1e-12
        assert abs(report.expected - ae) < 1e-12
        if ae < 1.0:
            assert abs(report.multi_pi - (ao - ae) / (1 - ae)) < 1e-12
            assert report.multi_pi <= report.observed + 1e-12

    def test_corpus_level_report(self, medium_corpus):
        report = referent_agreement(medium_corpus)
        assert 0.5 < report.observed <= 1.0
        assert report.multi_pi is not None and report.multi_pi <= report.observed
        assert 0.0 <= report.exact_match <= 1.0


class TestSpanAgreement:
    def test_identical_spans_full_agreement(self, small_corpus):
        ann = make_span_annotations(small_corpus, n_annotators=3, jitter=0.0)
        start, end = span_agreement(ann, small_corpus)
        assert start.observed == 1.0
        assert end.observed == 1.0

    def test_hand_enumerated_end_disagreement(self, small_corpus):
        # one 3-token utterance, spans (0,1) vs (0,2):
        # start labels   [1,0,0] vs [1,0,0] -> 3/3
        # is-last labels [1,0,0] vs [0,1,0] -> agree only on token 2 -> 1/3
        corpus = make_synthetic_corpus(1, seed=5)
        did = sorted(corpus.dialogues)[0]
        msg = corpus.dialogues[did].messages[0]
        assert len(msg.tokens) >= 3
        from refgame.corpus import Markable

        def mk(name, end):
            return [
                Markable(
                    id=name, dialogue_id=did, utterance_index=0,
                    start_token=0, end_token=end, speaker=msg.speaker,
                )
            ]

        # restrict to the first three tokens by a tiny stub corpus
        start, end = span_agreement({"x": mk("x", 1), "y": mk("y", 2)}, corpus)
        n = len(msg.tokens)
        assert start.observed == pytest.approx(1.0)
        assert end.observed == pytest.approx((n - 2) / n)

    def test_needs_two_annotators(self, small_corpus):
        ann = make_span_annotations(small_corpus, n_annotators=1)
        with pytest.raises(ValueError):
            span_agreement(ann, small_corpus)


class TestByReferentCount:
    def test_single_pair_single_count(self, scenario_free_judgements=None):
        corpus = make_synthetic_corpus(1, seed=9)
        rows = agreement_by_referent_count(corpus)
        assert rows, "synthetic corpus has multiply-judged markables"
        for row in rows:
            assert 0.0 <= row.agreement <= 1.0
            assert 0.0 <= row.exact_match <= 1.0
        assert sum(r.pct_judgements for r in rows) == pytest.approx(100.0)

    def test_identical_pair_gives_perfect_row(self, monkeypatch):
        corpus = make_synthetic_corpus(1, seed=13)
        mid = next(m for m in corpus.judgements)
        m = corpus.markables[mid]
        visible = sorted(corpus.visible_to_speaker(m))
        js = (
            ReferentJudgement(mid, "a0", frozenset({visible[0]})),
            ReferentJudgement(mid, "a1", frozenset({visible[0]})),
        )
        monkeypatch.setattr(corpus, "judgements", {mid: js})
        rows = agreement_by_referent_count(corpus)
        assert len(rows) == 1
        row = rows[0]
        assert (row.n_referents, row.agreement, row.exact_match, row.pct_judgements) == (
            1, 1.0, 1.0, 100.0,
        )


class TestTokenCorrelation:
    def test_perfect_anticorrelation(self):
        assert pearson([0, 1, 0, 1], [1, 0, 1, 0]) == pytest.approx(-1.0)

    def test_zero_variance_is_none(self):
        assert pearson([1, 1, 1], [0.2, 0.4, 0.9]) is None

    def test_corpus_correlations_bounded(self, medium_corpus):
        corr = token_exact_match_correlation(medium_corpus, min_count=2)
        assert corr, "some tokens should survive the count filter"
        for tok, (rho, count) in corr.items():
            assert -1.0 <= rho <= 1.0
            assert count >= 2
            assert count == medium_corpus.vocabulary[tok]

    def test_exact_rates_range(self, medium_corpus):
        rates = markable_exact_rates(medium_corpus)
        assert all(0.0 <= r <= 1.0 for r in rates.values())


class TestColorKDE:
    def test_single_sample_closed_form(self):
        from refgame.agreement import ColorKDE

        kde = ColorKDE(adjective="dark", samples=(128.0,), bandwidth=10.0)
        expected = 1.0 / (10.0 * math.sqrt(2 * math.pi))
        assert kde.density(128.0)[0] == pytest.approx(expected, rel=1e-12)

    def test_density_integrates_to_one(self, medium_corpus):
        gold = aggregate_corpus_gold(medium_corpus)
        kdes = color_kde(medium_corpus, ["dark", "light"], gold)
        for kde in kdes.values():
            x, d = kde.grid(n=2048)
            assert np.trapezoid(d, x) == pytest.approx(1.0, abs=1e-3)

    def test_adjective_distributions_overlap(self, medium_corpus):
        gold = aggregate_corpus_gold(medium_corpus)
        kdes = color_kde(medium_corpus, ["dark", "light"], gold)
        # integral of min(density_dark, density_light): nonzero iff the curves overlap
        x = np.linspace(-64.0, 320.0, 2048)
        overlap = np.trapezoid(np.minimum(kdes["dark"].density(x), kdes["light"].density(x)), x)
        assert overlap > 0.0

    def test_unknown_adjective_raises(self, medium_corpus):
        gold = aggregate_corpus_gold(medium_corpus)
        with pytest.raises(ValueError):
            color_kde(medium_corpus, ["zebra"], gold)

    def test_silverman_positive(self):
        rng = np.random.default_rng(0)
        assert silverman_bandwidth(rng.uniform(0, 256, size=100)) > 0
