from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refgame.agreement import (
    AgreementReport,
    aggregate_corpus_gold,
    aggregate_markable,
    agreement_by_referent_count,
    color_kde,
    fleiss_multi_pi,
    markable_exact_rates,
    pearson,
    referent_agreement,
    silverman_bandwidth,
    span_agreement,
    token_exact_match_correlation,
)
from refgame.corpus import AnnotatedCorpus, GoldEntry, ReferentJudgement
from refgame.scenario import VIEW_SIZE
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

    @pytest.mark.parametrize("seed", range(3))
    def test_jitter_moves_starts_and_keeps_spans_valid(self, medium_corpus, seed):
        ann = make_span_annotations(medium_corpus, n_annotators=3, jitter=0.3, seed=seed)
        for marks in ann.values():
            for m in marks:
                n_tokens = len(medium_corpus.dialogues[m.dialogue_id].messages[m.utterance_index].tokens)
                assert 0 <= m.start_token < m.end_token <= n_tokens
        start, end = span_agreement(ann, medium_corpus)
        assert start.observed < 1.0
        assert end.observed < 1.0

    def test_needs_two_annotators(self, small_corpus):
        ann = make_span_annotations(small_corpus, n_annotators=1)
        with pytest.raises(ValueError):
            span_agreement(ann, small_corpus)


def reference_referent_agreement(corpus):
    """Per-entity reference: Fleiss's items from each visible entity, exact
    match over every judgement pair."""
    items, hits, pairs = [], 0, 0
    for mid in sorted(corpus.judgements):
        js = corpus.judgements[mid]
        if len(js) < 2:
            continue
        for e in sorted(corpus.visible_to_speaker(corpus.markables[mid])):
            items.append([int(e in j.referents) for j in js])
        for a, b in combinations(js, 2):
            pairs += 1
            hits += a.referents == b.referents
    report = fleiss_multi_pi(items)
    return AgreementReport(
        report.observed, report.expected, report.multi_pi, hits / pairs, report.category_proportions
    )


def reference_by_referent_count(corpus):
    """Per-entity reference: each judgement against every other judgement
    of its markable, agreement counted entity by entity over the view."""
    sums: dict[int, list] = {}
    totals: Counter = Counter()
    for mid in sorted(corpus.judgements):
        js = corpus.judgements[mid]
        if len(js) < 2:
            continue
        visible = corpus.visible_to_speaker(corpus.markables[mid])
        totals.update(len(j.referents) for j in js)
        for i, j in enumerate(js):
            bucket = sums.setdefault(len(j.referents), [0.0, 0.0, 0])
            for k, other in enumerate(js):
                if k == i:
                    continue
                same = sum((e in j.referents) == (e in other.referents) for e in visible)
                bucket[0] += same / len(visible)
                bucket[1] += j.referents == other.referents
                bucket[2] += 1
    grand = sum(totals.values())
    return [
        (n, agree / pairs, exact / pairs, 100.0 * totals[n] / grand, totals[n])
        for n, (agree, exact, pairs) in sorted(sums.items())
    ]


class TestByReferentCount:
    @staticmethod
    def rows_for(monkeypatch, *referent_sets):
        """(n, agreement, exact, % judgements) rows for a one-markable
        corpus whose judgements name the given positions of the speaker's
        sorted view."""
        corpus = make_synthetic_corpus(1, seed=13)
        mid = next(m for m in corpus.judgements)
        visible = sorted(corpus.visible_to_speaker(corpus.markables[mid]))
        js = tuple(
            ReferentJudgement(mid, f"a{i}", frozenset(visible[p] for p in positions))
            for i, positions in enumerate(referent_sets)
        )
        monkeypatch.setattr(corpus, "judgements", {mid: js})
        return [
            (r.n_referents, r.agreement, r.exact_match, r.pct_judgements)
            for r in agreement_by_referent_count(corpus)
        ]

    def test_one_entity_difference(self, monkeypatch):
        rows = self.rows_for(monkeypatch, {1, 2}, {1})
        assert rows == [(1, 6 / 7, 0.0, 50.0), (2, 6 / 7, 0.0, 50.0)]

    def test_identical(self, monkeypatch):
        assert self.rows_for(monkeypatch, {3}, {3}) == [(1, 1.0, 1.0, 100.0)]

    def test_empty_against_full_view(self, monkeypatch):
        rows = self.rows_for(monkeypatch, set(), set(range(7)))
        assert rows == [(0, 0.0, 0.0, 50.0), (7, 0.0, 0.0, 50.0)]

    def test_exact_implies_full_agreement(self, monkeypatch):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = {int(i) for i in rng.choice(7, size=rng.integers(0, 8), replace=False)}
            assert self.rows_for(monkeypatch, s, s) == [(len(s), 1.0, 1.0, 100.0)]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_entity_reference(self, small_corpus, data):
        base = small_corpus
        judgements = []
        for n, mid in enumerate(sorted(base.judgements)):
            visible = sorted(base.visible_to_speaker(base.markables[mid]))
            n_judges = data.draw(st.integers(2 if n == 0 else 0, 4))
            for a in range(n_judges):
                referents = data.draw(st.frozensets(st.sampled_from(visible)))
                judgements.append(ReferentJudgement(mid, f"a{a}", referents))
        corpus = AnnotatedCorpus.build(
            base.scenarios.values(), base.dialogues.values(), base.markables.values(), judgements
        )
        assert referent_agreement(corpus) == reference_referent_agreement(corpus)
        got = [
            (r.n_referents, r.agreement, r.exact_match, r.pct_judgements, r.n_judgements)
            for r in agreement_by_referent_count(corpus)
        ]
        assert got == reference_by_referent_count(corpus)

    def test_single_pair_single_count(self, scenario_free_judgements=None):
        corpus = make_synthetic_corpus(1, seed=9)
        rows = agreement_by_referent_count(corpus)
        assert rows, "synthetic corpus has multiply-judged markables"
        for row in rows:
            assert 0.0 <= row.agreement <= 1.0
            assert 0.0 <= row.exact_match <= 1.0
        assert sum(r.pct_judgements for r in rows) == pytest.approx(100.0)

    def test_identical_pair_gives_perfect_row(self, monkeypatch):
        assert self.rows_for(monkeypatch, {0}, {0}) == [(1, 1.0, 1.0, 100.0)]


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


@pytest.fixture(scope="module", params=[1, 2])
def noise_free(request):
    """A 400-dialogue corpus with no flips, and each judged markable's true
    referents, read from a judgement that is not unidentifiable."""
    corpus = make_synthetic_corpus(400, seed=request.param, flip_rate=0.0)
    truth = {}
    for mid, js in sorted(corpus.judgements.items()):
        readable = [j.referents for j in js if not j.unidentifiable]
        if readable:
            truth[mid] = readable[0]
    return corpus, truth


class TestAgainstTheGenerator:
    """``referent_agreement`` on judgements drawn from a known generator:
    three annotators per markable each flip every entity of the speaker's
    view with probability f.  Two judgements then agree on an entity with
    probability q = (1-f)^2 + f^2 and match exactly with probability q^7,
    and multi-pi is (q - A_e) / (1 - A_e) with A_e from the expected share
    of marked entities.  Each statistic must fall within ``SE`` standard
    errors of its closed form; a flip-free draw must match it exactly."""

    SE = 4

    @pytest.mark.parametrize("f", [0.0, 0.02, 0.1, 0.3])
    def test_statistics_recover_the_flip_rate(self, noise_free, f):
        corpus, truth = noise_free
        rng = np.random.default_rng(round(f * 100))
        judgements = []
        for mid, referents in truth.items():
            visible = sorted(corpus.visible_to_speaker(corpus.markables[mid]))
            for a_idx in range(3):
                flips = {e for e, flip in zip(visible, rng.random(len(visible)) < f) if flip}
                judgements.append(J(referents ^ flips, mid=mid, ann=f"ann{a_idx}"))
        report = referent_agreement(AnnotatedCorpus.build(
            corpus.scenarios.values(), corpus.dialogues.values(), corpus.markables.values(), judgements,
        ))

        markables = len(truth)
        items = markables * VIEW_SIZE
        q = (1 - f) ** 2 + f ** 2
        # an item's mean pairwise agreement is 1 if all three agree, else 1/3
        unanimous = (1 - f) ** 3 + f ** 3
        se_observed = 2 / 3 * math.sqrt(unanimous * (1 - unanimous) / items)
        # a markable's three pairs vary together at most as much as one pair
        se_exact = math.sqrt(q ** 7 * (1 - q ** 7) / markables)
        share = sum(map(len, truth.values())) / items
        marked = share * (1 - f) + (1 - share) * f
        expected = marked ** 2 + (1 - marked) ** 2
        se_marked = math.sqrt(f * (1 - f) / (3 * items))
        # the sd of a sum is at most the sum of the terms' sds
        se_pi = (se_observed / (1 - expected)
                 + (1 - q) / (1 - expected) ** 2 * abs(4 * marked - 2) * se_marked)

        for name, got, want, se in [
            ("observed", report.observed, q, se_observed),
            ("exact match", report.exact_match, q ** 7, se_exact),
            ("multi-pi", report.multi_pi, (q - expected) / (1 - expected), se_pi),
        ]:
            if f == 0.0:
                assert got == want, name
            else:
                assert abs(got - want) <= self.SE * se, (name, got, want, se)
