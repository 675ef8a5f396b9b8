"""Judgement aggregation and every agreement/disagreement/pragmatics
statistic: pairwise entity agreement, chance-corrected multi-pi, span
start/end agreement, per-referent-count breakdowns, token/exact-match
correlation, and color kernel density estimates.

Validation puts every judgement on a manual markable with referents inside
the speaker's view, so two judgements of one markable agree on
``VIEW_SIZE - len(a.referents ^ b.referents)`` of its entities."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import AnnotatedCorpus, GoldEntry, Markable, ReferentJudgement, propagate_auto_referents
from .scenario import VIEW_SIZE


# --- gold aggregation -------------------------------------------------------

def aggregate_markable(judgements: Sequence[ReferentJudgement]) -> GoldEntry:
    """Entity-level majority vote: an entity is gold iff it appears in a
    strict majority (> n/2) of the judgements; the markable is dropped iff
    a strict majority marked it unidentifiable."""
    if not judgements:
        raise ValueError("cannot aggregate an empty judgement list")
    n = len(judgements)
    if sum(j.unidentifiable for j in judgements) * 2 > n:
        return GoldEntry(frozenset(), dropped=True)
    counts: Counter = Counter()
    for j in judgements:
        counts.update(j.referents)
    return GoldEntry(frozenset(e for e, c in counts.items() if c * 2 > n))


def aggregate_corpus_gold(corpus: AnnotatedCorpus) -> dict[str, GoldEntry]:
    """Gold referents for every non-generic markable: majority vote for the
    manually judged ones, automatic propagation (which takes precedence)
    for flagged/linked ones."""
    manual = {mid: aggregate_markable(js) for mid, js in corpus.judgements.items()}
    return {**manual, **propagate_auto_referents(corpus, manual)}


def _multi_judged(corpus: AnnotatedCorpus) -> list[tuple[str, tuple[ReferentJudgement, ...]]]:
    """(markable id, judgements) of every markable judged twice or more, in id order."""
    return sorted((mid, js) for mid, js in corpus.judgements.items() if len(js) >= 2)


# --- Fleiss's multi-pi --------------------------------------------------------

@dataclass(frozen=True)
class AgreementReport:
    observed: float
    expected: float
    multi_pi: float | None          # None iff expected == 1 (degenerate)
    exact_match: float | None = None
    category_proportions: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "observed": self.observed,
            "expected": self.expected,
            "multi_pi": self.multi_pi,
            "exact_match": self.exact_match,
            "category_proportions": {str(k): v for k, v in self.category_proportions.items()},
        }


def fleiss_multi_pi(table) -> AgreementReport:
    """Chance-corrected agreement from Fleiss's (items x categories) count
    table: entry (i, j) is how many coders put item i in category j, and
    every item needs at least 2 coders (the counts may vary by item).

    Observed agreement is the mean over items of the share of agreeing
    coder pairs, sum_j n_ij (n_ij - 1) / (n_i (n_i - 1)); expected
    agreement is sum_j p_j^2 over the pooled proportions p_j of the
    non-empty columns; multi-pi = (Ao - Ae) / (1 - Ae).
    """
    counts = np.asarray(table, dtype=np.int64)
    if counts.ndim != 2 or not counts.size:
        raise ValueError("need a non-empty (items x categories) count table")
    coders = counts.sum(axis=1)
    if (coders < 2).any():
        raise ValueError("every item needs at least 2 coders")
    observed = float(((counts * (counts - 1)).sum(axis=1) / (coders * (coders - 1))).mean())
    pooled = counts.sum(axis=0).tolist()
    total = sum(pooled)
    proportions = {k: c / total for k, c in enumerate(pooled) if c}
    expected = float(sum(p * p for p in proportions.values()))
    if expected >= 1.0:
        return AgreementReport(observed, expected, None, category_proportions=proportions)
    pi = (observed - expected) / (1.0 - expected)
    return AgreementReport(observed, expected, pi, category_proportions=proportions)


def _yes_no_table(yes: Sequence[int], coders) -> np.ndarray:
    """Fleiss's table of yes/no items from each item's yes count and its
    coder count (one for all items, or one per item): column 0 counts the
    coders who said no (label 0), column 1 those who said yes (label 1)."""
    ones = np.asarray(yes, dtype=np.int64)
    return np.stack([np.asarray(coders, dtype=np.int64) - ones, ones], axis=1)


def _exact_pairs(judgements: Sequence[ReferentJudgement]) -> tuple[int, int]:
    """(judgement pairs naming the same referent set, all judgement pairs);
    c judgements naming one set make c (c - 1) / 2 same-set pairs."""
    multiplicity: dict[frozenset[int], int] = {}
    for j in judgements:
        multiplicity[j.referents] = multiplicity.get(j.referents, 0) + 1
    same = 0
    for c in multiplicity.values():
        same += c * (c - 1)
    n = len(judgements)
    return same // 2, n * (n - 1) // 2


def referent_agreement(corpus: AnnotatedCorpus) -> AgreementReport:
    """Entity-level agreement over all manually judged markables (items =
    markable x visible entity, in id and entity order, each a yes/no count
    of the judgements naming it), plus the markable-level exact match rate
    over all judgement pairs."""
    yes: list[int] = []
    coders: list[int] = []
    exact_hits = exact_pairs = 0
    for mid, js in _multi_judged(corpus):
        # judgements naming each visible entity; every referent is visible
        named = dict.fromkeys(sorted(corpus.speaker_view(corpus.markables[mid]).visible), 0)
        for j in js:
            for e in j.referents:
                named[e] += 1
        yes.extend(named.values())
        coders.extend([len(js)] * len(named))
        hits, pairs = _exact_pairs(js)
        exact_hits += hits
        exact_pairs += pairs
    if not yes:
        raise ValueError("corpus has no multiply-judged manual markables")
    report = fleiss_multi_pi(_yes_no_table(yes, coders))
    return replace(report, exact_match=exact_hits / exact_pairs)


# --- span agreement -----------------------------------------------------------

def span_agreement(
    annotations: Mapping[str, Iterable[Markable]],
    corpus: AnnotatedCorpus,
) -> tuple[AgreementReport, AgreementReport]:
    """Token-level agreement of independent markable annotations.

    ``annotations`` maps annotator id -> their markables over a shared set
    of dialogues.  Every token of every annotated utterance yields two
    yes/no items: is it the start of a markable, is it the last token of
    one.  Returns (start report, end report).
    """
    if len(annotations) < 2:
        raise ValueError("need at least 2 annotators")
    # (dialogue, utterance, token) -> annotators with a span starting / ending there
    starts: Counter = Counter()
    ends: Counter = Counter()
    covered: set[tuple[str, int]] = set()
    for marks in annotations.values():
        marks = list(marks)
        starts.update({(m.dialogue_id, m.utterance_index, m.start_token) for m in marks})
        ends.update({(m.dialogue_id, m.utterance_index, m.end_token - 1) for m in marks})
        covered.update((m.dialogue_id, m.utterance_index) for m in marks)
    start_yes: list[int] = []
    end_yes: list[int] = []
    for dialogue_id, utt in sorted(covered):
        for t in range(len(corpus.dialogues[dialogue_id].messages[utt].tokens)):
            key = (dialogue_id, utt, t)
            start_yes.append(starts[key])
            end_yes.append(ends[key])
    n = len(annotations)
    return fleiss_multi_pi(_yes_no_table(start_yes, n)), fleiss_multi_pi(_yes_no_table(end_yes, n))


# --- per-referent-count breakdown ------------------------------------------------

@dataclass(frozen=True)
class ReferentCountRow:
    n_referents: int
    agreement: float
    exact_match: float
    pct_judgements: float
    n_judgements: int


def agreement_by_referent_count(corpus: AnnotatedCorpus) -> list[ReferentCountRow]:
    """For each referent count n: all judgements with |referents| = n paired
    against every other judgement of the same markable; mean entity
    agreement, mean exact match, and the share of such judgements."""
    buckets: dict[int, list] = {}  # n -> [agreement sum, exact sum, pairs, judgements]
    for _, js in _multi_judged(corpus):
        for i, j in enumerate(js):
            bucket = buckets.setdefault(len(j.referents), [0.0, 0.0, 0, 0])
            bucket[3] += 1
            for k, other in enumerate(js):
                if k != i:
                    bucket[0] += (VIEW_SIZE - len(j.referents ^ other.referents)) / VIEW_SIZE
                    bucket[1] += j.referents == other.referents
                    bucket[2] += 1
    total = sum(bucket[3] for bucket in buckets.values())
    return [
        ReferentCountRow(
            n_referents=n,
            agreement=agree / pairs,
            exact_match=exact / pairs,
            pct_judgements=100.0 * count / total,
            n_judgements=count,
        )
        for n, (agree, exact, pairs, count) in sorted(buckets.items())
    ]


# --- token / exact-match correlation ----------------------------------------------

def pearson(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Pearson correlation; None when either series has zero variance."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.size != ya.size or xa.size < 2:
        raise ValueError("series must have equal length >= 2")
    xd = xa - xa.mean()
    yd = ya - ya.mean()
    denom = math.sqrt(float(xd @ xd) * float(yd @ yd))
    if denom == 0.0:
        return None
    return float(xd @ yd) / denom


def markable_exact_rates(corpus: AnnotatedCorpus) -> dict[str, float]:
    """Mean pairwise exact-match rate per manually judged markable."""
    rates = {}
    for mid, js in _multi_judged(corpus):
        hits, pairs = _exact_pairs(js)
        rates[mid] = hits / pairs
    return rates


def token_exact_match_correlation(
    corpus: AnnotatedCorpus, min_count: int = 1
) -> dict[str, tuple[float, int]]:
    """Per token: Pearson correlation between its occurrence inside a
    markable span (binary) and the markable's mean pairwise exact-match
    rate, over all manually judged markables.  The reported count is the
    token's total corpus frequency; tokens under ``min_count`` or with
    zero variance are omitted.  With fewer than two rated markables no token
    has a correlation, and the result is empty."""
    rates = markable_exact_rates(corpus)
    if len(rates) < 2:
        return {}
    mids = sorted(rates)
    y = np.array([rates[mid] for mid in mids])
    token_rows: dict[str, list[int]] = {}
    for row, mid in enumerate(mids):
        for tok in set(corpus.markable_tokens(corpus.markables[mid])):
            token_rows.setdefault(tok, []).append(row)
    x = np.zeros(len(mids))
    out: dict[str, tuple[float, int]] = {}
    for tok, rows in sorted(token_rows.items()):
        count = corpus.vocabulary[tok]
        if count < min_count:
            continue
        x[rows] = 1.0
        rho = pearson(x, y)
        x[rows] = 0.0
        if rho is None:
            continue
        out[tok] = (rho, count)
    return out


# --- color kernel density estimation ------------------------------------------------

_KDE_BLOCK = 64  # points per block of ColorKDE.density


@dataclass(frozen=True)
class ColorKDE:
    """Gaussian-kernel density over referent colors for one adjective."""

    adjective: str
    samples: tuple[float, ...]
    bandwidth: float

    def density(self, x) -> np.ndarray:
        """Density at each point of ``x``, evaluated ``_KDE_BLOCK`` points at
        a time so the (points x samples) temporaries stay small."""
        xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
        c = np.asarray(self.samples)
        norm = len(c) * self.bandwidth * math.sqrt(2.0 * math.pi)
        d = np.empty(len(xs))
        for lo in range(0, len(xs), _KDE_BLOCK):
            z = (xs[lo:lo + _KDE_BLOCK, None] - c[None, :]) / self.bandwidth
            d[lo:lo + _KDE_BLOCK] = np.exp(-0.5 * z * z).sum(axis=1) / norm
        return d

    def grid(self, lo: float | None = None, hi: float | None = None, n: int = 512):
        """(x, density) samples; default support extends 4 bandwidths past
        the sample range so the density integrates to ~1 on it."""
        if lo is None:
            lo = min(self.samples) - 4.0 * self.bandwidth
        if hi is None:
            hi = max(self.samples) + 4.0 * self.bandwidth
        x = np.linspace(lo, hi, n)
        return x, self.density(x)


def silverman_bandwidth(samples: Sequence[float]) -> float:
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    if n < 2:
        return 1.0
    sd = float(x.std(ddof=1))
    q75, q25 = np.percentile(x, [75, 25])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    if spread <= 0:
        spread = max(sd, 1e-3)
    return 0.9 * spread * n ** (-0.2)


def color_kde(
    corpus: AnnotatedCorpus,
    adjectives: Sequence[str],
    gold: Mapping[str, GoldEntry],
) -> dict[str, ColorKDE]:
    """Density of gold-referent colors for markables containing each
    adjective (exact token match inside the markable span), with
    Silverman's-rule bandwidth per adjective.  One pass over the gold, in
    id order, collects the samples of every adjective."""
    colors: dict[str, list[float]] = {adj: [] for adj in adjectives}
    for mid, entry in sorted(gold.items()):
        if entry.dropped or not entry.referents:
            continue
        m = corpus.markables[mid]
        tokens = corpus.markable_tokens(m)
        matched = [adj for adj in colors if adj in tokens]
        if not matched:
            continue
        scenario = corpus.scenarios[corpus.dialogues[m.dialogue_id].scenario_id]
        referent_colors = [scenario.entity(e).color for e in sorted(entry.referents)]
        for adj in matched:
            colors[adj].extend(referent_colors)
    for adj, samples in colors.items():
        if not samples:
            raise ValueError(f"no referent color samples for adjective {adj!r}")
    return {
        adj: ColorKDE(adjective=adj, samples=tuple(samples), bandwidth=silverman_bandwidth(samples))
        for adj, samples in colors.items()
    }
