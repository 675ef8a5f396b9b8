"""Linear-chain CRF: log-partition, negative log-likelihood with exact
gradients (forward-backward), per-position posteriors, and Viterbi decoding
with deterministic lowest-index tie-breaking."""

from __future__ import annotations

import numpy as np

from . import kernels


def _check(emissions: np.ndarray, transitions: np.ndarray, start: np.ndarray | None):
    if emissions.ndim != 2 or emissions.shape[0] < 1 or emissions.shape[1] < 2:
        raise ValueError("emissions must be (T>=1, K>=2)")
    k = emissions.shape[1]
    if transitions.shape != (k, k):
        raise ValueError(f"transitions must be ({k}, {k})")
    if not np.all(np.isfinite(emissions)):
        raise ValueError("non-finite emissions")
    if not np.all(np.isfinite(transitions)):
        raise ValueError("non-finite transitions")
    if start is None:
        start = np.zeros(k, dtype=emissions.dtype)
    elif start.shape != (k,) or not np.all(np.isfinite(start)):
        raise ValueError("start scores must be a finite (K,) vector")
    return start


def crf_log_partition(
    emissions: np.ndarray, transitions: np.ndarray, start: np.ndarray | None = None
) -> float:
    """log sum over all K^T tag paths of exp(path score)."""
    start = _check(emissions, transitions, start)
    _, logz = kernels.crf_alphas(emissions, transitions, start)
    return float(logz)


def crf_path_score(
    emissions: np.ndarray, transitions: np.ndarray, tags, start: np.ndarray | None = None
) -> float:
    start = _check(emissions, transitions, start)
    return _path_score(emissions, transitions, np.asarray(tags, dtype=np.int64), start)


def crf_posteriors(
    emissions: np.ndarray, transitions: np.ndarray, start: np.ndarray | None = None
):
    """Returns (unary (T, K), pairwise (T-1, K, K), logZ): exact marginals
    P(y_t = k) and P(y_t = j, y_{t+1} = k) from forward-backward."""
    return _posteriors(emissions, transitions, _check(emissions, transitions, start))


def crf_nll(
    emissions: np.ndarray,
    transitions: np.ndarray,
    tags,
    start: np.ndarray | None = None,
):
    """Negative log-likelihood of the gold path and its exact gradients.

    Returns (nll, d_emissions, d_transitions, d_start); each gradient is
    expected counts under the model minus observed gold counts."""
    start = _check(emissions, transitions, start)
    tags = np.asarray(tags, dtype=np.int64)
    unary, pair, logz = _posteriors(emissions, transitions, start)
    nll = logz - _path_score(emissions, transitions, tags, start)
    d_em = unary.copy()
    d_em[np.arange(len(tags)), tags] -= 1.0
    d_tr = pair.sum(axis=0)
    np.subtract.at(d_tr, (tags[:-1], tags[1:]), 1.0)
    d_start = unary[0].copy()
    d_start[tags[0]] -= 1.0
    return float(nll), d_em, d_tr, d_start


def _path_score(emissions, transitions, tags, start) -> float:
    score = float(start[tags[0]]) + float(emissions[np.arange(len(tags)), tags].sum())
    if len(tags) > 1:
        score += float(transitions[tags[:-1], tags[1:]].sum())
    return score


def _posteriors(emissions, transitions, start):
    alpha, logz = kernels.crf_alphas(emissions, transitions, start)
    beta = kernels.crf_betas(emissions, transitions)
    unary = np.exp(alpha + beta - logz)
    pair = np.exp(
        alpha[:-1, :, None] + transitions + emissions[1:, None, :] + beta[1:, None, :] - logz
    )
    return unary, pair, float(logz)


def crf_viterbi(
    emissions: np.ndarray, transitions: np.ndarray, start: np.ndarray | None = None
) -> tuple[list[int], float]:
    """Best tag path and its score; ties break toward the lowest tag index."""
    start = _check(emissions, transitions, start)
    path, score = kernels.crf_viterbi_path(emissions, transitions, start)
    return [int(t) for t in path], float(score)
