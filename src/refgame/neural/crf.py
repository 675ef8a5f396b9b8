"""Linear-chain CRF over packed batches (layout in kernels.py): per-row
negative log-likelihoods with exact gradients (forward-backward), and
Viterbi decoding with deterministic lowest-index tie-breaking."""

from __future__ import annotations

import numpy as np

from . import kernels


def _check(emissions: np.ndarray, transitions: np.ndarray, lengths) -> None:
    if emissions.ndim != 3 or min(emissions.shape[:2]) < 1 or emissions.shape[2] < 2:
        raise ValueError("emissions must be (T>=1, B>=1, K>=2)")
    lengths = np.asarray(lengths)
    if lengths.shape != emissions.shape[1:2] or lengths[0] != len(emissions) or lengths[-1] < 1 \
            or np.any(np.diff(lengths) > 0):
        raise ValueError(f"lengths must be B non-increasing values in 1..T, the first T: {lengths}")
    k = emissions.shape[2]
    if transitions.shape != (k, k):
        raise ValueError(f"transitions must be ({k}, {k})")
    if not np.all(np.isfinite(emissions)):
        raise ValueError("non-finite emissions")
    if not np.all(np.isfinite(transitions)):
        raise ValueError("non-finite transitions")


def crf_nll(emissions: np.ndarray, transitions: np.ndarray, tags, lengths):
    """Negative log-likelihood of each row's gold path in ``tags`` (T, B),
    with no start scores, and the exact gradients of their sum.

    Returns (nll (B,), d_emissions (T, B, K), d_transitions); each gradient
    is expected counts under the model minus observed gold counts, and
    d_emissions is zero in padding."""
    _check(emissions, transitions, lengths)
    live = kernels.live_mask(lengths)
    tags = np.where(live, np.asarray(tags, dtype=np.int64), 0)
    alpha, logz = kernels.crf_alphas(emissions, transitions, lengths)
    beta = kernels.crf_betas(emissions, transitions, lengths)
    # padding gets log-marginal -inf, so marginal 0
    unary = np.exp(np.where(live[..., None], alpha + beta - logz[:, None], -np.inf))
    pair = np.exp(np.where(live[1:, :, None, None], alpha[:-1, :, :, None] + transitions
                           + (emissions + beta - logz[:, None])[1:, :, None, :], -np.inf))
    gold_emit = np.take_along_axis(emissions, tags[..., None], axis=2)[..., 0]
    score = np.where(live, gold_emit, 0.0).sum(axis=0) \
        + np.where(live[1:], transitions[tags[:-1], tags[1:]], 0.0).sum(axis=0)
    d_tr = pair.sum(axis=(0, 1))
    np.subtract.at(d_tr, (tags[:-1][live[1:]], tags[1:][live[1:]]), 1.0)
    unary[live, tags[live]] -= 1.0
    return logz - score, unary, d_tr


def crf_viterbi(emissions: np.ndarray, transitions: np.ndarray, lengths, start: np.ndarray):
    """Best tag path of each row (a list of lists) under the (K,) ``start``
    scores, and the paths' scores; ties break toward the lowest tag index."""
    _check(emissions, transitions, lengths)
    k = emissions.shape[2]
    if start.shape != (k,) or not np.all(np.isfinite(start)):
        raise ValueError("start scores must be a finite (K,) vector")
    path, score = kernels.crf_viterbi_path(emissions, transitions, start, lengths)
    return [path[:n, b].tolist() for b, n in enumerate(lengths)], score.tolist()
