"""Linear-chain CRF: negative log-likelihood with exact gradients
(forward-backward), and Viterbi decoding with deterministic lowest-index
tie-breaking."""

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
    alpha, logz = kernels.crf_alphas(emissions, transitions, start)
    beta = kernels.crf_betas(emissions, transitions)
    unary = np.exp(alpha + beta - logz)
    pair = np.exp(
        alpha[:-1, :, None] + transitions + emissions[1:, None, :] + beta[1:, None, :] - logz
    )
    score = float(start[tags[0]]) + float(emissions[np.arange(len(tags)), tags].sum())
    if len(tags) > 1:
        score += float(transitions[tags[:-1], tags[1:]].sum())
    nll = float(logz) - score
    d_em = unary.copy()
    d_em[np.arange(len(tags)), tags] -= 1.0
    d_tr = pair.sum(axis=0)
    np.subtract.at(d_tr, (tags[:-1], tags[1:]), 1.0)
    d_start = unary[0].copy()
    d_start[tags[0]] -= 1.0
    return nll, d_em, d_tr, d_start


def crf_viterbi(
    emissions: np.ndarray, transitions: np.ndarray, start: np.ndarray | None = None
) -> tuple[list[int], float]:
    """Best tag path and its score; ties break toward the lowest tag index."""
    start = _check(emissions, transitions, start)
    path, score = kernels.crf_viterbi_path(emissions, transitions, start)
    return [int(t) for t in path], float(score)
