"""Hot recurrent kernels: GRU sequence forward/backward and linear-chain CRF
forward/backward/Viterbi, as plain numpy loops.

Conventions (fixed, documented, used by every caller):
  GRU gate order in the stacked (3H, .) parameter blocks is z, r, h with
    z = sigmoid(Wz x + Uz h + bz)
    r = sigmoid(Wr x + Ur h + br)
    hbar = tanh(Wh x + Uh (r*h) + bh)
    h' = (1 - z)*h + z*hbar
  CRF scores are log-potentials; a path scores sum(emissions) +
  sum(transitions) (+ start score on the first tag).
"""

from __future__ import annotations

import numpy as np


def get_backend() -> str:
    """Name of the kernel implementation, recorded in run provenance."""
    return "numpy"


# --- GRU ------------------------------------------------------------------

def gru_forward(wx: np.ndarray, u: np.ndarray, h0: np.ndarray):
    """wx: (T, 3H) precomputed input projections W x_t + b; u: (3H, H);
    h0: (H,).  Returns h_seq, z_seq, r_seq, hbar_seq, each (T, H)."""
    T = wx.shape[0]
    H = h0.shape[0]
    uz = u[0:H]
    ur = u[H:2 * H]
    uh = u[2 * H:3 * H]
    h_seq = np.empty((T, H), dtype=wx.dtype)
    z_seq = np.empty((T, H), dtype=wx.dtype)
    r_seq = np.empty((T, H), dtype=wx.dtype)
    hb_seq = np.empty((T, H), dtype=wx.dtype)
    h = h0.copy()
    for t in range(T):
        z = 1.0 / (1.0 + np.exp(-(wx[t, 0:H] + np.dot(uz, h))))
        r = 1.0 / (1.0 + np.exp(-(wx[t, H:2 * H] + np.dot(ur, h))))
        hb = np.tanh(wx[t, 2 * H:3 * H] + np.dot(uh, r * h))
        h = (1.0 - z) * h + z * hb
        h_seq[t] = h
        z_seq[t] = z
        r_seq[t] = r
        hb_seq[t] = hb
    return h_seq, z_seq, r_seq, hb_seq


def gru_backward(u: np.ndarray, h_prev: np.ndarray, z_seq, r_seq, hb_seq, dh_seq):
    """Backward through time.  h_prev[t] is the state entering step t.
    Returns da: (T, 3H) gradients on the pre-activations (z, r, h order)
    and dh0: gradient on the initial state."""
    T, H = z_seq.shape
    uzT = np.ascontiguousarray(u[0:H].T)
    urT = np.ascontiguousarray(u[H:2 * H].T)
    uhT = np.ascontiguousarray(u[2 * H:3 * H].T)
    da = np.zeros((T, 3 * H), dtype=z_seq.dtype)
    dh = np.zeros(H, dtype=z_seq.dtype)
    for t in range(T - 1, -1, -1):
        dht = dh + dh_seq[t]
        z = z_seq[t]
        r = r_seq[t]
        hb = hb_seq[t]
        hp = h_prev[t]
        daz = dht * (hb - hp) * z * (1.0 - z)
        dah = dht * z * (1.0 - hb * hb)
        drh = np.dot(uhT, dah)
        dar = drh * hp * r * (1.0 - r)
        dh = dht * (1.0 - z) + np.dot(uzT, daz) + np.dot(urT, dar) + drh * r
        da[t, 0:H] = daz
        da[t, H:2 * H] = dar
        da[t, 2 * H:3 * H] = dah
    return da, dh


# --- linear-chain CRF -----------------------------------------------------

def crf_alphas(emissions: np.ndarray, transitions: np.ndarray, start: np.ndarray):
    """Log-space forward recursion.  Returns (alpha (T, K), logZ)."""
    T, K = emissions.shape
    alpha = np.empty((T, K), dtype=emissions.dtype)
    alpha[0] = emissions[0] + start
    for t in range(1, T):
        for k in range(K):
            m = alpha[t - 1, 0] + transitions[0, k]
            for j in range(1, K):
                v = alpha[t - 1, j] + transitions[j, k]
                if v > m:
                    m = v
            s = 0.0
            for j in range(K):
                s += np.exp(alpha[t - 1, j] + transitions[j, k] - m)
            alpha[t, k] = emissions[t, k] + m + np.log(s)
    m = alpha[T - 1, 0]
    for k in range(1, K):
        if alpha[T - 1, k] > m:
            m = alpha[T - 1, k]
    s = 0.0
    for k in range(K):
        s += np.exp(alpha[T - 1, k] - m)
    return alpha, m + np.log(s)


def crf_betas(emissions: np.ndarray, transitions: np.ndarray):
    """Log-space backward recursion.  beta[T-1] = 0."""
    T, K = emissions.shape
    beta = np.zeros((T, K), dtype=emissions.dtype)
    for t in range(T - 2, -1, -1):
        for j in range(K):
            m = transitions[j, 0] + emissions[t + 1, 0] + beta[t + 1, 0]
            for k in range(1, K):
                v = transitions[j, k] + emissions[t + 1, k] + beta[t + 1, k]
                if v > m:
                    m = v
            s = 0.0
            for k in range(K):
                s += np.exp(transitions[j, k] + emissions[t + 1, k] + beta[t + 1, k] - m)
            beta[t, j] = m + np.log(s)
    return beta


def crf_viterbi_path(emissions: np.ndarray, transitions: np.ndarray, start: np.ndarray):
    """Max-scoring tag path with lowest-index tie-breaking at every argmax.
    Returns (path (T,) int64, score)."""
    T, K = emissions.shape
    delta = np.empty((T, K), dtype=emissions.dtype)
    back = np.zeros((T, K), dtype=np.int64)
    delta[0] = emissions[0] + start
    for t in range(1, T):
        for k in range(K):
            best = delta[t - 1, 0] + transitions[0, k]
            arg = 0
            for j in range(1, K):
                v = delta[t - 1, j] + transitions[j, k]
                if v > best:
                    best = v
                    arg = j
            delta[t, k] = emissions[t, k] + best
            back[t, k] = arg
    best = delta[T - 1, 0]
    arg = 0
    for k in range(1, K):
        if delta[T - 1, k] > best:
            best = delta[T - 1, k]
            arg = k
    path = np.empty(T, dtype=np.int64)
    path[T - 1] = arg
    for t in range(T - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path, best
