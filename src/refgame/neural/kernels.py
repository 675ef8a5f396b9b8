"""Hot recurrent kernels: GRU sequence forward/backward and linear-chain CRF
forward/backward/Viterbi.  Each recurrence is written once: ``gru_step`` is
the one GRU cell, which ``gru_forward`` loops over and incremental decoding
calls per token, and each CRF recursion loops over time only, working on
whole tag vectors and (K, K) score matrices at every step.

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

def gru_step(a: np.ndarray, u: np.ndarray, h: np.ndarray):
    """One GRU step.  a: (3H,) input projection W x + b; u: (3H, H); h: (H,).
    Returns (h', z, r, hbar), each (H,)."""
    H = h.shape[0]
    z = 1.0 / (1.0 + np.exp(-(a[0:H] + np.dot(u[0:H], h))))
    r = 1.0 / (1.0 + np.exp(-(a[H:2 * H] + np.dot(u[H:2 * H], h))))
    hb = np.tanh(a[2 * H:3 * H] + np.dot(u[2 * H:3 * H], r * h))
    return (1.0 - z) * h + z * hb, z, r, hb


def gru_forward(wx: np.ndarray, u: np.ndarray):
    """wx: (T, 3H) precomputed input projections W x_t + b; u: (3H, H).
    Runs from a zero state.  Returns h_seq, z_seq, r_seq, hbar_seq, each
    (T, H)."""
    T = wx.shape[0]
    H = u.shape[1]
    h_seq = np.empty((T, H), dtype=wx.dtype)
    z_seq = np.empty((T, H), dtype=wx.dtype)
    r_seq = np.empty((T, H), dtype=wx.dtype)
    hb_seq = np.empty((T, H), dtype=wx.dtype)
    h = np.zeros(H, dtype=wx.dtype)
    for t in range(T):
        h, z_seq[t], r_seq[t], hb_seq[t] = gru_step(wx[t], u, h)
        h_seq[t] = h
    return h_seq, z_seq, r_seq, hb_seq


def gru_backward(u: np.ndarray, h_prev: np.ndarray, z_seq, r_seq, hb_seq, dh_seq):
    """Backward through time.  h_prev[t] is the state entering step t.
    Returns da: (T, 3H) gradients on the pre-activations (z, r, h order)."""
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
    return da


# --- linear-chain CRF -----------------------------------------------------

def crf_alphas(emissions: np.ndarray, transitions: np.ndarray, start: np.ndarray):
    """Log-space forward recursion.  Returns (alpha (T, K), logZ)."""
    T = emissions.shape[0]
    alpha = np.empty_like(emissions)
    alpha[0] = emissions[0] + start
    for t in range(1, T):
        s = alpha[t - 1][:, None] + transitions
        m = s.max(axis=0)
        alpha[t] = emissions[t] + m + np.log(np.exp(s - m).sum(axis=0))
    m = alpha[T - 1].max()
    return alpha, m + np.log(np.exp(alpha[T - 1] - m).sum())


def crf_betas(emissions: np.ndarray, transitions: np.ndarray):
    """Log-space backward recursion.  beta[T-1] = 0."""
    T = emissions.shape[0]
    beta = np.zeros_like(emissions)
    for t in range(T - 2, -1, -1):
        s = transitions + emissions[t + 1] + beta[t + 1]
        m = s.max(axis=1)
        beta[t] = m + np.log(np.exp(s - m[:, None]).sum(axis=1))
    return beta


def crf_viterbi_path(emissions: np.ndarray, transitions: np.ndarray, start: np.ndarray):
    """Max-scoring tag path with lowest-index tie-breaking at every argmax.
    Returns (path (T,) int64, score)."""
    T = emissions.shape[0]
    delta = np.empty_like(emissions)
    back = np.zeros(emissions.shape, dtype=np.int64)
    delta[0] = emissions[0] + start
    for t in range(1, T):
        s = delta[t - 1][:, None] + transitions
        back[t] = s.argmax(axis=0)
        delta[t] = emissions[t] + s.max(axis=0)
    path = np.empty(T, dtype=np.int64)
    path[T - 1] = delta[T - 1].argmax()
    for t in range(T - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path, delta[T - 1, path[T - 1]]
