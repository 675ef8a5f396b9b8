"""Hot recurrent kernels: GRU sequence forward/backward and linear-chain CRF
forward/backward/Viterbi.  Each recurrence is written once: ``gru_step`` is
the one GRU cell, which ``gru_forward`` loops over and incremental decoding
calls per token, and each CRF recursion loops over time only, working on
whole tag vectors and (K, K) score matrices at every step.

Packed batches: B sequences sorted longest first are laid out as ``(T, B,
.)`` arrays with non-increasing row ``lengths`` (T = lengths[0]), as
PyTorch's ``pack_padded_sequence`` orders them.  Step t runs only the
first n_t rows, the live count (``_live``), so every step slices
``[:n_t]``, with no masks and no compute on padding; outputs are zero in
padding.  Code outside the recurrences that must tell steps from padding
reads ``live_mask``, the (T, B) form of the same counts.  One sequence is
the batch ``(T, 1, .)``, ``lengths = [T]``, for which every kernel gives
the bytes of the one-sequence loops in float64.

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


def by_length(seqs) -> list[int]:
    """Indices of ``seqs``, longest first; equal lengths keep their order."""
    return sorted(range(len(seqs)), key=lambda i: -len(seqs[i]))


def pack(seqs) -> np.ndarray:
    """Length-sorted int sequences -> a zero-padded (T, B) array."""
    out = np.zeros((len(seqs[0]), len(seqs)), dtype=np.int64)
    for b, seq in enumerate(seqs):
        out[: len(seq), b] = seq
    return out


def live_mask(lengths) -> np.ndarray:
    """(T, B) mask, true where a length-sorted row runs step t."""
    return np.arange(lengths[0])[:, None] < np.asarray(lengths)


def _live(lengths) -> list[int]:
    """n_t for each step t: how many of the length-sorted rows run at step t."""
    return np.count_nonzero(live_mask(lengths), axis=1).tolist()


# --- GRU ------------------------------------------------------------------

def gru_step(a: np.ndarray, u: np.ndarray, h: np.ndarray):
    """One GRU step over n rows.  a: (n, 3H) input projections W x + b; u:
    (3H, H); h: (n, H).  z and r come from one ``h @ U[:2H].T`` GEMM.
    Returns (h', z, r, hbar), each (n, H)."""
    H = h.shape[1]
    zr = 1.0 / (1.0 + np.exp(-(a[:, :2 * H] + h @ u[:2 * H].T)))
    z, r = zr[:, :H], zr[:, H:]
    hb = np.tanh(a[:, 2 * H:] + (r * h) @ u[2 * H:].T)
    return (1.0 - z) * h + z * hb, z, r, hb


def gru_forward(wx: np.ndarray, u: np.ndarray, lengths):
    """wx: (T, B, 3H) packed input projections W x_t + b; u: (3H, H).  Runs
    each row from a zero state.  Returns h_seq, z_seq, r_seq, hbar_seq,
    each (T, B, H).  h_seq is the view ``[1:]`` of a (T + 1, B, H) array
    whose step 0 is the zero state, so ``h_seq.base[:-1]`` is the state
    entering every step, without a copy."""
    T, B, _ = wx.shape
    h_all = np.zeros((T + 1, B, u.shape[1]), dtype=wx.dtype)
    z_seq, r_seq, hb_seq = (np.zeros_like(h_all[1:]) for _ in range(3))
    for t, n in enumerate(_live(lengths)):
        h_all[t + 1, :n], z_seq[t, :n], r_seq[t, :n], hb_seq[t, :n] = gru_step(wx[t, :n], u, h_all[t, :n])
    return h_all[1:], z_seq, r_seq, hb_seq


def gru_backward(u: np.ndarray, h_prev: np.ndarray, z_seq, r_seq, hb_seq, dh_seq, lengths):
    """Backward through time over the packed batch.  h_prev[t] is the state
    entering step t.  Returns da: (T, B, 3H) gradients on the
    pre-activations (z, r, h order).  Each ``U^T D^T`` product reads a
    contiguous ``U^T`` block, which for one row is the matvec bit for bit."""
    T, B, H = z_seq.shape
    uzT, urT, uhT = (np.ascontiguousarray(u[i * H:(i + 1) * H].T) for i in range(3))
    da = np.zeros((T, B, 3 * H), dtype=z_seq.dtype)
    dh = np.zeros((B, H), dtype=z_seq.dtype)
    for t, n in reversed(list(enumerate(_live(lengths)))):
        dht = dh[:n] + dh_seq[t, :n]
        z, r, hb, hp = (a[t, :n] for a in (z_seq, r_seq, hb_seq, h_prev))
        daz = dht * (hb - hp) * z * (1.0 - z)
        dah = dht * z * (1.0 - hb * hb)
        drh = (uhT @ dah.T).T
        dar = drh * hp * r * (1.0 - r)
        dh[:n] = dht * (1.0 - z) + (uzT @ daz.T).T + (urT @ dar.T).T + drh * r
        da[t, :n, 0:H], da[t, :n, H:2 * H], da[t, :n, 2 * H:] = daz, dar, dah
    return da


# --- linear-chain CRF -----------------------------------------------------

def _ends(lengths):
    """Index of each row's last step in a (T, B, .) array."""
    return np.asarray(lengths) - 1, np.arange(len(lengths))


def crf_alphas(emissions: np.ndarray, transitions: np.ndarray, lengths):
    """Log-space forward recursion over (n_t, K, K) scores per step, with no
    start scores.  Returns (alpha (T, B, K), logZ (B,) read at each row's
    last step)."""
    alpha = np.zeros_like(emissions)
    alpha[0] = emissions[0]
    for t, n in enumerate(_live(lengths)[1:], 1):
        s = alpha[t - 1, :n, :, None] + transitions
        m = s.max(axis=1)
        alpha[t, :n] = emissions[t, :n] + m + np.log(np.exp(s - m[:, None, :]).sum(axis=1))
    last = alpha[_ends(lengths)]
    m = last.max(axis=1)
    return alpha, m + np.log(np.exp(last - m[:, None]).sum(axis=1))


def crf_betas(emissions: np.ndarray, transitions: np.ndarray, lengths):
    """Log-space backward recursion; beta is 0 at each row's last step."""
    beta = np.zeros_like(emissions)
    for t, n in reversed(list(enumerate(_live(lengths)[1:]))):
        s = transitions + emissions[t + 1, :n, None, :] + beta[t + 1, :n, None, :]
        m = s.max(axis=2)
        beta[t, :n] = m + np.log(np.exp(s - m[:, :, None]).sum(axis=2))
    return beta


def crf_viterbi_path(emissions: np.ndarray, transitions: np.ndarray, start: np.ndarray, lengths):
    """Max-scoring tag path of each row with lowest-index tie-breaking at
    every argmax.  Returns (paths (T, B) int64, zero in padding; scores
    (B,))."""
    live = _live(lengths)
    delta = np.zeros_like(emissions)
    back = np.zeros(emissions.shape, dtype=np.int64)
    delta[0] = emissions[0] + start
    for t, n in enumerate(live[1:], 1):
        s = delta[t - 1, :n, :, None] + transitions
        back[t, :n] = s.argmax(axis=1)
        delta[t, :n] = emissions[t, :n] + s.max(axis=1)
    ends = _ends(lengths)
    path = np.zeros(emissions.shape[:2], dtype=np.int64)
    path[ends] = delta[ends].argmax(axis=1)
    for t in range(len(live) - 1, 0, -1):   # a row that ends at t - 1 keeps its argmax
        path[t - 1, :live[t]] = back[t, np.arange(live[t]), path[t, :live[t]]]
    return path, delta[ends].max(axis=1)
