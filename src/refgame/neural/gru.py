"""GRU cell and sequence wrappers over the recurrent kernels.

Parameter layout per GRU: W (3H, D_in), U (3H, H), b (3H,), gate blocks in
z, r, h order.  Sequences are packed batches (see kernels.py for the
layout and the cell equations)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .params import ParamStore


def add_gru_params(store: ParamStore, prefix: str, input_dim: int, hidden_dim: int) -> None:
    store.add(f"{prefix}.W", (3 * hidden_dim, input_dim))
    store.add(f"{prefix}.U", (3 * hidden_dim, hidden_dim))
    store.add(f"{prefix}.b", (3 * hidden_dim,), init="zeros")


def gru_cell(a: np.ndarray, u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One step of n rows (n, H) from their precomputed input projections
    ``a = W x + b`` (n, 3H); used for incremental decoding in selfplay."""
    return kernels.gru_step(a, u, h)[0]


@dataclass
class GRUCache:
    x_seq: np.ndarray
    h_seq: np.ndarray
    z_seq: np.ndarray | None
    r_seq: np.ndarray | None
    hb_seq: np.ndarray | None
    lengths: np.ndarray


def gru_sequence(
    w: np.ndarray, u: np.ndarray, b: np.ndarray, x_seq: np.ndarray, lengths
) -> tuple[np.ndarray, GRUCache]:
    """Run the GRU from a zero state over each row of the packed batch x_seq
    (T, B, D_in); returns (h_seq (T, B, H), cache).  The input projection
    is one GEMM over all T*B rows."""
    T, B, D = x_seq.shape
    wx = (x_seq.reshape(T * B, D) @ w.T).reshape(T, B, -1)
    wx += b
    h_seq, z_seq, r_seq, hb_seq = kernels.gru_forward(wx, u, lengths)
    return h_seq, GRUCache(x_seq, h_seq, z_seq, r_seq, hb_seq, lengths)


def gru_sequence_backward(
    w: np.ndarray, u: np.ndarray, cache: GRUCache, dh_seq: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Returns (dx_seq (T, B, D_in), grads {'W','U','b'} summed over rows).

    Consumes ``cache``, to hold fewer (T, B, H) arrays at once: its z and
    hbar arrays are dropped once the pre-activation gradients exist, and
    ``r * h_prev`` is written over its r array.  A second call on the same
    cache raises."""
    H = u.shape[1]
    h_prev = cache.h_seq.base[:-1]   # a view; see kernels.gru_forward
    da = kernels.gru_backward(u, h_prev, cache.z_seq, cache.r_seq, cache.hb_seq, dh_seq, cache.lengths)
    r = cache.r_seq
    cache.z_seq = cache.r_seq = cache.hb_seq = None
    # every (T, B, .) array as T*B rows; padding rows of da are zero
    da, x, h_prev, rh = (a.reshape(-1, a.shape[-1]) for a in (da, cache.x_seq, h_prev, r))
    np.multiply(rh, h_prev, out=rh)
    dU = np.concatenate([da[:, :H].T @ h_prev, da[:, H:2 * H].T @ h_prev, da[:, 2 * H:].T @ rh])
    del r, rh
    return (da @ w).reshape(cache.x_seq.shape), {"W": da.T @ x, "U": dU, "b": da.sum(axis=0)}
