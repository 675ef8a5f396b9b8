"""GRU cell and sequence wrappers over the recurrent kernels.

Parameter layout per GRU: W (3H, D_in), U (3H, H), b (3H,), gate blocks in
z, r, h order (see kernels.py for the cell equations)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .params import ParamStore


def add_gru_params(store: ParamStore, prefix: str, input_dim: int, hidden_dim: int) -> None:
    store.add(f"{prefix}.W", (3 * hidden_dim, input_dim))
    store.add(f"{prefix}.U", (3 * hidden_dim, hidden_dim))
    store.add(f"{prefix}.b", (3 * hidden_dim,), init="zeros")


def gru_cell(w: np.ndarray, u: np.ndarray, b: np.ndarray, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One step; used for incremental decoding in selfplay."""
    return kernels.gru_step(w @ x + b, u, h)[0]


@dataclass
class GRUCache:
    x_seq: np.ndarray
    h0: np.ndarray
    h_seq: np.ndarray
    z_seq: np.ndarray
    r_seq: np.ndarray
    hb_seq: np.ndarray


def gru_sequence(
    w: np.ndarray, u: np.ndarray, b: np.ndarray, x_seq: np.ndarray
) -> tuple[np.ndarray, GRUCache]:
    """Run the GRU over x_seq (T, D_in) from a zero state; returns
    (h_seq (T, H), cache)."""
    h0 = np.zeros(u.shape[1], dtype=x_seq.dtype)
    wx = x_seq @ w.T + b
    h_seq, z_seq, r_seq, hb_seq = kernels.gru_forward(wx, u, h0)
    return h_seq, GRUCache(x_seq, h0, h_seq, z_seq, r_seq, hb_seq)


def gru_sequence_backward(
    w: np.ndarray, u: np.ndarray, cache: GRUCache, dh_seq: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]:
    """Returns (dx_seq, grads {'W','U','b'}, dh0)."""
    hidden = u.shape[1]
    h_prev = np.vstack([cache.h0[None, :], cache.h_seq[:-1]])
    da, dh0 = kernels.gru_backward(
        u, h_prev, cache.z_seq, cache.r_seq, cache.hb_seq, dh_seq
    )
    dW = da.T @ cache.x_seq
    db = da.sum(axis=0)
    dx = da @ w
    dU = np.empty_like(u)
    dU[0:hidden] = da[:, 0:hidden].T @ h_prev
    dU[hidden:2 * hidden] = da[:, hidden:2 * hidden].T @ h_prev
    dU[2 * hidden:] = da[:, 2 * hidden:].T @ (cache.r_seq * h_prev)
    return dx, {"W": dW, "U": dU, "b": db}, dh0
