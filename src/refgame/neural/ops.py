"""Primitive differentiable operations: forward values plus exact analytic
backward passes.  No tape; callers thread (output, cache) pairs explicitly.
All functions are pure and dtype-preserving."""

from __future__ import annotations

import numpy as np


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x: (..., in), w: (out, in), b: (out,) -> (..., out)."""
    if x.shape[-1] != w.shape[1]:
        raise ValueError(f"linear: input dim {x.shape[-1]} != weight dim {w.shape[1]}")
    return x @ w.T + b


def linear_backward(dout: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Returns (dx, dw, db); batch axes are summed into the weight grads."""
    x2 = x.reshape(-1, x.shape[-1])
    d2 = dout.reshape(-1, dout.shape[-1])
    dw = d2.T @ x2
    db = d2.sum(axis=0)
    dx = dout @ w
    return dx, dw, db


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def tanh_backward(dout: np.ndarray, out: np.ndarray) -> np.ndarray:
    return dout * (1.0 - out * out)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(dout: np.ndarray, out: np.ndarray, axis: int = -1) -> np.ndarray:
    inner = np.sum(dout * out, axis=axis, keepdims=True)
    return out * (dout - inner)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    return x - logsumexp(x, axis=axis, keepdims=True)


def logsumexp(x: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    m = np.max(x, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out


def cross_entropy_rows(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean CE over rows.  logits: (N, V), targets: (N,) int.  Returns
    (loss, dlogits) with dlogits already divided by N."""
    n = logits.shape[0]
    logp = log_softmax(logits, axis=-1)
    loss = -float(logp[np.arange(n), targets].mean())
    d = softmax(logits, axis=-1)
    d[np.arange(n), targets] -= 1.0
    return loss, d / n


def bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean element-wise binary cross-entropy on logits (numerically stable).
    Returns (loss, dlogits) with dlogits divided by the element count."""
    z, targets = logits, targets.astype(logits.dtype, copy=False)
    loss = np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))
    d = (sigmoid(z) - targets) / z.size
    return float(loss.mean()), d


def mlp(x: np.ndarray, w1, b1, w2, b2):
    """linear -> tanh -> linear.  Returns (out, hidden) for backward."""
    h = tanh(linear(x, w1, b1))
    return linear(h, w2, b2), h


def mlp_backward(dout: np.ndarray, x, h, w1, w2):
    dh, dw2, db2 = linear_backward(dout, h, w2)
    da = tanh_backward(dh, h)
    dx, dw1, db1 = linear_backward(da, x, w1)
    return dx, dw1, db1, dw2, db2


def dropout_mask(rng: np.random.Generator, shape, rate: float, dtype=np.float64) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability ``rate``, survivors
    scaled by 1/(1-rate) so expectations match eval mode."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape, dtype=dtype)
    keep = (rng.random(shape) >= rate).astype(dtype)
    return keep / (1.0 - rate)
