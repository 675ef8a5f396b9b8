"""Adam optimizer over a ParamStore, with bias correction, and the one
minibatch training loop that drives it."""

from __future__ import annotations

import json
import math
import time
from typing import Callable, Sequence

import numpy as np

from ..errors import DivergenceError
from ..io import atomic_write_text
from .params import ParamStore


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, store: ParamStore, lr: float = 1e-3):
        self.store = store
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in store.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in store.params.items()}

    def step(self) -> None:
        """One update with bias-corrected moments.  Every operation writes
        into two scratch buffers, in the order of ``p -= lr * (m / b1t) /
        (sqrt(v / b2t) + EPS)``, so the parameters keep that expression's
        bytes.  The buffers are sized to the largest parameter and live for
        one step: held across steps, they would add to the memory that
        training holds while it runs the model."""
        self.t += 1
        self.store.version += 1
        b1t = 1.0 - BETA1 ** self.t
        b2t = 1.0 - BETA2 ** self.t
        size = max((p.size for p in self.store.params.values()), default=0)
        buf1, buf2 = (np.empty(size, dtype=self.store.dtype) for _ in range(2))
        for name, p in self.store.params.items():
            g = self.store.grads[name]
            if not np.all(np.isfinite(g)):
                raise DivergenceError(f"non-finite gradient for parameter {name!r}")
            m, v = self.m[name], self.v[name]
            s1, s2 = buf1[: p.size].reshape(p.shape), buf2[: p.size].reshape(p.shape)
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=s1)
            v *= BETA2
            np.multiply(g, g, out=s1)
            v += np.multiply(s1, 1.0 - BETA2, out=s1)
            np.divide(m, b1t, out=s1)
            np.multiply(s1, self.lr, out=s1)
            np.divide(v, b2t, out=s2)
            np.sqrt(s2, out=s2)
            np.add(s2, EPS, out=s2)
            p -= np.divide(s1, s2, out=s1)


def fit(
    store: ParamStore,
    examples: Sequence,
    step: Callable[[list, np.random.Generator], Sequence[float]],
    validate: Callable[[], tuple[float, dict]],
    config,
    loss_key: str,
    *,
    log_path=None,
    quiet: bool = True,
) -> tuple[list[dict], int]:
    """Minibatch Adam with global-norm clipping and early stopping, reading
    lr, grad_clip, batch_size, epochs, patience and seed from ``config``.

    ``step(batch, rng)`` accumulates a minibatch's summed gradients into
    ``store`` and returns its per-example losses, in batch order; each is
    checked and added in that order.  ``validate()`` returns ``(score,
    fields)``, lower score better.  The rng that shuffles each epoch is the
    one handed to ``step``.  The best epoch's parameters are restored, and
    each epoch record goes to stdout unless ``quiet`` and to the JSONL
    ``log_path``, which is rewritten whole after every epoch, so a run that
    stops on DivergenceError leaves the epochs it finished.  A record holds
    the mean loss under ``loss_key``, the mean pre-clip gradient norm over
    the epoch's minibatches (``grad_norm``), the share of minibatches that
    were clipped (``clip_rate``), then ``fields`` and the epoch's
    ``seconds``.  Returns ``(history, best_epoch)``."""
    opt = Adam(store, lr=config.lr)
    rng = np.random.default_rng(config.seed)
    best_score = math.inf
    best_params: dict[str, np.ndarray] | None = None
    best_epoch = -1
    patience_left = config.patience
    history: list[dict] = []
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(len(examples))
        total = 0.0
        norms = []
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo: lo + config.batch_size]
            store.zero_grads()
            for loss in step([examples[i] for i in batch], rng):
                if not np.isfinite(loss):
                    raise DivergenceError(f"non-finite training loss at epoch {epoch}")
                total += loss
            store.scale_grads(1.0 / len(batch))
            norms.append(store.clip_grad_global_norm(config.grad_clip))
            opt.step()
        score, fields = validate()
        record = {
            "epoch": epoch,
            loss_key: total / len(examples),
            "grad_norm": sum(norms) / len(norms),
            "clip_rate": sum(n > config.grad_clip > 0 for n in norms) / len(norms),
            **fields,
            "seconds": round(time.perf_counter() - t0, 3),
        }
        history.append(record)
        if log_path is not None:
            atomic_write_text(log_path, "\n".join(map(json.dumps, history)) + "\n")
        if not quiet:
            print(json.dumps(record))
        if score < best_score:
            best_score = score
            best_params = store.copy_values()
            best_epoch = epoch
            patience_left = config.patience
        else:
            patience_left -= 1
            if patience_left <= 0:
                break
    if best_params is not None:
        store.load_values(best_params)
    return history, best_epoch
