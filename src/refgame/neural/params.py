"""Named parameter store with matching gradient buffers.  It does no file
io: ``model.save_checkpoint`` writes its values and ``load_values`` takes
them back."""

from __future__ import annotations

import math

import numpy as np


class ParamStore:
    """Ordered mapping name -> parameter array, plus a same-shaped gradient
    buffer per parameter.  Initialization is deterministic given the seed:
    matrices are uniform(-a, a) with a = 1/sqrt(fan_in), vectors zeros.

    ``version`` counts the updates made through ``load_values`` and
    ``Adam.step``; a value derived from the parameters is current while the
    version it was built at is.  A pickle carries no gradients: they come
    back as zeros."""

    def __init__(self, seed: int = 0, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self.rng = np.random.default_rng(seed)
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.version = 0

    def add(self, name: str, shape: tuple[int, ...], init: str = "auto") -> np.ndarray:
        if name in self.params:
            raise ValueError(f"duplicate parameter {name!r}")
        if init == "auto":
            init = "uniform" if len(shape) >= 2 else "zeros"
        if init == "zeros":
            value = np.zeros(shape, dtype=self.dtype)
        elif init == "uniform":
            a = 1.0 / math.sqrt(shape[-1])
            value = self.rng.uniform(-a, a, size=shape).astype(self.dtype)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.params[name] = value
        self.grads[name] = np.zeros(shape, dtype=self.dtype)
        return value

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "grads"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.grads = {k: np.zeros(v.shape, dtype=self.dtype) for k, v in self.params.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        return self.params[name]

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def scale_grads(self, factor: float) -> None:
        for g in self.grads.values():
            g *= factor

    def grad_global_norm(self) -> float:
        total = 0.0
        for g in self.grads.values():
            total += float(np.sum(g * g))
        return math.sqrt(total)

    def clip_grad_global_norm(self, max_norm: float) -> float:
        norm = self.grad_global_norm()
        if norm > max_norm > 0:
            self.scale_grads(max_norm / norm)
        return norm

    def copy_values(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        """Copy ``values`` into the parameters.  ValueError, with nothing
        written, unless they have the store's names, shapes and dtype."""
        if set(values) != set(self.params):
            missing = sorted(set(self.params) - set(values))
            unexpected = sorted(set(values) - set(self.params))
            raise ValueError(f"parameter name mismatch: missing {missing}, unexpected {unexpected}")
        for k, v in values.items():
            if v.shape != self.params[k].shape or v.dtype != self.params[k].dtype:
                raise ValueError(
                    f"{k} is {v.dtype}{list(v.shape)}, not {self.params[k].dtype}{list(self.params[k].shape)}"
                )
        for k, v in values.items():
            self.params[k][...] = v
        self.version += 1
