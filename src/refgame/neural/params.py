"""Named parameter store with matching gradient buffers and a versioned,
exactly round-tripping checkpoint format (JSON map name -> shape/dtype/raw
little-endian bytes, base64)."""

from __future__ import annotations

import base64
import hashlib
import json
import math

import numpy as np

from ..errors import SchemaError
from ..io import atomic_write_text, read_json, read_list, read_value

CHECKPOINT_VERSION = 1


class ParamStore:
    """Ordered mapping name -> parameter array, plus a same-shaped gradient
    buffer per parameter.  Initialization is deterministic given the seed:
    matrices are uniform(-a, a) with a = 1/sqrt(fan_in), vectors zeros.

    ``version`` counts the updates made through ``load_values`` and
    ``Adam.step``; a value derived from the parameters is current while the
    version it was built at is."""

    def __init__(self, seed: int = 0, dtype=np.float64):
        self.seed = seed
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
        if set(values) != set(self.params):
            missing = sorted(set(self.params) - set(values))
            unexpected = sorted(set(values) - set(self.params))
            raise ValueError(f"parameter name mismatch: missing {missing}, unexpected {unexpected}")
        for k, v in values.items():
            if v.shape != self.params[k].shape or v.dtype != self.params[k].dtype:
                raise ValueError(
                    f"{k} is {v.dtype}{list(v.shape)}, not {self.params[k].dtype}{list(self.params[k].shape)}"
                )
            self.params[k][...] = v
        self.version += 1

    # --- checkpoint io ----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "format": "refgame-params",
            "version": CHECKPOINT_VERSION,
            "seed": self.seed,
            "dtype": self.dtype.name,
            "params": {
                name: {
                    "shape": list(arr.shape),
                    "dtype": arr.dtype.name,
                    "data": base64.b64encode(
                        np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes()
                    ).decode("ascii"),
                }
                for name, arr in self.params.items()
            },
        }

    def save(self, path) -> str:
        """Write the store to ``path``; returns the SHA-256 of the bytes written."""
        text = json.dumps(self.to_json_obj())
        atomic_write_text(path, text)
        return hashlib.sha256(text.encode()).hexdigest()

    @classmethod
    def from_json_obj(cls, obj) -> "ParamStore":
        """Raises SchemaError unless ``obj`` is a well-formed parameter object:
        every field has its JSON type, and every record has a known dtype,
        strict base64 data and exactly the bytes its shape needs."""
        if read_value(obj, "format", str) != "refgame-params":
            raise SchemaError("not a parameter checkpoint")
        if read_value(obj, "version", int) != CHECKPOINT_VERSION:
            raise SchemaError(f"unsupported checkpoint version {obj['version']!r}")
        try:
            store = cls(seed=read_value(obj, "seed", int, 0), dtype=np.dtype(read_value(obj, "dtype", str)))
            for name, rec in read_value(obj, "params", dict).items():
                dtype = np.dtype(read_value(rec, "dtype", str))
                data = base64.b64decode(read_value(rec, "data", str), validate=True)
                arr = np.frombuffer(data, dtype=dtype.newbyteorder("<"))
                arr = arr.astype(dtype).reshape(read_list(rec, "shape", int)).copy()
                store.params[name] = arr
                store.grads[name] = np.zeros_like(arr)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"malformed parameter checkpoint: {exc!r}") from exc
        return store

    @classmethod
    def load(cls, path, sha256: str | None = None) -> "ParamStore":
        """Read a ``save`` file; any damage, or bytes that do not hash to a
        given ``sha256``, raises SchemaError naming it."""
        obj = read_json(path, sha256)
        try:
            return cls.from_json_obj(obj)
        except SchemaError as exc:
            raise SchemaError(f"{path}: {exc}") from exc
