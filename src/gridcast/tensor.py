"""Minimal dense float64 numerics plus a reproducible random stream.

All higher layers operate on plain numpy float64 ndarrays (1-3 axes,
row-major). This module is the only place that talks to numpy's math
directly for the primitives below; everything else composes them.

Randomness comes from :class:`RngState`, a counter-based SplitMix64
stream implemented here so that identical seeds give bit-identical
draws on every platform, independent of numpy's own generators.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParameterError


def as_tensor(data) -> np.ndarray:
    """Coerce to a float64 ndarray (copies only when needed)."""
    return np.asarray(data, dtype=np.float64)


def sigmoid(x) -> np.ndarray:
    """Logistic function, finite for all finite inputs.

    exp(-x) may overflow to inf for very negative x; 1/(1+inf) is the
    correct 0.0, so only the warning is suppressed.
    """
    x = as_tensor(x)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def softmax_rows(x) -> np.ndarray:
    """Row-wise softmax of a 2-D tensor."""
    x = as_tensor(x)
    if x.ndim != 2 or x.shape[1] == 0:
        raise DimensionError(f"softmax_rows needs a non-empty 2-D tensor, got shape {x.shape}")
    z = np.exp(x - x.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


# --- reproducible random stream ------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array (arrays wrap silently)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _mix_int(v: int) -> int:
    return int(_mix64(np.array([v & _MASK64], dtype=np.uint64))[0])


class RngState:
    """Counter-based SplitMix64 stream.

    Draw i of a stream with key k is mix64(k + GOLDEN * (counter + i)),
    so equal seeds give bit-identical sequences everywhere. ``spawn``
    derives an independent child stream from a tag, used for per-tree
    and per-subsystem seeding.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._key = _mix_int(self.seed ^ _GOLDEN)
        self._counter = 0

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 words."""
        idx = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        self._counter += n
        return _mix64(np.uint64(self._key) + np.uint64(_GOLDEN) * idx)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on [0, 1) with 53 random bits each."""
        return (self.raw(n) >> np.uint64(11)) * 2.0 ** -53

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        u = self.uniforms(n)
        return (low + (high - low) * u).reshape(shape)

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normals via Box-Muller."""
        m = (n + 1) // 2
        u1 = ((self.raw(m) >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53  # (0, 1]
        u2 = (self.raw(m) >> np.uint64(11)) * 2.0 ** -53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]

    def integers(self, bound: int, n: int) -> np.ndarray:
        """``n`` ints uniform on [0, bound). Modulo bias is negligible here."""
        if bound <= 0:
            raise ParameterError(f"integers bound must be positive, got {bound}")
        return (self.raw(n) % np.uint64(bound)).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        perm = np.arange(n, dtype=np.int64)
        if n > 1:
            draws = self.raw(n - 1)
            for i in range(n - 1, 0, -1):
                j = int(draws[n - 1 - i] % np.uint64(i + 1))
                perm[i], perm[j] = perm[j], perm[i]
        return perm

    def spawn(self, tag: int) -> "RngState":
        """Independent child stream determined by (this stream's key, tag)."""
        child = RngState(0)
        child.seed = self.seed
        child._key = _mix_int(self._key ^ _mix_int((tag & _MASK64) + _GOLDEN))
        child._counter = 0
        return child
