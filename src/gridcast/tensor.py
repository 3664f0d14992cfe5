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

from .errors import ParameterError


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
    # the row maxima as column maxima of the transpose: a max is exact in
    # any order, and numpy's max over many short rows costs up to 9x more
    top = np.ascontiguousarray(x.T).max(axis=0)
    z = np.exp(x - top[:, None])
    return z / z.sum(axis=1, keepdims=True)


# --- reproducible random stream ------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


_GOLDEN64 = np.uint64(_GOLDEN)
_MUL1, _MUL2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SHIFT1, _SHIFT2, _SHIFT3 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array, in place (arrays wrap silently)."""
    z ^= z >> _SHIFT1
    z *= _MUL1
    z ^= z >> _SHIFT2
    z *= _MUL2
    z ^= z >> _SHIFT3
    return z


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
        self._key = np.uint64(_mix_int(self.seed ^ _GOLDEN))
        self._counter = 0

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 words."""
        z = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        self._counter += n
        z *= _GOLDEN64
        z += self._key
        return _mix64(z)

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
        """Fisher-Yates permutation of range(n), from the next n - 1 words."""
        draws = self.raw(max(n - 1, 0)) % _moduli(n)
        return np.array(_fisher_yates(n, draws), dtype=np.int64)

    def spawn(self, tag: int) -> "RngState":
        """Independent child stream determined by (this stream's key, tag)."""
        child = RngState(0)
        child.seed = self.seed
        child._key = np.uint64(_mix_int(int(self._key) ^ _mix_int((tag & _MASK64) + _GOLDEN)))
        child._counter = 0
        return child


def _moduli(n: int) -> np.ndarray:
    """Draw t of a Fisher-Yates permutation of range(n) is taken modulo n - t."""
    return np.arange(n, 1, -1, dtype=np.uint64)


def _fisher_yates(n: int, partners: np.ndarray) -> list:
    """range(n), swapping position n-1-t with ``partners[t]`` for t = 0, 1, ...

    The swaps run on a Python list because per-element numpy indexing
    costs several times more.
    """
    perm = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), partners.tolist()):
        perm[i], perm[j] = perm[j], perm[i]
    return perm


# Entries (heads * n) that ``permutation_heads`` works out at once. More
# heads are taken in chunks, so a chunk's few (n, heads) arrays stay near
# HEAD_WORDS entries.
HEAD_WORDS = 1 << 16


def permutation_heads(streams: list, counts, n: int, k: int) -> np.ndarray:
    """The next ``counts[i]`` draws of ``streams[i].permutation(n)[:k]`` for each i.

    Returns (sum(counts), k) heads, stream by stream, each stream's in
    draw order, and advances each stream by n - 1 words per head, as
    ``permutation`` would: the heads and final counters are those of
    one-at-a-time draws. All heads of a chunk take one mix over their
    words and one Fisher-Yates swap loop over all of them at once.
    """
    counts = np.asarray(counts, dtype=np.int64)
    words, total = n - 1, int(counts.sum())
    keys = np.repeat(np.array([s._key for s in streams], dtype=np.uint64), counts)
    # head h of a stream starts h * (n - 1) words past the stream's counter
    ahead = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    firsts = (np.repeat(np.array([s._counter for s in streams], dtype=np.uint64), counts)
              + ahead.astype(np.uint64) * np.uint64(words))
    moduli = _moduli(n)[:, None]
    step = max(1, HEAD_WORDS // n)
    heads = np.empty((total, k), dtype=np.int64)
    for lo in range(0, total, step):
        rows = min(step, total - lo)
        # word t of every head sits in row t, so each swap step reads one row
        z = firsts[lo:lo + rows] + np.arange(words, dtype=np.uint64)[:, None]
        z *= _GOLDEN64
        z += keys[lo:lo + rows]
        partners = _mix64(z)
        partners %= moduli
        partners = partners.view(np.int64)      # each entry is below n
        base = np.arange(rows) * n
        partners += base
        perm = np.tile(np.arange(n), rows)
        for t, i in enumerate(range(n - 1, 0, -1)):
            here, there = base + i, partners[t]
            held = perm[here]
            perm[here] = perm[there]
            perm[there] = held
        heads[lo:lo + rows] = perm.reshape(rows, n)[:, :k]
    for stream, count in zip(streams, counts.tolist()):
        stream._counter += count * words
    return heads
