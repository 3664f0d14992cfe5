"""Network layers with explicit forward and backward passes.

Every layer runs on a batch. The sequence layers (``Conv1d``, ``Gru``,
``Attention``) take windows shaped (B, T, F): B windows of T steps with
F features each. A single (T, F) window is a batch of 1: it is viewed
as (1, T, F) on entry and its result is squeezed back on exit, so both
shapes run the same code. The row-wise layers (``LayerNorm``,
``Dense``, ``Dropout``, ``Relu``) act on the last axis and accept any
leading axes.

Each layer caches the activations its backward pass needs during
``forward`` and releases them when ``backward`` consumes them, so a
layer instance pairs exactly one backward with one forward.
``backward`` takes the upstream gradient in the shape ``forward``
returned and gives back the gradient with respect to the layer input in
the input's shape. Parameter gradients are summed over every window of
the batch and stored in ``self.grads`` (same keys and shapes as
``params()``). No autodiff anywhere: every gradient below is the
hand-derived derivative of the forward map, and the test suite checks
all of them against central finite differences.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParameterError, StateError
from .tensor import RngState, as_tensor, sigmoid, softmax_rows


def glorot_uniform(rng: RngState, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def _as_batch(x, width: int, name: str):
    """``x`` as a (B, T, width) batch, plus whether it was a single (T, width) window."""
    x = as_tensor(x)
    if x.ndim not in (2, 3) or x.shape[-1] != width:
        raise DimensionError(f"{name} expects (T, {width}) or (B, T, {width}) input, got {x.shape}")
    single = x.ndim == 2
    return (x[np.newaxis] if single else x), single


def _rows(x, width: int, name: str) -> np.ndarray:
    """``x`` checked to be (..., width) with at least one leading axis."""
    x = as_tensor(x)
    if x.ndim < 2 or x.shape[-1] != width:
        raise DimensionError(f"{name} expects (n, {width}) or (..., {width}) input, got {x.shape}")
    return x


class _Layer:
    """Shared cache/grads bookkeeping."""

    def __init__(self):
        self._cache = None
        self.grads: dict[str, np.ndarray] = {}

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def _take_cache(self):
        if self._cache is None:
            raise StateError(f"{type(self).__name__}.backward called without a prior forward")
        cache, self._cache = self._cache, None
        return cache


class Conv1d(_Layer):
    """1-D convolution over time with "same" zero padding, stride 1.

    Kernels have shape (out_ch, in_ch, k) with k odd; output length
    equals input length for every odd k, and (B, T, in_ch) maps to
    (B, T, out_ch). Internally an im2col matrix with one row per
    (window, step) turns the convolution into one matrix product, which
    keeps the backward pass a pair of matmuls plus a fold of the column
    gradient back onto overlapping time positions.
    """

    def __init__(self, kernels, bias):
        super().__init__()
        self.kernels = as_tensor(kernels)
        self.bias = as_tensor(bias)
        if self.kernels.ndim != 3:
            raise ParameterError(f"kernels must be (out_ch, in_ch, k), got {self.kernels.shape}")
        out_ch, in_ch, k = self.kernels.shape
        if k % 2 == 0:
            raise ParameterError(f"kernel width must be odd for same padding, got {k}")
        if out_ch < 1 or in_ch < 1:
            raise ParameterError(f"channel counts must be >= 1, got {self.kernels.shape}")
        if self.bias.shape != (out_ch,):
            raise ParameterError(f"bias shape {self.bias.shape} does not match out_ch {out_ch}")

    @classmethod
    def init(cls, in_ch: int, out_ch: int, k: int, rng: RngState) -> "Conv1d":
        kernels = glorot_uniform(rng, in_ch * k, out_ch * k, (out_ch, in_ch, k))
        return cls(kernels, np.zeros(out_ch))

    def params(self):
        return {"kernels": self.kernels, "bias": self.bias}

    def forward(self, x) -> np.ndarray:
        out_ch, in_ch, k = self.kernels.shape
        x, single = _as_batch(x, in_ch, "conv1d")
        batch, t_len, _ = x.shape
        pad = k // 2
        xp = np.zeros((batch, t_len + 2 * pad, in_ch))
        xp[:, pad:pad + t_len] = x
        # cols[b, t, i, j] = padded input of window b at time t+j, channel i
        cols = np.empty((batch, t_len, in_ch, k))
        for j in range(k):
            cols[:, :, :, j] = xp[:, j:j + t_len]
        cols = cols.reshape(batch * t_len, in_ch * k)
        w_mat = self.kernels.reshape(out_ch, in_ch * k)
        self._cache = (cols, x.shape)
        out = (cols @ w_mat.T + self.bias).reshape(batch, t_len, out_ch)
        return out[0] if single else out

    def backward(self, upstream):
        cols, (batch, t_len, in_ch) = self._take_cache()
        out_ch, _, k = self.kernels.shape
        upstream, single = _as_batch(upstream, out_ch, "conv1d backward")
        upstream = upstream.reshape(batch * t_len, out_ch)
        pad = k // 2
        w_mat = self.kernels.reshape(out_ch, in_ch * k)
        self.grads = {
            "kernels": (upstream.T @ cols).reshape(out_ch, in_ch, k),
            "bias": upstream.sum(axis=0),
        }
        dcols = (upstream @ w_mat).reshape(batch, t_len, in_ch, k)
        dxp = np.zeros((batch, t_len + 2 * pad, in_ch))
        for j in range(k):
            dxp[:, j:j + t_len] += dcols[:, :, :, j]
        dx = dxp[:, pad:pad + t_len]
        return dx[0] if single else dx


class Gru(_Layer):
    """Gated recurrent unit over a full sequence.

    Per step, with distinct input (W_*) and recurrent (U_*) matrices:

        r_t = sigmoid(x_t W_r + h_{t-1} U_r + b_r)
        z_t = sigmoid(x_t W_z + h_{t-1} U_z + b_z)
        c_t = tanh(x_t W + (r_t * h_{t-1}) U + b)
        h_t = (1 - z_t) * h_{t-1} + z_t * c_t

    so z_t gates the candidate in. A (B, T, in_dim) batch advances all
    B windows together: each step is one (B, hidden) @ (hidden, hidden)
    product per matrix, and the per-step states are stored time-major,
    (T, B, hidden), so every step reads one contiguous slice. ``h0`` is
    (B, hidden) for a batch and (hidden,) for a single window; zeros if
    omitted. The backward pass is full backpropagation through time
    across all steps, including the gradient on h0 (kept in
    ``h0_grad``, shaped like h0).
    """

    def __init__(self, W_r, W_z, W, U_r, U_z, U, b_r, b_z, b):
        super().__init__()
        self.W_r, self.W_z, self.W = (as_tensor(m) for m in (W_r, W_z, W))
        self.U_r, self.U_z, self.U = (as_tensor(m) for m in (U_r, U_z, U))
        self.b_r, self.b_z, self.b = (as_tensor(v) for v in (b_r, b_z, b))
        hidden = self.W_r.shape[1]
        for name, m in (("W_z", self.W_z), ("W", self.W)):
            if m.shape != self.W_r.shape:
                raise ParameterError(f"{name} shape {m.shape} != W_r shape {self.W_r.shape}")
        for name, m in (("U_r", self.U_r), ("U_z", self.U_z), ("U", self.U)):
            if m.shape != (hidden, hidden):
                raise ParameterError(f"{name} shape {m.shape} != ({hidden}, {hidden})")
        for name, v in (("b_r", self.b_r), ("b_z", self.b_z), ("b", self.b)):
            if v.shape != (hidden,):
                raise ParameterError(f"{name} shape {v.shape} != ({hidden},)")
        self.h0_grad = None

    @classmethod
    def init(cls, in_dim: int, hidden: int, rng: RngState) -> "Gru":
        w = [glorot_uniform(rng, in_dim, hidden, (in_dim, hidden)) for _ in range(3)]
        u = [glorot_uniform(rng, hidden, hidden, (hidden, hidden)) for _ in range(3)]
        b = [np.zeros(hidden) for _ in range(3)]
        return cls(w[0], w[1], w[2], u[0], u[1], u[2], b[0], b[1], b[2])

    def params(self):
        return {
            "W_r": self.W_r, "W_z": self.W_z, "W": self.W,
            "U_r": self.U_r, "U_z": self.U_z, "U": self.U,
            "b_r": self.b_r, "b_z": self.b_z, "b": self.b,
        }

    def forward(self, x, h0=None) -> np.ndarray:
        in_dim, hidden = self.W_r.shape
        x, single = _as_batch(x, in_dim, "gru")
        batch, t_len, _ = x.shape
        h0_shape = (hidden,) if single else (batch, hidden)
        h0 = np.zeros(h0_shape) if h0 is None else as_tensor(h0)
        if h0.shape != h0_shape:
            raise DimensionError(f"h0 shape {h0.shape} != {h0_shape}")
        # time-major input; projections for every step in one shot
        x = np.ascontiguousarray(x.transpose(1, 0, 2))
        xr = x @ self.W_r + self.b_r
        xz = x @ self.W_z + self.b_z
        xh = x @ self.W + self.b
        hs = np.empty((t_len + 1, batch, hidden))
        hs[0] = h0
        rs = np.empty((t_len, batch, hidden))
        zs = np.empty((t_len, batch, hidden))
        cs = np.empty((t_len, batch, hidden))
        # gates inlined (same math as tensor.sigmoid) to keep the step
        # loop free of per-call overhead
        with np.errstate(over="ignore"):
            for t in range(t_len):
                h_prev = hs[t]
                rs[t] = 1.0 / (1.0 + np.exp(-(xr[t] + h_prev @ self.U_r)))
                zs[t] = 1.0 / (1.0 + np.exp(-(xz[t] + h_prev @ self.U_z)))
                cs[t] = np.tanh(xh[t] + (rs[t] * h_prev) @ self.U)
                hs[t + 1] = (1.0 - zs[t]) * h_prev + zs[t] * cs[t]
        self._cache = (x, hs, rs, zs, cs)
        out = hs[1:].transpose(1, 0, 2).copy()
        return out[0] if single else out

    def backward(self, upstream):
        x, hs, rs, zs, cs = self._take_cache()
        t_len, batch, hidden = rs.shape
        upstream, single = _as_batch(upstream, hidden, "gru backward")
        if upstream.shape != (batch, t_len, hidden):
            raise DimensionError(f"upstream batch shape {upstream.shape} != {(batch, t_len, hidden)}")
        upstream = upstream.transpose(1, 0, 2)
        # pre-activation gradients per step; weight gradients batch into
        # single matmuls afterwards
        dar_seq = np.empty((t_len, batch, hidden))
        daz_seq = np.empty((t_len, batch, hidden))
        dah_seq = np.empty((t_len, batch, hidden))
        u_t, ur_t, uz_t = self.U.T, self.U_r.T, self.U_z.T
        carry = np.zeros((batch, hidden))
        for t in range(t_len - 1, -1, -1):
            delta = upstream[t] + carry
            h_prev, r, z, c = hs[t], rs[t], zs[t], cs[t]
            daz = delta * (c - h_prev) * z * (1.0 - z)
            dah = delta * z * (1.0 - c * c)
            drh = dah @ u_t               # grad w.r.t. (r * h_prev)
            dar = drh * h_prev * r * (1.0 - r)
            dar_seq[t] = dar
            daz_seq[t] = daz
            dah_seq[t] = dah
            carry = delta * (1.0 - z) + dar @ ur_t + daz @ uz_t + drh * r
        # every (step, window) pair is one row of the weight-gradient sums
        rows = t_len * batch
        x_rows = x.reshape(rows, -1)
        h_rows = hs[:-1].reshape(rows, hidden)
        rh_rows = (rs * hs[:-1]).reshape(rows, hidden)
        dar_rows = dar_seq.reshape(rows, hidden)
        daz_rows = daz_seq.reshape(rows, hidden)
        dah_rows = dah_seq.reshape(rows, hidden)
        self.grads = {
            "W_r": x_rows.T @ dar_rows, "U_r": h_rows.T @ dar_rows, "b_r": dar_rows.sum(axis=0),
            "W_z": x_rows.T @ daz_rows, "U_z": h_rows.T @ daz_rows, "b_z": daz_rows.sum(axis=0),
            "W": x_rows.T @ dah_rows, "U": rh_rows.T @ dah_rows, "b": dah_rows.sum(axis=0),
        }
        self.h0_grad = carry[0] if single else carry
        dx = (dar_seq @ self.W_r.T + daz_seq @ self.W_z.T + dah_seq @ self.W.T).transpose(1, 0, 2)
        return dx[0] if single else dx


class Attention(_Layer):
    """Dot-product attention over a sequence.

    Keys and queries are learned projections of the input; values are
    the unprojected input rows. Scores are scaled by 1/sqrt(d_attn)
    before the row softmax, so each output row is a convex combination
    of the input rows of its own window. A (B, T, d) batch gives one
    batched (B, T, T) score product.
    """

    def __init__(self, K_w, Q_w):
        super().__init__()
        self.K_w = as_tensor(K_w)
        self.Q_w = as_tensor(Q_w)
        if self.K_w.shape != self.Q_w.shape or self.K_w.ndim != 2:
            raise ParameterError(
                f"K_w and Q_w must share a 2-D shape, got {self.K_w.shape} and {self.Q_w.shape}"
            )
        if self.K_w.shape[1] < 1:
            raise ParameterError("projection width d_attn must be >= 1")

    @classmethod
    def init(cls, d: int, d_attn: int, rng: RngState) -> "Attention":
        return cls(
            glorot_uniform(rng, d, d_attn, (d, d_attn)),
            glorot_uniform(rng, d, d_attn, (d, d_attn)),
        )

    def params(self):
        return {"K_w": self.K_w, "Q_w": self.Q_w}

    def forward(self, x) -> np.ndarray:
        d, d_attn = self.K_w.shape
        x, single = _as_batch(x, d, "attention")
        batch, t_len, _ = x.shape
        keys = x @ self.K_w
        queries = x @ self.Q_w
        scores = queries @ keys.transpose(0, 2, 1) / np.sqrt(d_attn)
        # cached as (B*T, T): one softmax row per (window, query step)
        weights = softmax_rows(scores.reshape(batch * t_len, t_len))
        self._cache = (x, keys, queries, weights)
        out = weights.reshape(batch, t_len, t_len) @ x
        return out[0] if single else out

    def backward(self, upstream):
        x, keys, queries, weights = self._take_cache()
        batch, t_len, d = x.shape
        upstream, single = _as_batch(upstream, d, "attention backward")
        weights = weights.reshape(batch, t_len, t_len)
        scale = 1.0 / np.sqrt(self.K_w.shape[1])
        dweights = upstream @ x.transpose(0, 2, 1)
        # softmax backward per row: dS = A * (dA - sum(dA * A))
        dscores = weights * (dweights - (dweights * weights).sum(axis=2, keepdims=True))
        dqueries = dscores @ keys * scale
        dkeys = dscores.transpose(0, 2, 1) @ queries * scale
        x_rows = x.reshape(batch * t_len, d)
        self.grads = {
            "K_w": x_rows.T @ dkeys.reshape(batch * t_len, -1),
            "Q_w": x_rows.T @ dqueries.reshape(batch * t_len, -1),
        }
        dx = (weights.transpose(0, 2, 1) @ upstream
              + dqueries @ self.Q_w.T + dkeys @ self.K_w.T)
        return dx[0] if single else dx


class Dense(_Layer):
    """Affine map of the last axis with an optional elementwise activation."""

    def __init__(self, weight, bias, activation="identity"):
        super().__init__()
        self.weight = as_tensor(weight)
        self.bias = as_tensor(bias)
        if self.weight.ndim != 2:
            raise ParameterError(f"weight must be 2-D, got {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[1],):
            raise ParameterError(
                f"bias shape {self.bias.shape} != ({self.weight.shape[1]},)"
            )
        if activation not in ("relu", "sigmoid", "identity"):
            raise ParameterError(f"unsupported dense activation {activation!r}")
        self.activation = activation

    @classmethod
    def init(cls, in_dim: int, out_dim: int, rng: RngState, activation="identity") -> "Dense":
        w = glorot_uniform(rng, in_dim, out_dim, (in_dim, out_dim))
        return cls(w, np.zeros(out_dim), activation)

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def forward(self, x) -> np.ndarray:
        x = _rows(x, self.weight.shape[0], "dense")
        z = x @ self.weight + self.bias
        if self.activation == "relu":
            y = np.maximum(z, 0.0)
        elif self.activation == "sigmoid":
            y = sigmoid(z)
        else:
            y = z
        self._cache = (x, z, y)
        return y

    def backward(self, upstream):
        x, z, y = self._take_cache()
        upstream = as_tensor(upstream)
        if self.activation == "relu":
            dz = upstream * (z > 0.0)
        elif self.activation == "sigmoid":
            dz = upstream * y * (1.0 - y)
        else:
            dz = upstream
        in_dim, out_dim = self.weight.shape
        dz_rows = dz.reshape(-1, out_dim)
        self.grads = {"weight": x.reshape(-1, in_dim).T @ dz_rows, "bias": dz_rows.sum(axis=0)}
        return dz @ self.weight.T


class Dropout(_Layer):
    """Inverted dropout: identity at inference, mask + rescale in training.

    The mask takes ``x.size`` draws in row-major order, so a batch gets
    the same masks as its windows would one after another from the same
    stream.
    """

    def __init__(self, rate: float):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x, training: bool, rng: RngState | None = None) -> np.ndarray:
        x = as_tensor(x)
        if not training or self.rate == 0.0:
            self._cache = np.ones_like(x)
            return x.copy()
        if rng is None:
            raise ParameterError("dropout in training mode needs an rng")
        keep = rng.uniforms(x.size).reshape(x.shape) >= self.rate
        mask = keep / (1.0 - self.rate)
        self._cache = mask
        return x * mask

    def backward(self, upstream):
        mask = self._take_cache()
        return as_tensor(upstream) * mask


class LayerNorm(_Layer):
    """Normalization of the last axis with learned gain and shift.

    Each row is centered by its mean and divided by the square root of
    its population variance plus epsilon, making inference independent
    of batch composition.
    """

    def __init__(self, gain, shift, epsilon: float = 1e-5):
        super().__init__()
        self.gain = as_tensor(gain)
        self.shift = as_tensor(shift)
        if epsilon <= 0:
            raise ParameterError(f"epsilon must be positive, got {epsilon}")
        if self.gain.shape != self.shift.shape or self.gain.ndim != 1:
            raise ParameterError(
                f"gain/shift must share a 1-D shape, got {self.gain.shape} and {self.shift.shape}"
            )
        self.epsilon = float(epsilon)

    @classmethod
    def init(cls, d: int) -> "LayerNorm":
        return cls(np.ones(d), np.zeros(d))

    def params(self):
        return {"gain": self.gain, "shift": self.shift}

    def forward(self, x) -> np.ndarray:
        x = _rows(x, self.gain.shape[0], "layernorm")
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + self.epsilon)
        xhat = (x - mu) * inv
        self._cache = (xhat, inv)
        return self.gain * xhat + self.shift

    def backward(self, upstream):
        xhat, inv = self._take_cache()
        upstream = as_tensor(upstream)
        d = self.gain.shape[0]
        dxhat = upstream * self.gain
        self.grads = {
            "gain": (upstream * xhat).reshape(-1, d).sum(axis=0),
            "shift": upstream.reshape(-1, d).sum(axis=0),
        }
        return inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )


class Relu(_Layer):
    """Elementwise relu used after the convolution branch."""

    def forward(self, x) -> np.ndarray:
        x = as_tensor(x)
        self._cache = x > 0.0
        return np.maximum(x, 0.0)

    def backward(self, upstream):
        positive = self._take_cache()
        return as_tensor(upstream) * positive
