"""Network layers with explicit forward and backward passes.

Every layer runs on a batch. The sequence layers (``Conv1d``, ``Gru``,
``Attention``) take and return windows shaped (B, T, F): B windows of
T steps with F features each; one window is a batch of 1. The row-wise
layers (``LayerNorm``, ``Dense``, ``Dropout``, ``Relu``) act on the
last axis and accept any leading axes.

Each ``forward`` takes a ``training`` flag, True by default on every
layer but ``Dropout``, which has no default. With it set the layer
caches the activations its backward pass needs and ``backward``
releases them when it consumes them, so a layer instance pairs exactly
one backward with one forward. With it clear the forward is for
inference: it keeps nothing, drops any cache an earlier forward left,
and a following ``backward`` raises ``StateError``.
``backward`` takes the upstream gradient in the shape ``forward``
returned and gives back the gradient with respect to the layer input in
the input's shape. ``Conv1d`` and ``Attention`` can compute only the
last ``steps`` output steps of a window (all T by default): their
output is then (B, steps, F), and their backward still returns the
full (B, T, F) input gradient. Parameter gradients are summed over
every window of the batch and stored in ``self.grads`` (same keys and
shapes as ``params()``). No autodiff anywhere: every gradient below is the
hand-derived derivative of the forward map, and the test suite checks
all of them against central finite differences.

Where it saves a full-size temporary, a layer builds a result in place
with ``+=``, ``*=`` and ``out=``, and then only in an array it allocated
in the same call: never in ``x``, ``upstream`` or an array it has
already cached for backward. Each in-place form runs the same IEEE
operations in the same order as the expression it stands for, at most
swapping the two operands of one ``+`` or ``*``, so every result is the
same bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, StateError
from .tensor import RngState, as_tensor, sigmoid, softmax_rows

LAYERNORM_EPSILON = 1e-5


def glorot_uniform(rng: RngState, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


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
    gradient back onto overlapping time positions. With ``steps`` < T
    only the rows of the last ``steps`` output steps are built.
    """

    def __init__(self, kernels, bias):
        super().__init__()
        self.kernels = as_tensor(kernels)
        self.bias = as_tensor(bias)

    @classmethod
    def init(cls, in_ch: int, out_ch: int, k: int, rng: RngState) -> "Conv1d":
        kernels = glorot_uniform(rng, in_ch * k, out_ch * k, (out_ch, in_ch, k))
        return cls(kernels, np.zeros(out_ch))

    def params(self):
        return {"kernels": self.kernels, "bias": self.bias}

    def forward(self, x, steps: int | None = None, training: bool = True) -> np.ndarray:
        out_ch, in_ch, k = self.kernels.shape
        x = as_tensor(x)
        batch, t_len, _ = x.shape
        steps = t_len if steps is None else steps
        first = t_len - steps
        pad = k // 2
        xp = np.zeros((batch, t_len + 2 * pad, in_ch))
        xp[:, pad:pad + t_len] = x
        # cols[b, s, i, j] = padded input of window b at time first+s+j, channel i
        cols = np.empty((batch, steps, in_ch, k))
        for j in range(k):
            cols[:, :, :, j] = xp[:, first + j:first + j + steps]
        cols = cols.reshape(batch * steps, in_ch * k)
        w_mat = self.kernels.reshape(out_ch, in_ch * k)
        self._cache = (cols, x.shape) if training else None
        out = cols @ w_mat.T
        out += self.bias
        return out.reshape(batch, steps, out_ch)

    def backward(self, upstream):
        cols, (batch, t_len, in_ch) = self._take_cache()
        out_ch, _, k = self.kernels.shape
        steps = cols.shape[0] // batch
        first = t_len - steps
        upstream = as_tensor(upstream).reshape(batch * steps, out_ch)
        pad = k // 2
        w_mat = self.kernels.reshape(out_ch, in_ch * k)
        self.grads = {
            "kernels": (upstream.T @ cols).reshape(out_ch, in_ch, k),
            "bias": upstream.sum(axis=0),
        }
        dcols = (upstream @ w_mat).reshape(batch, steps, in_ch, k)
        dxp = np.zeros((batch, t_len + 2 * pad, in_ch))
        for j in range(k):
            dxp[:, first + j:first + j + steps] += dcols[:, :, :, j]
        return dxp[:, pad:pad + t_len]


class Gru(_Layer):
    """Gated recurrent unit over a full sequence.

    Per step, with distinct input (W_*) and recurrent (U_*) matrices:

        r_t = sigmoid(x_t W_r + h_{t-1} U_r + b_r)
        z_t = sigmoid(x_t W_z + h_{t-1} U_z + b_z)
        c_t = tanh(x_t W_c + (r_t * h_{t-1}) U + b_c)
        h_t = (1 - z_t) * h_{t-1} + z_t * c_t

    so z_t gates the candidate in. The gate weights are stacked in
    reset/update/candidate order: ``W`` is (3, in_dim, hidden) holding
    W_r, W_z, W_c; ``U_rz`` is (2, hidden, hidden) holding U_r, U_z;
    ``U`` is the candidate's (hidden, hidden); ``b`` is (3, hidden)
    holding b_r, b_z, b_c. A (B, T, in_dim) batch advances all B
    windows together: each step is one stacked (B, hidden) product for
    both gates and one for the candidate, and the per-step states are
    stored time-major, (T, B, hidden), so every step reads one
    contiguous slice. Every window starts from the zero state. The
    backward pass is full backpropagation through time across all
    steps.
    """

    def __init__(self, W, U_rz, U, b):
        super().__init__()
        self.W, self.U_rz, self.U, self.b = (as_tensor(m) for m in (W, U_rz, U, b))

    @classmethod
    def init(cls, in_dim: int, hidden: int, rng: RngState) -> "Gru":
        w = [glorot_uniform(rng, in_dim, hidden, (in_dim, hidden)) for _ in range(3)]
        u = [glorot_uniform(rng, hidden, hidden, (hidden, hidden)) for _ in range(3)]
        return cls(np.stack(w), np.stack(u[:2]), u[2], np.zeros((3, hidden)))

    def params(self):
        return {"W": self.W, "U_rz": self.U_rz, "U": self.U, "b": self.b}

    def forward(self, x, training: bool = True) -> np.ndarray:
        hidden = self.W.shape[2]
        x = as_tensor(x)
        batch, t_len, _ = x.shape
        # time-major input; (3, T, B, hidden) gate projections in one shot
        x = np.ascontiguousarray(x.transpose(1, 0, 2))
        a = x @ self.W[:, None]
        a += self.b[:, None, None]
        hs = np.empty((t_len + 1, batch, hidden))
        hs[0] = 0.0
        if training:
            rzs = np.empty((2, t_len, batch, hidden))
            cs = np.empty((t_len, batch, hidden))
        # gates inlined (same math as tensor.sigmoid) to keep the step
        # loop free of per-call overhead
        with np.errstate(over="ignore"):
            for t in range(t_len):
                h_prev, h = hs[t], hs[t + 1]
                rz = h_prev @ self.U_rz
                rz += a[:2, t]
                np.negative(rz, out=rz)
                np.exp(rz, out=rz)
                rz += 1.0
                np.divide(1.0, rz, out=rz)
                r, z = rz[0], rz[1]
                c = (r * h_prev) @ self.U
                c += a[2, t]
                np.tanh(c, out=c)
                if training:
                    rzs[:, t], cs[t] = rz, c
                np.subtract(1.0, z, out=h)
                h *= h_prev
                c *= z
                h += c
        self._cache = (x, hs, rzs, cs) if training else None
        return hs[1:].transpose(1, 0, 2).copy()

    def backward(self, upstream):
        x, hs, rzs, cs = self._take_cache()
        t_len, batch, hidden = cs.shape
        upstream = as_tensor(upstream).transpose(1, 0, 2)
        # pre-activation gradients per gate and step; weight gradients
        # batch into stacked matmuls afterwards
        da = np.empty((3, t_len, batch, hidden))
        u_t, urz_t = self.U.T, self.U_rz.transpose(0, 2, 1)
        carry = np.zeros((batch, hidden))
        for t in range(t_len - 1, -1, -1):
            delta = upstream[t] + carry
            h_prev, r, z, c = hs[t], rzs[0, t], rzs[1, t], cs[t]
            da[1, t] = delta * (c - h_prev) * z * (1.0 - z)
            da[2, t] = delta * z * (1.0 - c * c)
            drh = da[2, t] @ u_t              # grad w.r.t. (r * h_prev)
            da[0, t] = drh * h_prev * r * (1.0 - r)
            back = da[:2, t] @ urz_t
            carry = delta * (1.0 - z) + back[0] + back[1] + drh * r
        # every (step, window) pair is one row of the weight-gradient sums
        rows = t_len * batch
        da_rows = da.reshape(3, rows, hidden)
        self.grads = {
            "W": x.reshape(rows, -1).T @ da_rows,
            "U_rz": hs[:-1].reshape(rows, hidden).T @ da_rows[:2],
            "U": (rzs[0] * hs[:-1]).reshape(rows, hidden).T @ da_rows[2],
            "b": da_rows.sum(axis=1),
        }
        dx = da @ self.W.transpose(0, 2, 1)[:, None]
        dx[0] += dx[1]
        dx[0] += dx[2]
        return dx[0].transpose(1, 0, 2)


class Attention(_Layer):
    """Dot-product attention over a sequence.

    Keys and queries are learned projections of the input; values are
    the unprojected input rows. Scores are scaled by 1/sqrt(d_attn)
    before the row softmax, so each output row is a convex combination
    of the input rows of its own window. A (B, T, d) batch gives one
    batched (B, T, T) score product. With ``steps`` < T only the last
    ``steps`` rows are queries, scored against keys and values of all T
    steps, and the scores are (B, steps, T).
    """

    def __init__(self, K_w, Q_w):
        super().__init__()
        self.K_w = as_tensor(K_w)
        self.Q_w = as_tensor(Q_w)

    @classmethod
    def init(cls, d: int, d_attn: int, rng: RngState) -> "Attention":
        return cls(
            glorot_uniform(rng, d, d_attn, (d, d_attn)),
            glorot_uniform(rng, d, d_attn, (d, d_attn)),
        )

    def params(self):
        return {"K_w": self.K_w, "Q_w": self.Q_w}

    def forward(self, x, steps: int | None = None, training: bool = True) -> np.ndarray:
        x = as_tensor(x)
        batch, t_len, _ = x.shape
        steps = t_len if steps is None else steps
        first = t_len - steps
        keys = x @ self.K_w
        queries = x[:, first:] @ self.Q_w
        scores = queries @ keys.transpose(0, 2, 1) / np.sqrt(self.K_w.shape[1])
        # cached as (B*steps, T): one softmax row per (window, query step)
        weights = softmax_rows(scores.reshape(batch * steps, t_len))
        self._cache = (x, keys, queries, weights) if training else None
        return weights.reshape(batch, steps, t_len) @ x

    def backward(self, upstream):
        x, keys, queries, weights = self._take_cache()
        batch, t_len, d = x.shape
        steps = queries.shape[1]
        first = t_len - steps
        upstream = as_tensor(upstream)
        weights = weights.reshape(batch, steps, t_len)
        scale = 1.0 / np.sqrt(self.K_w.shape[1])
        # softmax backward per row: dS = A * (dA - sum(dA * A)), built in dA
        dscores = upstream @ x.transpose(0, 2, 1)
        dscores -= (dscores * weights).sum(axis=2, keepdims=True)
        dscores *= weights
        dqueries = dscores @ keys
        dqueries *= scale
        dkeys = dscores.transpose(0, 2, 1) @ queries
        dkeys *= scale
        self.grads = {
            "K_w": x.reshape(batch * t_len, d).T @ dkeys.reshape(batch * t_len, -1),
            "Q_w": x[:, first:].reshape(batch * steps, d).T @ dqueries.reshape(batch * steps, -1),
        }
        dx = weights.transpose(0, 2, 1) @ upstream
        dx[:, first:] += dqueries @ self.Q_w.T
        dx += dkeys @ self.K_w.T
        return dx


class Dense(_Layer):
    """Affine map of the last axis with an optional elementwise activation:
    ``"relu"``, ``"sigmoid"`` or ``"identity"``, the only ones ``Network.build`` passes."""

    def __init__(self, weight, bias, activation="identity"):
        super().__init__()
        self.weight = as_tensor(weight)
        self.bias = as_tensor(bias)
        self.activation = activation

    @classmethod
    def init(cls, in_dim: int, out_dim: int, rng: RngState, activation="identity") -> "Dense":
        w = glorot_uniform(rng, in_dim, out_dim, (in_dim, out_dim))
        return cls(w, np.zeros(out_dim), activation)

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def forward(self, x, training: bool = True) -> np.ndarray:
        x = as_tensor(x)
        z = x @ self.weight
        z += self.bias
        if self.activation == "relu":
            y = np.maximum(z, 0.0)
        elif self.activation == "sigmoid":
            y = sigmoid(z)
        else:
            y = z
        self._cache = (x, z, y) if training else None
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
        self.rate = rate

    def forward(self, x, training: bool, rng: RngState | None = None) -> np.ndarray:
        x = as_tensor(x)
        if not training:
            self._cache = None
            return x
        if self.rate == 0.0:
            mask = np.ones_like(x)
        elif rng is None:
            raise ParameterError("dropout in training mode needs an rng")
        else:
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
    its population variance plus ``LAYERNORM_EPSILON``, making inference
    independent of batch composition.
    """

    def __init__(self, gain, shift):
        super().__init__()
        self.gain = as_tensor(gain)
        self.shift = as_tensor(shift)

    @classmethod
    def init(cls, d: int) -> "LayerNorm":
        return cls(np.ones(d), np.zeros(d))

    def params(self):
        return {"gain": self.gain, "shift": self.shift}

    def forward(self, x, training: bool = True) -> np.ndarray:
        width = self.gain.shape[0]
        x = as_tensor(x)
        # each mean is a sum divided by the width, as np.mean computes it
        mu = x.sum(axis=-1, keepdims=True)
        mu /= width
        # the population variance as np.var computes it, reusing x - mu
        xhat = x - mu
        out = xhat * xhat
        inv = out.sum(axis=-1, keepdims=True)
        inv /= width
        inv += LAYERNORM_EPSILON
        np.sqrt(inv, out=inv)
        np.divide(1.0, inv, out=inv)
        xhat *= inv
        self._cache = (xhat, inv) if training else None
        np.multiply(xhat, self.gain, out=out)
        out += self.shift
        return out

    def backward(self, upstream):
        xhat, inv = self._take_cache()
        upstream = as_tensor(upstream)
        d = self.gain.shape[0]
        dxhat = upstream * self.gain
        prod = upstream * xhat
        self.grads = {
            "gain": prod.reshape(-1, d).sum(axis=0),
            "shift": upstream.reshape(-1, d).sum(axis=0),
        }
        # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), built in dxhat
        np.multiply(dxhat, xhat, out=prod)
        proj = prod.sum(axis=-1, keepdims=True)
        proj /= d
        centre = dxhat.sum(axis=-1, keepdims=True)
        centre /= d
        dxhat -= centre
        np.multiply(xhat, proj, out=prod)
        dxhat -= prod
        dxhat *= inv
        return dxhat


class Relu(_Layer):
    """Elementwise relu used after the convolution branch."""

    def forward(self, x, training: bool = True) -> np.ndarray:
        x = as_tensor(x)
        self._cache = x > 0.0 if training else None
        return np.maximum(x, 0.0)

    def backward(self, upstream):
        positive = self._take_cache()
        return as_tensor(upstream) * positive
