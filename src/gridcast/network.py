"""Composite forecasting network.

Each block runs two branches on its input sequence: a convolution
branch and an attention-over-GRU branch. Branch outputs are
concatenated along features and layer-normalized, and the block is
repeated; the MLP head reads the final timestep of the last block and
emits one value (linear for regression, sigmoid for classification).
Since nothing else reads the last block's output, that block computes
only its final timestep: its GRU still runs every step, but its
convolution, attention queries and norm cover only the last one.

The network runs on a batch of windows shaped (B, window, features)
and returns one value per window, shape (B,). A single
(window, features) window is a batch of 1: it is viewed as
(1, window, features) on entry and gives shape (1,).

A training forward (``training=True``, with an rng for dropout) caches
every layer's activations for one backward; an inference forward, the
default, caches nothing, and a backward after it raises ``StateError``.
Backward takes the (B,) loss gradient and chains exactly through that
wiring: the head gradient enters the last block's single timestep,
the norm gradient is split by feature ranges between the branches, and
both branches' input gradients are summed to form the gradient flowing
into the block below. Parameter gradients are summed
over the batch, so the gradient of a batch-mean loss is the mean of
the per-window gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .layers import Attention, Conv1d, Dense, Dropout, Gru, LayerNorm, Relu
from .tensor import RngState

HEADS = ("regression", "classification")


@dataclass
class NetworkConfig:
    """Architecture hyperparameters; ``window``/``features`` fix the input shape."""

    window: int
    features: int
    blocks: int = 2
    conv_filters: int = 16
    kernel: int = 3
    gru_units: int = 16
    attn_dim: int = 16
    mlp_hidden: int = 32
    dropout_rate: float = 0.2
    head: str = "regression"

    def violations(self) -> list[str]:
        problems = []
        for name in ("window", "features", "blocks", "conv_filters",
                     "gru_units", "attn_dim", "mlp_hidden"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            problems.append(f"kernel must be a positive odd integer, got {self.kernel}")
        if not 0.0 <= self.dropout_rate < 1.0:
            problems.append(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.head not in HEADS:
            problems.append(f"head must be one of {HEADS}, got {self.head!r}")
        return problems

    def param_count(self) -> int:
        """Parameters ``Network.build`` makes for this config, counted without building it."""
        c, h, merged = self.conv_filters, self.gru_units, self.conv_filters + self.gru_units
        first, other = (c * (w * self.kernel + 1) + 3 * h * (w + h + 1) + 2 * h * self.attn_dim
                        + 2 * merged for w in (self.features, merged))
        return first + (self.blocks - 1) * other + (merged + 2) * self.mlp_hidden + 1

    def validate(self):
        problems = self.violations()
        if problems:
            raise ParameterError("invalid network config: " + "; ".join(problems))


class _Block:
    def __init__(self, conv, conv_act, gru, attn, norm):
        self.conv = conv
        self.conv_act = conv_act
        self.gru = gru
        self.attn = attn
        self.norm = norm


class Network:
    """Layer states for all blocks plus the head; single-owner while training.

    Every parameter lives in one float64 ``vector``: each layer attribute
    named by its ``params()`` (``kernels``, ``U_rz``, ``gain``, ...) is a
    view into it, in ``params()`` key order. ``backward`` leaves the
    matching flat gradient in ``grad``, so an optimizer or a finiteness
    check can act on two arrays without knowing the layout.
    """

    def __init__(self, config: NetworkConfig, blocks, head_hidden, head_drop, head_out):
        self.config = config
        self.blocks = blocks
        self.head_hidden = head_hidden
        self.head_drop = head_drop
        self.head_out = head_out
        parts = [(f"block{i}.{name}", getattr(block, name))
                 for i, block in enumerate(blocks) for name in ("conv", "gru", "attn", "norm")]
        parts += [("head.hidden", head_hidden), ("head.out", head_out)]
        # (dotted key, layer, attribute, start, stop, shape) per parameter,
        # in vector order
        self._layout = []
        stop = 0
        for prefix, layer in parts:
            for name, arr in layer.params().items():
                self._layout.append((f"{prefix}.{name}", layer, name, stop, stop + arr.size, arr.shape))
                stop += arr.size
        self.vector = np.concatenate([getattr(layer, name).ravel()
                                      for _, layer, name, *_ in self._layout])
        for _, layer, name, start, stop, shape in self._layout:
            setattr(layer, name, self.vector[start:stop].reshape(shape))
        # shape of the last forward's input; backward gives ``input_grad`` in it
        self._input_shape = None
        self.input_grad = None
        self.grad = None

    @classmethod
    def build(cls, config: NetworkConfig, rng: RngState) -> "Network":
        """Construct a freshly initialized network; deterministic per seed."""
        config.validate()
        blocks = []
        width = config.features
        for _ in range(config.blocks):
            conv = Conv1d.init(width, config.conv_filters, config.kernel, rng)
            gru = Gru.init(width, config.gru_units, rng)
            attn = Attention.init(config.gru_units, config.attn_dim, rng)
            norm = LayerNorm.init(config.conv_filters + config.gru_units)
            blocks.append(_Block(conv, Relu(), gru, attn, norm))
            width = config.conv_filters + config.gru_units
        head_hidden = Dense.init(width, config.mlp_hidden, rng, activation="relu")
        head_drop = Dropout(config.dropout_rate)
        head_act = "identity" if config.head == "regression" else "sigmoid"
        head_out = Dense.init(config.mlp_hidden, 1, rng, activation=head_act)
        return cls(config, blocks, head_hidden, head_drop, head_out)

    # --- parameters -------------------------------------------------------

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """``flat`` cut into per-parameter views keyed by dotted path."""
        return {key: flat[start:stop].reshape(shape)
                for key, _, _, start, stop, shape in self._layout}

    def params(self) -> dict[str, np.ndarray]:
        """Live parameter arrays keyed by a stable dotted path; views of ``vector``."""
        return self._views(self.vector)

    def param_count(self) -> int:
        return self.vector.size

    def param_key(self, index: int) -> str:
        """Dotted key of the parameter at flat ``vector`` (or ``grad``) position ``index``."""
        return next(key for key, _, _, _, stop, _ in self._layout if index < stop)

    # --- forward / backward -----------------------------------------------

    def forward(self, x, training: bool = False, rng: RngState | None = None) -> np.ndarray:
        """Map (B, window, features) windows to (B,) outputs; (window, features) gives (1,)."""
        x = np.asarray(x, dtype=np.float64)
        cfg = self.config
        if x.ndim not in (2, 3) or x.shape[-2:] != (cfg.window, cfg.features):
            raise DimensionError(
                f"network expects ({cfg.window}, {cfg.features}) or "
                f"(B, {cfg.window}, {cfg.features}) input, got {x.shape}"
            )
        self._input_shape = x.shape
        x = x.reshape(-1, cfg.window, cfg.features)
        for i, block in enumerate(self.blocks):
            # the head reads only the top block's last step
            steps = 1 if i == len(self.blocks) - 1 else cfg.window
            conv_out = block.conv_act.forward(block.conv.forward(x, steps, training), training)
            attn_out = block.attn.forward(block.gru.forward(x, training), steps, training)
            x = block.norm.forward(np.concatenate([conv_out, attn_out], axis=2), training)
        hidden = self.head_hidden.forward(x[:, -1], training)
        hidden = self.head_drop.forward(hidden, training, rng)
        return self.head_out.forward(hidden, training).reshape(-1)

    def backward(self, loss_grad) -> dict[str, np.ndarray]:
        """Gradients of every parameter for the cached training forward pass.

        ``loss_grad`` holds one value per window, shape (B,). The flat
        gradient is left in ``grad`` and the input gradient in
        ``input_grad``, shaped like the forward input; the returned dict
        holds views of ``grad`` keyed like ``params()``.
        """
        loss_grad = np.asarray(loss_grad, dtype=np.float64).reshape(-1, 1)
        up = self.head_hidden.backward(self.head_drop.backward(self.head_out.backward(loss_grad)))
        cfg = self.config
        grad_seq = up[:, None, :]
        for block in reversed(self.blocks):
            g = block.norm.backward(grad_seq)
            g_conv, g_attn = g[:, :, :cfg.conv_filters], g[:, :, cfg.conv_filters:]
            dx_conv = block.conv.backward(block.conv_act.backward(g_conv))
            dx_gru = block.gru.backward(block.attn.backward(g_attn))
            grad_seq = dx_conv + dx_gru
        self.input_grad = grad_seq.reshape(self._input_shape)
        # a fresh buffer per call: callers may keep an earlier call's views
        self.grad = np.concatenate([layer.grads[name].ravel()
                                    for _, layer, name, *_ in self._layout])
        return self._views(self.grad)
