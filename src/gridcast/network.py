"""Composite forecasting network.

Each block runs two branches on its input sequence: a convolution
branch and an attention-over-GRU branch. Branch outputs are
concatenated along features and layer-normalized, and the block is
repeated; the MLP head reads the final timestep of the last block and
emits one value (linear for regression, sigmoid for classification).

The network runs on a batch of windows shaped (B, window, features)
and returns one value per window, shape (B,). A single
(window, features) window is a batch of 1: it is viewed as
(1, window, features) on entry and gives shape (1,).

Backward takes the (B,) loss gradient and chains exactly through that
wiring: the head gradient is scattered onto the last timestep of each
window, the norm gradient is split by feature ranges between the
branches, and both branches' input gradients are summed to form the
gradient flowing into the block below. Parameter gradients are summed
over the batch, so the gradient of a batch-mean loss is the mean of
the per-window gradients.
"""

from __future__ import annotations

import base64
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import DimensionError, ParameterError
from .layers import Attention, Conv1d, Dense, Dropout, Gru, LayerNorm, Relu
from .tensor import RngState, as_tensor

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
    conv_activation: str = "relu"

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
        if self.conv_activation not in ("relu", "identity"):
            problems.append(f"conv_activation must be relu or identity, got {self.conv_activation!r}")
        return problems

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
    """Layer states for all blocks plus the head; single-owner while training."""

    def __init__(self, config: NetworkConfig, blocks, head_hidden, head_drop, head_out):
        self.config = config
        self.blocks = blocks
        self.head_hidden = head_hidden
        self.head_drop = head_drop
        self.head_out = head_out
        # shape of the last forward's input; backward gives ``input_grad`` in it
        self._input_shape = None
        self.input_grad = None

    @classmethod
    def build(cls, config: NetworkConfig, rng: RngState) -> "Network":
        """Construct a freshly initialized network; deterministic per seed."""
        config.validate()
        blocks = []
        width = config.features
        for _ in range(config.blocks):
            conv = Conv1d.init(width, config.conv_filters, config.kernel, rng)
            conv_act = Relu() if config.conv_activation == "relu" else None
            gru = Gru.init(width, config.gru_units, rng)
            attn = Attention.init(config.gru_units, config.attn_dim, rng)
            norm = LayerNorm.init(config.conv_filters + config.gru_units)
            blocks.append(_Block(conv, conv_act, gru, attn, norm))
            width = config.conv_filters + config.gru_units
        head_hidden = Dense.init(width, config.mlp_hidden, rng, activation="relu")
        head_drop = Dropout(config.dropout_rate)
        head_act = "identity" if config.head == "regression" else "sigmoid"
        head_out = Dense.init(config.mlp_hidden, 1, rng, activation=head_act)
        return cls(config, blocks, head_hidden, head_drop, head_out)

    # --- parameters -------------------------------------------------------

    def params(self) -> dict[str, np.ndarray]:
        """Live parameter arrays keyed by a stable dotted path."""
        out = {}
        for i, block in enumerate(self.blocks):
            for part_name, part in (("conv", block.conv), ("gru", block.gru),
                                    ("attn", block.attn), ("norm", block.norm)):
                for name, arr in part.params().items():
                    out[f"block{i}.{part_name}.{name}"] = arr
        for part_name, part in (("hidden", self.head_hidden), ("out", self.head_out)):
            for name, arr in part.params().items():
                out[f"head.{part_name}.{name}"] = arr
        return out

    def param_count(self) -> int:
        return sum(arr.size for arr in self.params().values())

    def set_params(self, values: dict[str, np.ndarray]):
        params = self.params()
        if set(values) != set(params):
            raise ParameterError("parameter keys do not match this architecture")
        for key, arr in params.items():
            np.copyto(arr, values[key])

    def snapshot(self) -> dict[str, np.ndarray]:
        return {key: arr.copy() for key, arr in self.params().items()}

    # --- forward / backward -----------------------------------------------

    def forward(self, x, training: bool = False, rng: RngState | None = None) -> np.ndarray:
        """Map (B, window, features) windows to (B,) outputs; (window, features) gives (1,)."""
        x = as_tensor(x)
        cfg = self.config
        if x.ndim not in (2, 3) or x.shape[-2:] != (cfg.window, cfg.features):
            raise DimensionError(
                f"network expects ({cfg.window}, {cfg.features}) or "
                f"(B, {cfg.window}, {cfg.features}) input, got {x.shape}"
            )
        self._input_shape = x.shape
        x = x.reshape(-1, cfg.window, cfg.features)
        for block in self.blocks:
            conv_out = block.conv.forward(x)
            if block.conv_act is not None:
                conv_out = block.conv_act.forward(conv_out)
            attn_out = block.attn.forward(block.gru.forward(x))
            x = block.norm.forward(np.concatenate([conv_out, attn_out], axis=2))
        last = x[:, -1, :]
        hidden = self.head_drop.forward(self.head_hidden.forward(last), training, rng)
        return self.head_out.forward(hidden).reshape(-1)

    def backward(self, loss_grad) -> dict[str, np.ndarray]:
        """Gradients of every parameter for the cached forward pass.

        ``loss_grad`` holds one value per window, shape (B,). The input
        gradient is left in ``input_grad``, shaped like the forward input.
        """
        loss_grad = as_tensor(loss_grad).reshape(-1, 1)
        up = self.head_hidden.backward(self.head_drop.backward(self.head_out.backward(loss_grad)))
        cfg = self.config
        merged = cfg.conv_filters + cfg.gru_units
        grad_seq = np.zeros((up.shape[0], cfg.window, merged))
        grad_seq[:, -1] = up
        for block in reversed(self.blocks):
            g = block.norm.backward(grad_seq)
            g_conv, g_attn = g[:, :, :cfg.conv_filters], g[:, :, cfg.conv_filters:]
            if block.conv_act is not None:
                g_conv = block.conv_act.backward(g_conv)
            dx_conv = block.conv.backward(g_conv)
            dx_gru = block.gru.backward(block.attn.backward(g_attn))
            grad_seq = dx_conv + dx_gru
        self.input_grad = grad_seq.reshape(self._input_shape)
        grads = {}
        for i, block in enumerate(self.blocks):
            for part_name, part in (("conv", block.conv), ("gru", block.gru),
                                    ("attn", block.attn), ("norm", block.norm)):
                for name, arr in part.grads.items():
                    grads[f"block{i}.{part_name}.{name}"] = arr
        for part_name, part in (("hidden", self.head_hidden), ("out", self.head_out)):
            for name, arr in part.grads.items():
                grads[f"head.{part_name}.{name}"] = arr
        return grads

    # --- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "params": {key: _encode_array(arr) for key, arr in self.params().items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Network":
        known = {f.name for f in fields(NetworkConfig)}
        config = NetworkConfig(**{k: v for k, v in payload["config"].items() if k in known})
        net = cls.build(config, RngState(0))
        net.set_params({key: _decode_array(entry) for key, entry in payload["params"].items()})
        return net


def _encode_array(arr: np.ndarray) -> dict:
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii"),
    }


def _decode_array(entry: dict) -> np.ndarray:
    flat = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8")
    return flat.reshape(entry["shape"]).copy()
