"""Losses, Adam, the learning-rate schedule, and the epoch loop.

The schedule follows the training protocol used throughout this
artifact: learning rate is cut ``LR_REDUCE_FACTOR``-fold after
``lr_patience`` epochs without validation improvement, training stops
after ``early_stop_patience`` such epochs, and the best-validation
parameter snapshot is restored at the end. Improvement means the
validation loss dropped by more than ``IMPROVEMENT_THRESHOLD`` below
the best seen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DimensionError, NumericError, ParameterError
from .network import Network
from .tensor import RngState, as_tensor


LR_REDUCE_FACTOR = 3.0
IMPROVEMENT_THRESHOLD = 1e-9
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class TrainConfig:
    max_epochs: int = 10000
    early_stop_patience: int = 300
    initial_lr: float = 0.001
    lr_patience: int = 100
    batch_size: int = 32
    seed: int = 0

    def violations(self) -> list[str]:
        problems = []
        if self.max_epochs < 1:
            problems.append(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.early_stop_patience < 1:
            problems.append(f"early_stop_patience must be >= 1, got {self.early_stop_patience}")
        if self.lr_patience < 1:
            problems.append(f"lr_patience must be >= 1, got {self.lr_patience}")
        if self.initial_lr <= 0:
            problems.append(f"initial_lr must be positive, got {self.initial_lr}")
        elif not np.isfinite(self.initial_lr):
            problems.append(f"initial_lr must be finite, got {self.initial_lr}")
        if self.batch_size < 1:
            problems.append(f"batch_size must be >= 1, got {self.batch_size}")
        return problems

    def validate(self):
        problems = self.violations()
        if problems:
            raise ParameterError("invalid train config: " + "; ".join(problems))


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float


@dataclass
class TrainLog:
    epochs: list[EpochRecord] = field(default_factory=list)
    stop_reason: str = ""


# --- losses ----------------------------------------------------------------

_BCE_CLAMP = 1e-7


def mse_loss(pred, target):
    """Mean squared error and its gradient with respect to ``pred``."""
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.shape != target.shape:
        raise DimensionError(f"loss shapes differ: {pred.shape} vs {target.shape}")
    diff = pred - target
    n = pred.size
    return float((diff * diff).mean()), 2.0 * diff / n


def bce_loss(pred, target):
    """Binary cross-entropy with predictions clamped away from {0, 1}."""
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.shape != target.shape:
        raise DimensionError(f"loss shapes differ: {pred.shape} vs {target.shape}")
    p = np.clip(pred, _BCE_CLAMP, 1.0 - _BCE_CLAMP)
    n = pred.size
    value = float(-(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)).mean())
    grad = (p - target) / (p * (1.0 - p)) / n
    return value, grad


def loss(head: str, pred, target):
    if head == "regression":
        return mse_loss(pred, target)
    return bce_loss(pred, target)


# --- Adam -------------------------------------------------------------------


class AdamState:
    """First/second moment accumulators shaped like the parameter vector."""

    def __init__(self, param: np.ndarray):
        self.m = np.zeros_like(param)
        self.v = np.zeros_like(param)


def adam_step(param, grad, state: AdamState, lr: float, t: int):
    """One in-place Adam update of ``param`` with bias correction; ``t`` is 1-based."""
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    param -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)


# --- schedule ----------------------------------------------------------------


class LrSchedule:
    """Plateau-driven lr reduction and early stopping with best tracking.

    Each lr level is exactly ``initial_lr / factor**reductions``, computed
    from ``initial_lr`` so rounding does not compound across cuts.
    Successive levels agree with ``previous / factor`` only to within one
    rounding (e.g. ``0.001 / 9`` and ``(0.001 / 3) / 3`` differ by one ulp).
    """

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self.best = np.inf
        self.reductions = 0
        self._since_improve = 0

    @property
    def lr(self) -> float:
        return self.cfg.initial_lr / LR_REDUCE_FACTOR ** self.reductions

    def update(self, val_loss: float):
        """Returns (improved, stop) for one epoch's validation loss."""
        if val_loss < self.best - IMPROVEMENT_THRESHOLD:
            self.best = val_loss
            self._since_improve = 0
            return True, False
        self._since_improve += 1
        if self._since_improve >= self.cfg.early_stop_patience:
            return False, True
        # a cut every lr_patience epochs in a row without improvement
        if self._since_improve % self.cfg.lr_patience == 0:
            self.reductions += 1
        return False, False


# --- epoch loop ---------------------------------------------------------------


# windows per inference forward: large enough to amortize the per-call
# Python overhead; an inference forward keeps no activation caches, so a
# chunk holds only its working arrays
INFERENCE_CHUNK = 128


def predict_all(net: Network, inputs: np.ndarray) -> np.ndarray:
    """Inference-mode predictions for a stack of (window, features) inputs,
    ``INFERENCE_CHUNK`` windows per forward."""
    out = np.empty(inputs.shape[0])
    for start in range(0, inputs.shape[0], INFERENCE_CHUNK):
        out[start:start + INFERENCE_CHUNK] = net.forward(inputs[start:start + INFERENCE_CHUNK])
    return out


def evaluate_loss(net: Network, inputs, targets, head: str) -> float:
    """Mean per-window loss of inference-mode predictions."""
    return loss(head, predict_all(net, inputs), targets)[0]


def _require_finite(value: float, epoch: int, what: str):
    if not np.isfinite(value):
        raise NumericError(f"epoch {epoch}: {what} is {value}")


def fit(net: Network, train_set, val_set, cfg: TrainConfig):
    """Mini-batch training loop; returns the best-validation network and log.

    ``train_set``/``val_set`` are (inputs, targets) pairs with inputs of
    shape (n, window, features) and targets of shape (n,), already
    scaled/labeled for the network's head. Each mini-batch is one
    batched forward and backward; the batch-mean loss makes the
    gradient the mean of the per-window gradients. A non-finite batch
    loss, validation loss or parameter gradient raises ``NumericError``
    naming the epoch (and, for a gradient, the parameter).
    """
    cfg.validate()
    train_x, train_y = (as_tensor(a) for a in train_set)
    val_x, val_y = (as_tensor(a) for a in val_set)
    if train_x.shape[0] == 0 or val_x.shape[0] == 0:
        raise DataError("fit needs non-empty train and validation sets")
    head = net.config.head
    n = train_x.shape[0]

    rng = RngState(cfg.seed)
    shuffle_rng = rng.spawn(1)
    dropout_rng = rng.spawn(2)

    adam = AdamState(net.vector)
    sched = LrSchedule(cfg)
    log = TrainLog()
    best = net.vector.copy()
    step = 0

    # overflow and invalid values only ever reach a non-finite loss or
    # gradient, which raises NumericError below; numpy's own warnings
    # would bury that message
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            lr = sched.lr
            order = shuffle_rng.permutation(n)
            loss_sum = 0.0
            for start in range(0, n, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                value, grad = loss(
                    head,
                    net.forward(train_x[batch], training=True, rng=dropout_rng),
                    train_y[batch],
                )
                _require_finite(value, epoch, "training loss")
                loss_sum += value * len(batch)
                net.backward(grad)
                finite = np.isfinite(net.grad)
                if not finite.all():
                    key = net.param_key(int(np.argmin(finite)))
                    raise NumericError(f"epoch {epoch}: non-finite gradient for parameter {key}")
                step += 1
                adam_step(net.vector, net.grad, adam, lr, step)
            train_loss = loss_sum / n
            val_loss = evaluate_loss(net, val_x, val_y, head)
            _require_finite(val_loss, epoch, "validation loss")
            improved, stop = sched.update(val_loss)
            if improved:
                best = net.vector.copy()
            log.epochs.append(EpochRecord(epoch, train_loss, val_loss, lr))
            if stop:
                log.stop_reason = "early_stop"
                break
        else:
            log.stop_reason = "max_epochs"

    net.vector[:] = best
    return net, log
