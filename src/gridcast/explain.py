"""Shapley-value attribution of model predictions to input columns.

Each of the window's named feature columns is one player; masking a
player replaces its values with the background value across all
timesteps jointly. The model maps a (n, T, d) stack of windows to (n,)
outputs, and both estimators score all the coalitions they need in one
model call per window. Exact enumeration of the schema's 13 players
takes 2^13 = 8,192 coalitions per window: at window 8 their mixed-input
stack is 0.85 M float64 values (6.8 MB), and one window takes
0.13-0.15 s with the default network on 2 CPUs. By construction every
sampled permutation's marginals sum to f(x) - f(background), so the
sampling estimator satisfies the efficiency axiom exactly as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import RngState, permutation_heads


def _mask_bits(masks, d) -> np.ndarray:
    """(n, d) booleans: bit j of each integer mask."""
    return ((np.asarray(masks)[:, None] >> np.arange(d)) & 1).astype(bool)


def _masked_eval(model, x, background, d):
    """Value function over an array of column-subset bitmasks.

    ``value(masks)`` keeps column j of ``x`` where bit j of a mask is
    set and takes ``background`` elsewhere, then scores the whole
    (n_masks, T, d) stack with one ``model`` call; returns (n_masks,).
    """

    def value(masks) -> np.ndarray:
        mixed = np.where(_mask_bits(masks, d)[:, None, :], x, background)
        return np.asarray(model(mixed), dtype=np.float64)

    return value


def shapley_exact(model, x, background) -> np.ndarray:
    """Exact Shapley values from all 2^d coalitions."""
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[1]
    masks = np.arange(1 << d)
    v = _masked_eval(model, x, background, d)(masks)
    bits = _mask_bits(masks, d)
    fact = np.array([math.factorial(i) for i in range(d + 1)], dtype=np.float64)
    weight = fact[:d] * fact[d - 1::-1] / fact[d]       # by coalition size |S| < d
    size = bits.sum(axis=1)
    phi = np.empty(d)
    for i in range(d):
        without = masks[~bits[:, i]]
        phi[i] = weight[size[without]] @ (v[without | 1 << i] - v[without])
    return phi


def shapley_sample(model, x, background, n_perms: int, rng: RngState):
    """Permutation-sampling Shapley estimate; returns (values, std errors).

    The d+1 prefix coalitions of every permutation are collected first,
    so each distinct coalition is scored once, in one batch; a coalition
    is a 64-bit mask, one bit per column.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[1]
    perms = permutation_heads([rng], [n_perms], d, d)
    prefixes = np.zeros((n_perms, d + 1), dtype=np.int64)
    np.cumsum(1 << perms, axis=1, out=prefixes[:, 1:])
    masks, inverse = np.unique(prefixes.ravel(), return_inverse=True)
    v = _masked_eval(model, x, background, d)(masks)[inverse].reshape(n_perms, d + 1)
    marginals = np.empty((n_perms, d))
    np.put_along_axis(marginals, perms, np.diff(v, axis=1), axis=1)
    phi = marginals.mean(axis=0)
    if n_perms > 1:
        stderr = marginals.std(axis=0, ddof=1) / np.sqrt(n_perms)
    else:
        stderr = np.zeros(d)
    return phi, stderr


@dataclass
class AttributionReport:
    """Per-feature attribution aggregated over evaluated windows."""

    feature_names: list[str]
    per_sample: np.ndarray              # (n_samples, d)
    baseline_prediction: float          # model output on the background input
    predictions: np.ndarray             # (n_samples,) model outputs on the inputs
    stderr: np.ndarray | None = None    # (n_samples, d) for the sampling estimator
    method: str = "sampling"

    @property
    def mean_abs(self) -> np.ndarray:
        return np.abs(self.per_sample).mean(axis=0)

    def ranking(self) -> list[tuple[str, float]]:
        means = self.mean_abs
        order = np.argsort(-means, kind="stable")
        return [(self.feature_names[i], float(means[i])) for i in order]

    def efficiency_gaps(self) -> np.ndarray:
        """Per sample: sum(phi) - (f(x) - f(background)); ~0 when sound."""
        return self.per_sample.sum(axis=1) - (self.predictions - self.baseline_prediction)

    def to_dict(self) -> dict:
        return {
            "feature_names": self.feature_names,
            "method": self.method,
            "baseline_prediction": self.baseline_prediction,
            "mean_abs_shapley": self.mean_abs.tolist(),
            "per_sample": self.per_sample.tolist(),
            "predictions": self.predictions.tolist(),
            "stderr": self.stderr.tolist() if self.stderr is not None else None,
            "efficiency_gaps": self.efficiency_gaps().tolist(),
        }


def attribute(model, windows, background, feature_names, n_perms: int = 50,
              seed: int = 0, exact: bool = False) -> AttributionReport:
    """Shapley attributions for (n, T, d) windows against one (d,) background row."""
    windows = np.asarray(windows, dtype=np.float64)
    d = windows.shape[2]
    rng = RngState(seed)
    values = np.zeros((windows.shape[0], d))
    errors = None if exact else np.zeros((windows.shape[0], d))
    preds = np.asarray(model(windows), dtype=np.float64)
    baseline = float(model(np.broadcast_to(background, windows.shape[1:])[None])[0])
    for i in range(windows.shape[0]):
        if exact:
            values[i] = shapley_exact(model, windows[i], background)
        else:
            values[i], errors[i] = shapley_sample(
                model, windows[i], background, n_perms, rng.spawn(i)
            )
    return AttributionReport(
        feature_names=list(feature_names),
        per_sample=values,
        baseline_prediction=baseline,
        predictions=preds,
        stderr=errors,
        method="exact" if exact else "sampling",
    )

