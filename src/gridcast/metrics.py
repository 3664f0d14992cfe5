"""Regression and classification evaluation: MAE/RMSE/R2, confusion
counts with accuracy and precision, ROC sweep, and trapezoid AUC."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

# a zero-state probability at or above this predicts the zero state
DECISION_THRESHOLD = 0.5


@dataclass
class RegressionReport:
    mae: float
    rmse: float
    r2: float

    def to_dict(self) -> dict:
        return {"mae": self.mae, "rmse": self.rmse, "r2": self.r2}


@dataclass
class ClassificationReport:
    tp: int
    tn: int
    fp: int
    fn: int
    accuracy: float
    precision: float | None        # None when no positive predictions exist
    roc_points: list[tuple[float, float, float]]   # (fpr, tpr, threshold)
    auc: float

    def to_dict(self) -> dict:
        return {
            "confusion": {"tp": self.tp, "tn": self.tn, "fp": self.fp, "fn": self.fn},
            "accuracy": self.accuracy,
            "precision": self.precision,
            "auc": self.auc,
            "roc_points": [list(p) for p in self.roc_points],
        }


def regression_metrics(pred, real) -> RegressionReport:
    """MAE, RMSE and the coefficient of determination about mean(real).

    Raises ``NumericError`` when any of the three is not finite, as a
    huge or non-finite prediction or target makes it, so no report
    carries an inf or a NaN.
    """
    pred = np.asarray(pred, dtype=np.float64)
    real = np.asarray(real, dtype=np.float64)
    # overflow shows in the results, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        err = pred - real
        mae = float(np.abs(err).mean())
        rmse = float(np.sqrt((err * err).mean()))
        ss_tot = float(((real - real.mean()) ** 2).sum())
        if ss_tot == 0.0:
            raise NumericError("R2 is undefined: real values have zero variance")
        r2 = 1.0 - float((err * err).sum()) / ss_tot
    report = RegressionReport(mae, rmse, r2)
    bad = [name for name, value in report.to_dict().items() if not np.isfinite(value)]
    if bad:
        raise NumericError(f"{' and '.join(bad)} not finite: a prediction or target is too "
                           "large or not finite")
    return report


def classification_metrics(scores, labels) -> ClassificationReport:
    """Confusion counts at ``DECISION_THRESHOLD`` plus a full ROC sweep and AUC.

    A sample is predicted positive when its score is >= DECISION_THRESHOLD. The
    ROC is swept over every distinct score (descending) with sentinel
    endpoints, so fpr runs 0 -> 1 monotonically.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)

    pos = labels == 1.0
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    predicted = scores >= DECISION_THRESHOLD
    tp = int((predicted & pos).sum())
    fp = int((predicted & ~pos).sum())
    fn = n_pos - tp
    tn = n_neg - fp
    accuracy = (tp + tn) / labels.size
    precision = tp / (tp + fp) if tp + fp > 0 else None

    roc_points = [(0.0, 0.0, np.inf)]
    for thr in np.unique(scores)[::-1]:
        hit = scores >= thr
        tpr = float((hit & pos).sum()) / n_pos if n_pos else 0.0
        fpr = float((hit & ~pos).sum()) / n_neg if n_neg else 0.0
        roc_points.append((fpr, tpr, float(thr)))
    if roc_points[-1][:2] != (1.0, 1.0):
        roc_points.append((1.0, 1.0, -np.inf))

    auc = 0.0
    for (f0, t0, _), (f1, t1, _) in zip(roc_points, roc_points[1:]):
        auc += (f1 - f0) * (t0 + t1) / 2.0
    return ClassificationReport(tp, tn, fp, fn, accuracy, precision, roc_points, auc)

