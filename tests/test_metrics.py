import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcast.cli import _write_compare, _write_json, _write_roc
from gridcast.errors import NumericError
from gridcast.metrics import RegressionReport, classification_metrics, regression_metrics

from oracles import trapezoid_auc

REPO = Path(__file__).resolve().parents[1]


class TestRegressionMetrics:
    def test_perfect_prediction(self):
        rep = regression_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert (rep.mae, rep.rmse, rep.r2) == (0.0, 0.0, 1.0)

    def test_hand_case(self):
        rep = regression_metrics([1.0, 2.0], [2.0, 4.0])
        assert rep.mae == 1.5
        assert abs(rep.rmse - math.sqrt(2.5)) < 1e-15
        assert abs(rep.rmse - 1.5811) < 1e-4

    def test_constant_mean_prediction_gives_zero_r2(self):
        real = np.array([1.0, 3.0, 5.0, 7.0])
        rep = regression_metrics(np.full(4, real.mean()), real)
        assert abs(rep.r2) < 1e-15

    def test_zero_variance_real_is_undefined(self):
        with pytest.raises(NumericError):
            regression_metrics([1.0, 2.0], [3.0, 3.0])

    @pytest.mark.parametrize("pred, real, named", [
        pytest.param([np.nan, np.nan], [1.0, 2.0], "mae and rmse and r2", id="all-nan-predictions"),
        pytest.param([1e308, 2.0], [-1e308, 3.0], "mae and rmse and r2", id="overflowing-error"),
        pytest.param([1e200, 2.0], [1.0, 3.0], "rmse and r2", id="overflowing-square"),
        pytest.param([1.0, 2.0], [np.inf, 3.0], "mae and rmse and r2", id="infinite-target"),
    ])
    def test_non_finite_result_is_numeric_error(self, pred, real, named, recwarn):
        with pytest.raises(NumericError, match=f"^{named} not finite"):
            regression_metrics(pred, real)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=50),
           st.integers(0, 10_000))
    @settings(max_examples=300, deadline=None)
    def test_rmse_at_least_mae(self, real, seed):
        real = np.array(real)
        pred = real + np.random.default_rng(seed).normal(0, 5, real.size)
        # targets spread over less than this leave r2 undefined or infinite, which
        # regression_metrics refuses; the zero-variance and non-finite tests above cover that
        if np.ptp(real) < 1e-6:
            real[0] += 1.0
        rep = regression_metrics(pred, real)
        assert rep.rmse >= rep.mae - 1e-12
        assert rep.r2 <= 1.0

    def test_paired_permutation_invariance(self):
        rng = np.random.default_rng(4)
        pred = rng.normal(0, 1, 20)
        real = rng.normal(0, 1, 20)
        perm = rng.permutation(20)
        a = regression_metrics(pred, real)
        b = regression_metrics(pred[perm], real[perm])
        assert np.allclose([a.mae, a.rmse, a.r2], [b.mae, b.rmse, b.r2], atol=1e-12)


class TestClassificationMetrics:
    def test_perfect_separation(self):
        rep = classification_metrics([0.9, 0.1], [1.0, 0.0])
        assert (rep.tp, rep.tn, rep.fp, rep.fn) == (1, 1, 0, 0)
        assert rep.accuracy == 1.0
        assert rep.precision == 1.0
        assert rep.auc == 1.0

    def test_uninformative_scores_give_half_auc(self):
        rep = classification_metrics([0.5, 0.5, 0.5, 0.5], [1.0, 0.0, 1.0, 0.0])
        assert rep.auc == 0.5

    def test_four_point_hand_case(self):
        # ranked pairs: 3 of 4 (pos, neg) pairs ordered correctly
        rep = classification_metrics([0.9, 0.8, 0.4, 0.2], [1.0, 0.0, 1.0, 0.0])
        assert rep.auc == 0.75
        oracle = trapezoid_auc([(f, t) for f, t, _ in rep.roc_points])
        assert abs(rep.auc - oracle) < 1e-15

    def test_accuracy_is_exact_count_ratio(self):
        # at 0.5: predictions are [1,1,0,0,1] -> TP,FP,FN,TN,TP by hand
        scores = [0.9, 0.6, 0.4, 0.3, 0.8]
        labels = [1.0, 0.0, 1.0, 0.0, 1.0]
        rep = classification_metrics(scores, labels)
        assert rep.accuracy == (rep.tp + rep.tn) / 5
        assert (rep.tp, rep.fp, rep.tn, rep.fn) == (2, 1, 1, 1)
        assert rep.precision == 2 / 3

    def test_precision_undefined_marker_when_no_positive_predictions(self):
        rep = classification_metrics([0.1, 0.2], [1.0, 0.0])
        assert rep.precision is None

    def test_roc_monotone_and_bounded(self):
        rng = np.random.default_rng(8)
        scores = rng.uniform(0, 1, 200)
        labels = (rng.uniform(0, 1, 200) < 0.4).astype(float)
        rep = classification_metrics(scores, labels)
        fprs = [p[0] for p in rep.roc_points]
        tprs = [p[1] for p in rep.roc_points]
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)
        assert fprs[0] == 0.0 and fprs[-1] == 1.0
        assert 0.0 <= rep.auc <= 1.0

    def test_inverted_scores_flip_auc(self):
        rng = np.random.default_rng(9)
        scores = rng.uniform(0, 1, 100)
        labels = (scores + rng.normal(0, 0.3, 100) > 0.5).astype(float)
        a = classification_metrics(scores, labels).auc
        b = classification_metrics(1.0 - scores, labels).auc
        assert abs((1.0 - a) - b) < 1e-12

    def test_sweeps_each_distinct_score_without_importing_numpy_ma(self):
        # a fresh interpreter, since any earlier np.unique call in this one
        # has imported numpy.ma already
        code = (
            "import sys\n"
            "from gridcast.metrics import classification_metrics\n"
            "rep = classification_metrics([0.4, 0.9, 0.4, -0.0, 0.0, 0.7], [1, 1, 0, 0, 1, 0])\n"
            "print([p[2] for p in rep.roc_points[1:]], 'numpy.ma' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(REPO / "src")},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[0.9,", "0.7,", "0.4,", "-0.0]", "False"]

    def test_to_dict_schema(self):
        rep = classification_metrics([0.9, 0.1], [1.0, 0.0])
        payload = rep.to_dict()
        assert payload["confusion"] == {"tp": 1, "tn": 1, "fp": 0, "fn": 0}
        # the ROC points, with their infinite end thresholds, live in roc.csv alone
        assert set(payload) == {"confusion", "accuracy", "precision", "auc"}


class TestReportFiles:
    def test_roc_csv(self, tmp_path):
        rep = classification_metrics([0.9, 0.8, 0.4, 0.2], [1.0, 0.0, 1.0, 0.0])
        path = tmp_path / "roc.csv"
        _write_roc(path, rep)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "fpr,tpr,threshold"
        assert len(lines) == len(rep.roc_points) + 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_json_refuses_non_finite_numbers(self, tmp_path, value):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            _write_json({"auc": value}, tmp_path / "metrics.json")

    def test_comparison_csv_with_markers(self, tmp_path):
        path = tmp_path / "compare.csv"
        _write_compare(path, [("CNN-GRU-Attention", RegressionReport(0.391, 0.52, 0.9889))])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "model,mae,rmse,r2"
        assert lines[1] == "CNN-GRU-Attention,0.39,0.52,98.89"
        assert lines[2] == "SVR,not reproduced,not reproduced,not reproduced"
        assert lines[3] == "XGB,not reproduced,not reproduced,not reproduced"
