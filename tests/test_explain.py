import json

import numpy as np
import pytest

from gridcast.cli import RunConfig, _write_shapley, load_model, save_model
from gridcast.data import Scaler
from gridcast.errors import ParameterError, SchemaError
from gridcast.explain import attribute, shapley_exact, shapley_sample
from gridcast.network import Network
from gridcast.tensor import RngState

from oracles import enumerate_shapley, shapley_sample_reference


def additive_model(coeffs):
    """f(x) = sum_j c_j * mean over the window of column j, per window."""
    coeffs = np.asarray(coeffs, dtype=np.float64)

    def f(windows):
        return np.asarray(windows).mean(axis=-2) @ coeffs

    return f


def random_nonlinear_model(d, seed):
    rng = RngState(seed)
    w1 = rng.uniform(-1, 1, (d, 6))
    w2 = rng.uniform(-1, 1, 6)

    def f(windows):
        pooled = np.asarray(windows).mean(axis=-2)
        return np.tanh(pooled @ w1) @ w2

    return f


class TestShapleyExact:
    def test_additive_model_closed_form(self):
        coeffs = np.array([2.0, -1.0, 0.5, 3.0])
        f = additive_model(coeffs)
        rng = RngState(1)
        x = rng.uniform(-1, 1, (3, 4))
        bg = rng.uniform(-1, 1, 4)
        phi = shapley_exact(f, x, bg)
        expected = coeffs * (x.mean(axis=0) - bg)
        assert np.abs(phi - expected).max() < 1e-12

    def test_input_equal_to_background_gives_zero(self):
        f = random_nonlinear_model(3, seed=2)
        bg = np.array([0.3, -0.2, 0.9])
        x = np.tile(bg, (4, 1))
        assert np.abs(shapley_exact(f, x, bg)).max() == 0.0

    def test_symmetric_features_get_equal_values(self):
        f = additive_model([1.0, 1.0, 5.0])
        x = np.array([[2.0, 2.0, 7.0]])
        bg = np.array([0.0, 0.0, 0.0])
        phi = shapley_exact(f, x, bg)
        assert abs(phi[0] - phi[1]) < 1e-12

    def test_matches_independent_enumeration(self):
        f = random_nonlinear_model(4, seed=5)
        rng = RngState(6)
        x = rng.uniform(-1, 1, (2, 4))
        bg = rng.uniform(-1, 1, 4)
        phi = shapley_exact(f, x, bg)
        oracle = enumerate_shapley(f, x, bg, 4)
        assert np.abs(phi - oracle).max() < 1e-12

    def test_efficiency_axiom_exact(self):
        f = random_nonlinear_model(5, seed=7)
        rng = RngState(8)
        x = rng.uniform(-1, 1, (3, 5))
        bg = rng.uniform(-0.5, 0.5, 5)
        phi = shapley_exact(f, x, bg)
        gap = phi.sum() - (f(x) - f(np.broadcast_to(bg, x.shape)))
        assert abs(gap) < 1e-10

    def test_dummy_feature_gets_exact_zero(self):
        # model provably ignores column 2
        coeffs = np.array([1.5, -2.0, 0.0, 0.7])
        f = additive_model(coeffs)
        rng = RngState(9)
        x = rng.uniform(-1, 1, (3, 4))
        bg = rng.uniform(-1, 1, 4)
        assert shapley_exact(f, x, bg)[2] == 0.0

    def test_matches_independent_enumeration_at_eight_features(self):
        f = random_nonlinear_model(8, seed=25)
        rng = RngState(26)
        x = rng.uniform(-1, 1, (3, 8))
        bg = rng.uniform(-1, 1, 8)
        phi = shapley_exact(f, x, bg)
        oracle = enumerate_shapley(f, x, bg, 8)
        assert np.abs(phi - oracle).max() < 1e-12

    def test_thirteen_features_additive_closed_form(self):
        coeffs = RngState(27).uniform(-2, 2, 13)
        f = additive_model(coeffs)
        rng = RngState(28)
        x = rng.uniform(-1, 1, (4, 13))
        bg = rng.uniform(-1, 1, 13)
        phi = shapley_exact(f, x, bg)
        expected = coeffs * (x.mean(axis=0) - bg)
        assert np.abs(phi - expected).max() < 1e-12

    def test_one_model_call_scores_every_coalition(self):
        f = additive_model([1.0, -1.0, 2.0])
        stacks = []

        def counted(windows):
            stacks.append(np.asarray(windows).shape)
            return f(windows)

        shapley_exact(counted, np.ones((2, 3)), np.zeros(3))
        assert stacks == [(8, 2, 3)]


class TestShapleySample:
    def test_within_three_stderr_of_exact(self):
        f = random_nonlinear_model(5, seed=10)
        rng = RngState(11)
        x = rng.uniform(-1, 1, (3, 5))
        bg = rng.uniform(-0.5, 0.5, 5)
        exact = shapley_exact(f, x, bg)
        phi, stderr = shapley_sample(f, x, bg, n_perms=2000, rng=RngState(12))
        margin = 3.0 * stderr + 1e-12
        assert (np.abs(phi - exact) <= margin).all()

    def test_additive_model_has_zero_estimator_variance(self):
        f = additive_model([1.0, -2.0, 0.5])
        rng = RngState(13)
        x = rng.uniform(-1, 1, (2, 3))
        bg = rng.uniform(-1, 1, 3)
        phi, stderr = shapley_sample(f, x, bg, n_perms=50, rng=RngState(14))
        assert np.abs(stderr).max() < 1e-12
        assert np.abs(phi - shapley_exact(f, x, bg)).max() < 1e-12

    def test_same_seed_identical_estimates(self):
        f = random_nonlinear_model(6, seed=15)
        x = RngState(16).uniform(-1, 1, (2, 6))
        bg = np.zeros(6)
        a, _ = shapley_sample(f, x, bg, n_perms=30, rng=RngState(17))
        b, _ = shapley_sample(f, x, bg, n_perms=30, rng=RngState(17))
        assert np.array_equal(a, b)

    def test_efficiency_holds_for_sampling_too(self):
        # every permutation telescopes, so the sum is exact by construction
        f = random_nonlinear_model(6, seed=18)
        rng = RngState(19)
        x = rng.uniform(-1, 1, (2, 6))
        bg = rng.uniform(-1, 1, 6)
        phi, _ = shapley_sample(f, x, bg, n_perms=7, rng=RngState(20))
        gap = phi.sum() - (f(x) - f(np.broadcast_to(bg, x.shape)))
        assert abs(gap) < 1e-10

    @pytest.mark.parametrize("d, n_perms", [(1, 3), (5, 1), (6, 40), (13, 50)])
    def test_batched_equals_per_coalition_reference(self, d, n_perms):
        f = random_nonlinear_model(d, seed=29)
        rng = RngState(30)
        x = rng.uniform(-1, 1, (3, d))
        bg = rng.uniform(-1, 1, d)
        batched_rng, reference_rng = RngState(31), RngState(31)
        phi, stderr = shapley_sample(f, x, bg, n_perms, batched_rng)
        ref_phi, ref_stderr = shapley_sample_reference(f, x, bg, n_perms, reference_rng)
        assert np.abs(phi - ref_phi).max() < 1e-12
        assert np.abs(stderr - ref_stderr).max() < 1e-12
        assert batched_rng._counter == reference_rng._counter

    def test_bad_n_perms(self):
        with pytest.raises(ParameterError, match="explain_perms must be >= 1, got 0"):
            RunConfig(csv="data.csv", explain_perms=0).validate()


class TestAttribute:
    def test_report_fields_and_ranking(self):
        f = additive_model([3.0, -1.0, 0.2])
        rng = RngState(21)
        windows = rng.uniform(-1, 1, (4, 2, 3))
        bg = np.zeros(3)
        report = attribute(f, windows, bg, ["a", "b", "c"], n_perms=20, seed=5)
        assert report.per_sample.shape == (4, 3)
        ranking = report.ranking()
        assert ranking[0][0] == "a"            # largest coefficient dominates
        assert np.abs(report.efficiency_gaps()).max() < 1e-10

    def test_repeated_runs_with_one_seed_are_identical(self):
        f = random_nonlinear_model(4, seed=22)
        windows = RngState(23).uniform(-1, 1, (3, 2, 4))
        bg = np.zeros(4)
        r1 = attribute(f, windows, bg, list("wxyz"), n_perms=15, seed=9)
        r2 = attribute(f, windows, bg, list("wxyz"), n_perms=15, seed=9)
        assert np.array_equal(r1.per_sample, r2.per_sample)
        assert r1.ranking() == r2.ranking()

    def test_exact_mode(self):
        f = additive_model([1.0, 2.0])
        windows = RngState(24).uniform(-1, 1, (2, 3, 2))
        report = attribute(f, windows, np.zeros(2), ["p", "q"], exact=True)
        assert report.method == "exact"
        assert report.stderr is None

    def test_name_count_must_match(self, tmp_path):
        # explain names the schema's columns, and a model trained on others is refused
        cfg = RunConfig(window=3, blocks=1, conv_filters=2, gru_units=2, attn_dim=2,
                        mlp_hidden=2)
        path = tmp_path / "model.json"
        save_model(path, Network.build(cfg.network_config(), RngState(0)),
                   Scaler(np.zeros(13), np.ones(13), 0.0, 1.0), cfg)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["feature_names"] = payload["feature_names"][:12]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SchemaError, match="model was trained on columns"):
            load_model(path)

    def test_csv_output(self, tmp_path):
        f = additive_model([2.0, 1.0])
        report = attribute(f, np.ones((2, 2, 2)), np.zeros(2), ["hi", "lo"],
                           n_perms=10, seed=1)
        path = tmp_path / "shapley.csv"
        _write_shapley(path, report)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "feature,mean_abs_shapley"
        assert len(lines) == 3
        assert lines[1].startswith("hi,")
