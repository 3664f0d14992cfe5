import math

import numpy as np
import pytest

from gridcast.cli import _write_trainlog
from gridcast.errors import DataError, DimensionError, NumericError, ParameterError
from gridcast.metrics import regression_metrics
from gridcast.network import Network, NetworkConfig
from gridcast.tensor import RngState
from gridcast.train import (INFERENCE_CHUNK, AdamState, LrSchedule, TrainConfig, adam_step,
                            bce_loss, evaluate_loss, fit, loss, mse_loss,
                            predict_all)

from oracles import adam_reference, max_rel_err, numeric_grad, rel_norm_err


class TestLosses:
    def test_mse_zero_on_match(self):
        value, grad = mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert value == 0.0
        assert np.array_equal(grad, np.zeros(2))

    def test_bce_hand_case(self):
        value, _ = bce_loss(np.array([0.5]), np.array([1.0]))
        assert abs(value - (-math.log(0.5))) < 1e-12
        assert abs(value - 0.693147) < 1e-6

    def test_mse_grad_is_two_delta_over_n(self):
        target = np.array([1.0, 2.0, 3.0, 4.0])
        delta = 0.37
        _, grad = mse_loss(target + delta, target)
        assert np.allclose(grad, 2.0 * delta / 4.0, atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mse_loss(np.zeros(3), np.zeros(4))
        with pytest.raises(DimensionError):
            bce_loss(np.zeros(3), np.zeros(2))

    def test_bce_clamps_extreme_predictions(self):
        value, grad = bce_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(value) and np.isfinite(grad).all()

    @pytest.mark.parametrize("head,make_pred", [
        ("regression", lambda r: r.uniform(-2, 2, 5)),
        ("classification", lambda r: r.uniform(0.05, 0.95, 5)),
    ])
    def test_grad_matches_finite_differences(self, head, make_pred):
        rng = RngState(4)
        pred = make_pred(rng)
        target = (rng.uniforms(5) > 0.5).astype(float) if head == "classification" \
            else rng.uniform(-2, 2, 5)
        _, grad = loss(head, pred, target)
        numeric = numeric_grad(lambda: loss(head, pred, target)[0], pred)
        assert max_rel_err(grad, numeric) < 1e-6

    def test_unknown_head(self):
        # loss reads only the heads NetworkConfig lets a network have
        with pytest.raises(ParameterError, match="head must be one of"):
            NetworkConfig(window=4, features=2, head="ranking").validate()


class TestAdam:
    def test_zero_grad_keeps_params(self):
        param = np.array([1.0, -2.0])
        state = AdamState(param)
        adam_step(param, np.zeros(2), state, lr=0.1, t=1)
        assert np.array_equal(param, [1.0, -2.0])

    def test_first_step_is_lr_times_sign(self):
        # bias-corrected m/sqrt(v) equals g/|g| on step one
        param = np.array([1.0, 1.0, 1.0])
        state = AdamState(param)
        g = np.array([0.3, -7.0, 1e-3])
        adam_step(param, g, state, lr=0.01, t=1)
        update = param - 1.0
        assert np.allclose(update, -0.01 * np.sign(g), rtol=1e-4)
        assert (np.abs(update) <= 0.01 * (1 + 1e-6)).all()

    def test_two_steps_shrink_quadratic(self):
        # f(w) = w^2 from w=1: both steps must move toward 0
        param = np.array([1.0])
        state = AdamState(param)
        trace = [1.0]
        for t in (1, 2):
            adam_step(param, 2.0 * param, state, lr=0.1, t=t)
            trace.append(float(param[0]))
        assert trace[0] > trace[1] > trace[2] > 0.0

    def test_flat_step_equals_per_key_reference_bit_for_bit(self):
        # real gradients of a real network, 200 steps; the per-key loop is
        # the reference, so the flat update must not change a single bit
        x, y = linear_problem(n=64)
        net = tiny_net(dropout=0.2)
        reference = {key: arr.copy() for key, arr in net.params().items()}
        m = {key: np.zeros_like(arr) for key, arr in reference.items()}
        v = {key: np.zeros_like(arr) for key, arr in reference.items()}
        state = AdamState(net.vector)
        dropout_rng = RngState(8)
        for t in range(1, 201):
            batch = slice(16 * (t % 4), 16 * (t % 4) + 16)
            _, grad = mse_loss(net.forward(x[batch], training=True, rng=dropout_rng), y[batch])
            grads = net.backward(grad)
            adam_step(net.vector, net.grad, state, lr=0.01, t=t)
            adam_reference(reference, grads, m, v, lr=0.01, t=t)
            for key, arr in net.params().items():
                assert np.array_equal(arr, reference[key]), (t, key)
        assert np.array_equal(state.m, np.concatenate([a.ravel() for a in m.values()]))
        assert np.array_equal(state.v, np.concatenate([a.ravel() for a in v.values()]))


class TestSchedule:
    def test_improving_losses_keep_lr_and_never_stop(self):
        sched = LrSchedule(TrainConfig(initial_lr=0.01, lr_patience=3,
                                       early_stop_patience=5))
        for k in range(50):
            improved, stop = sched.update(1.0 / (k + 1))
            assert improved and not stop
        assert sched.lr == 0.01

    def test_constant_loss_reduces_after_lr_patience(self):
        cfg = TrainConfig(initial_lr=0.01, lr_patience=4, early_stop_patience=100)
        sched = LrSchedule(cfg)
        sched.update(1.0)
        for _ in range(3):
            sched.update(1.0)
            assert sched.lr == 0.01
        sched.update(1.0)    # 4th non-improving epoch
        assert sched.lr == 0.01 / 3.0

    def test_constant_loss_stops_after_early_stop_patience(self):
        cfg = TrainConfig(initial_lr=0.01, lr_patience=100, early_stop_patience=6)
        sched = LrSchedule(cfg)
        sched.update(1.0)
        stops = [sched.update(1.0)[1] for _ in range(6)]
        assert stops == [False] * 5 + [True]

    def test_every_reduction_divides_by_exactly_three(self):
        cfg = TrainConfig(initial_lr=0.003, lr_patience=2, early_stop_patience=100)
        sched = LrSchedule(cfg)
        seen = [sched.lr]
        sched.update(1.0)
        for _ in range(8):
            sched.update(1.0)
            if sched.lr != seen[-1]:
                seen.append(sched.lr)
        assert len(seen) == 5
        for k, lr in enumerate(seen):
            assert lr == 0.003 / 3 ** k

    def test_tiny_wiggle_below_threshold_is_not_improvement(self):
        cfg = TrainConfig(initial_lr=0.01, lr_patience=3, early_stop_patience=3)
        sched = LrSchedule(cfg)
        sched.update(1.0)
        assert sched.update(1.0 - 1e-12)[0] is False
        assert sched.update(1.0 - 2e-12)[0] is False
        assert sched.update(1.0 - 3e-12)[1] is True


def linear_problem(n=160, window=4, features=3, seed=42):
    rng = RngState(seed)
    x = rng.uniform(-1, 1, (n, window, features))
    w_true = np.array([0.7, -0.4, 0.2])
    y = x[:, -1, :] @ w_true + 0.01 * rng.normals(n)
    return x, y


def tiny_net(window=4, features=3, seed=7, dropout=0.0):
    cfg = NetworkConfig(window=window, features=features, blocks=1, conv_filters=4,
                        gru_units=4, attn_dim=4, mlp_hidden=8, dropout_rate=dropout)
    return Network.build(cfg, RngState(seed))


class TestPredictAll:
    def test_chunks_match_one_window_forwards(self):
        # two whole chunks and a partial one, against batches of 1
        net = Network.build(NetworkConfig(window=8, features=13, dropout_rate=0.5),
                            RngState(60))
        x = RngState(61).uniform(-2, 2, (2 * INFERENCE_CHUNK + 45, 8, 13))
        single = np.concatenate([net.forward(window) for window in x])
        assert rel_norm_err(predict_all(net, x), single) <= 1e-12


class TestFit:
    def test_learns_linear_target(self):
        x, y = linear_problem()
        net = tiny_net()
        cfg = TrainConfig(max_epochs=100, initial_lr=0.02, batch_size=16, seed=123,
                          early_stop_patience=60, lr_patience=30)
        net, log = fit(net, (x[:128], y[:128]), (x[128:], y[128:]), cfg)
        report = regression_metrics(predict_all(net, x[128:]), y[128:])
        assert report.r2 >= 0.95
        assert len(log.epochs) <= 100

    def test_single_epoch_logs_one_row(self):
        x, y = linear_problem(n=30)
        net = tiny_net()
        _, log = fit(net, (x[:24], y[:24]), (x[24:], y[24:]),
                     TrainConfig(max_epochs=1, seed=5))
        assert len(log.epochs) == 1
        assert log.stop_reason == "max_epochs"

    def test_same_seed_identical_log(self):
        x, y = linear_problem(n=40)
        logs = []
        for _ in range(2):
            net = tiny_net(dropout=0.2)
            _, log = fit(net, (x[:32], y[:32]), (x[32:], y[32:]),
                         TrainConfig(max_epochs=3, seed=77))
            logs.append([(r.epoch, r.train_loss, r.val_loss, r.lr) for r in log.epochs])
        assert logs[0] == logs[1]

    def test_empty_set_errors(self):
        x, y = linear_problem(n=20)
        with pytest.raises(DataError):
            fit(tiny_net(), (x[:0], y[:0]), (x, y), TrainConfig(max_epochs=1))

    def test_invalid_config_refused(self):
        x, y = linear_problem(n=20)
        with pytest.raises(ParameterError, match="invalid train config: batch_size must be >= 1"):
            fit(tiny_net(), (x[:16], y[:16]), (x[16:], y[16:]), TrainConfig(batch_size=0))

    def test_never_runs_past_max_epochs_and_reason_is_valid(self):
        x, y = linear_problem(n=40)
        net = tiny_net()
        _, log = fit(net, (x[:32], y[:32]), (x[32:], y[32:]),
                     TrainConfig(max_epochs=4, seed=1))
        assert len(log.epochs) <= 4
        assert log.stop_reason in ("early_stop", "max_epochs")

    def test_best_restore_matches_log_minimum(self):
        x, y = linear_problem(n=60)
        net = tiny_net()
        cfg = TrainConfig(max_epochs=12, initial_lr=0.05, batch_size=8, seed=3)
        net, log = fit(net, (x[:48], y[:48]), (x[48:], y[48:]), cfg)
        final_val = evaluate_loss(net, x[48:], y[48:], "regression")
        assert abs(final_val - min(r.val_loss for r in log.epochs)) < 1e-12

    def test_frozen_run_follows_plateau_protocol(self):
        # targets equal to the dropout-free network's own outputs: every gradient
        # is zero, Adam moves nothing and the validation loss stays flat, so lr
        # cuts after lr_patience epochs and the run stops after exactly
        # early_stop_patience non-improving epochs
        x, _ = linear_problem(n=24)
        net = tiny_net()
        y = predict_all(net, x)
        cfg = TrainConfig(max_epochs=1000, initial_lr=0.009, lr_patience=3,
                          early_stop_patience=7, seed=9)
        net, log = fit(net, (x[:16], y[:16]), (x[16:], y[16:]), cfg)
        assert log.stop_reason == "early_stop"
        assert len(log.epochs) == 1 + 7
        lrs = [rec.lr for rec in log.epochs]
        assert lrs[:4] == [0.009] * 4
        assert lrs[4:7] == [0.009 / 3] * 3
        assert lrs[7] == 0.009 / 9

    def test_lr_trace_reduction_count_matches_changes(self):
        # a flat loss curve, as in test_frozen_run_follows_plateau_protocol
        x, _ = linear_problem(n=24)
        net = tiny_net()
        y = predict_all(net, x)
        cfg = TrainConfig(max_epochs=40, initial_lr=0.01, lr_patience=2,
                          early_stop_patience=12, seed=11)
        _, log = fit(net, (x[:16], y[:16]), (x[16:], y[16:]), cfg)
        lrs = [rec.lr for rec in log.epochs]
        changes = sum(1 for a, b in zip(lrs, lrs[1:]) if a != b)
        for a, b in zip(lrs, lrs[1:]):
            assert b <= a                     # non-increasing
            if a != b:
                assert b == pytest.approx(a / 3.0, rel=1e-12, abs=0)
        # with patience 2 and stop 12: reductions at non-improve counts 2,4,..
        assert changes == 5

    def test_trainlog_csv_round_trip(self, tmp_path):
        x, y = linear_problem(n=30)
        _, log = fit(tiny_net(), (x[:24], y[:24]), (x[24:], y[24:]),
                     TrainConfig(max_epochs=2, seed=2))
        path = tmp_path / "trainlog.csv"
        _write_trainlog(path, log)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,lr"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == log.epochs[0].train_loss


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFinite:
    def test_overflowing_training_loss_names_the_epoch(self):
        x, y = linear_problem(n=40)
        with pytest.raises(NumericError, match="epoch 1: training loss is inf"):
            fit(tiny_net(), (x[:32], y[:32] * 1e200), (x[32:], y[32:]),
                TrainConfig(max_epochs=5, seed=1))

    def test_overflowing_validation_loss_names_the_epoch(self):
        x, y = linear_problem(n=40)
        with pytest.raises(NumericError, match="epoch 1: validation loss is inf"):
            fit(tiny_net(), (x[:32], y[:32]), (x[32:], y[32:] * 1e200),
                TrainConfig(max_epochs=5, seed=1))

    def test_non_finite_gradient_names_epoch_and_parameter(self, monkeypatch):
        x, y = linear_problem(n=40)
        net = tiny_net()
        backward = net.backward
        calls = []

        def poisoned(loss_grad):
            grads = backward(loss_grad)
            calls.append(None)
            if len(calls) == 3:       # first batch of epoch 2 (two batches per epoch)
                grads["block0.gru.U_rz"][0, 0, 0] = np.nan
            return grads

        monkeypatch.setattr(net, "backward", poisoned)
        with pytest.raises(NumericError, match=r"epoch 2: non-finite gradient for parameter "
                                               r"block0\.gru\.U_rz"):
            fit(net, (x[:32], y[:32]), (x[32:], y[32:]),
                TrainConfig(max_epochs=5, batch_size=16, seed=1))

    @pytest.mark.parametrize("key,position", [
        (None, 0),                    # first element of the first key
        ("head.out.bias", -1),        # last element of the vector
        ("block0.gru.W", -1),         # last element before an interior boundary
        ("block0.gru.U_rz", 0),       # first element after it
    ])
    def test_poisoned_gradient_element_names_its_key(self, monkeypatch, key, position):
        x, y = linear_problem(n=40)
        net = tiny_net()
        key = key or next(iter(net.params()))
        backward = net.backward

        def poisoned(loss_grad):
            grads = backward(loss_grad)
            grads[key].flat[position] = np.inf
            return grads

        monkeypatch.setattr(net, "backward", poisoned)
        with pytest.raises(NumericError) as err:
            fit(net, (x[:32], y[:32]), (x[32:], y[32:]),
                TrainConfig(max_epochs=2, batch_size=16, seed=1))
        assert str(err.value) == f"epoch 1: non-finite gradient for parameter {key}"
