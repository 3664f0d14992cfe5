import json

import numpy as np
import pytest

from gridcast.cli import RunConfig, save_model
from gridcast.data import Scaler
from gridcast.errors import DimensionError, ParameterError, StateError
from gridcast.network import Network, NetworkConfig
from gridcast.tensor import RngState
from gridcast.train import loss

from oracles import check_gradients, rel_norm_err

BATCH = 3


def tiny_config(case: int) -> NetworkConfig:
    return NetworkConfig(
        window=2 + case % 3,
        features=1 + case % 2,
        blocks=1 + case % 2,
        conv_filters=1 + case % 3,
        kernel=(1, 3)[case % 2],
        gru_units=1 + (case + 1) % 3,
        attn_dim=1 + case % 2,
        mlp_hidden=2 + case % 2,
        dropout_rate=(0.0, 0.25)[case % 2],
        head=("regression", "classification")[case % 2],
    )


class TestBuild:
    def test_default_merged_width(self):
        cfg = NetworkConfig(window=8, features=13)
        net = Network.build(cfg, RngState(0))
        assert net.blocks[0].norm.gain.shape == (16 + 16,)
        assert net.blocks[1].conv.kernels.shape[1] == 32

    def test_minimal_network_runs(self):
        cfg = NetworkConfig(window=3, features=2, blocks=1, conv_filters=1,
                            gru_units=1, attn_dim=1, mlp_hidden=1)
        net = Network.build(cfg, RngState(1))
        out = net.forward(np.ones((3, 2)))
        assert out.shape == (1,)

    def test_same_seed_bit_identical_parameters(self):
        cfg = NetworkConfig(window=4, features=3)
        a = Network.build(cfg, RngState(77))
        b = Network.build(cfg, RngState(77))
        for key, arr in a.params().items():
            assert np.array_equal(arr, b.params()[key]), key

    def test_param_count_positive_and_stable(self):
        cfg = NetworkConfig(window=4, features=3)
        net = Network.build(cfg, RngState(0))
        assert net.param_count() == sum(v.size for v in net.params().values())
        assert net.param_count() > 0

    def test_invalid_config_lists_all_violations(self):
        cfg = NetworkConfig(window=0, features=3, kernel=4, dropout_rate=1.5)
        with pytest.raises(ParameterError) as err:
            Network.build(cfg, RngState(0))
        text = str(err.value)
        assert "window" in text and "kernel" in text and "dropout_rate" in text


class TestForward:
    def test_classification_output_in_unit_interval(self):
        cfg = NetworkConfig(window=5, features=4, head="classification")
        net = Network.build(cfg, RngState(3))
        rng = RngState(4)
        for _ in range(10):
            out = net.forward(rng.uniform(-10, 10, (5, 4)))
            assert 0.0 < out[0] < 1.0

    @pytest.mark.parametrize("head", ["regression", "classification"])
    def test_output_shape_is_one(self, head):
        for window, features in ((2, 1), (8, 13), (5, 3)):
            cfg = NetworkConfig(window=window, features=features, head=head,
                                blocks=1, conv_filters=2, gru_units=2,
                                attn_dim=2, mlp_hidden=2)
            net = Network.build(cfg, RngState(0))
            assert net.forward(np.ones((window, features))).shape == (1,)

    def test_zero_head_outputs(self):
        for head, expected in (("regression", 0.0), ("classification", 0.5)):
            cfg = NetworkConfig(window=4, features=3, head=head)
            net = Network.build(cfg, RngState(9))
            net.head_out.weight[:] = 0.0
            net.head_out.bias[:] = 0.0
            out = net.forward(RngState(1).uniform(-2, 2, (4, 3)))
            assert out[0] == expected

    def test_inference_is_pure(self):
        cfg = NetworkConfig(window=4, features=3, dropout_rate=0.4)
        net = Network.build(cfg, RngState(5))
        x = RngState(6).uniform(-1, 1, (4, 3))
        first = net.forward(x)
        for _ in range(5):
            assert np.array_equal(net.forward(x), first)

    def test_more_blocks_same_output_shape(self):
        for blocks in (1, 2, 3):
            cfg = NetworkConfig(window=4, features=3, blocks=blocks,
                                conv_filters=2, gru_units=2, attn_dim=2, mlp_hidden=2)
            net = Network.build(cfg, RngState(0))
            assert net.forward(np.zeros((4, 3))).shape == (1,)

    @pytest.mark.parametrize("case", range(6))
    def test_batch_equals_stacked_single_windows(self, case):
        cfg = tiny_config(case)
        net = Network.build(cfg, RngState(1000 + case))
        x = RngState(2000 + case).uniform(-1, 1, (5, cfg.window, cfg.features))
        out = net.forward(x)
        assert out.shape == (5,)
        stacked = np.concatenate([net.forward(x[i]) for i in range(5)])
        assert rel_norm_err(out, stacked) <= 1e-12

    def test_batch_of_one_matches_single_window(self):
        net = Network.build(NetworkConfig(window=4, features=3), RngState(0))
        x = RngState(1).uniform(-1, 1, (4, 3))
        assert net.forward(x[np.newaxis]).shape == (1,)
        assert rel_norm_err(net.forward(x[np.newaxis]), net.forward(x)) <= 1e-12

    def test_shape_mismatch(self):
        net = Network.build(NetworkConfig(window=4, features=3), RngState(0))
        with pytest.raises(DimensionError):
            net.forward(np.ones((4, 5)))

    def test_training_dropout_needs_rng(self):
        net = Network.build(NetworkConfig(window=4, features=3, dropout_rate=0.5),
                            RngState(0))
        with pytest.raises(ParameterError):
            net.forward(np.ones((4, 3)), training=True, rng=None)


class TestBackward:
    def test_backward_without_forward_raises(self):
        net = Network.build(NetworkConfig(window=4, features=3), RngState(0))
        with pytest.raises(StateError):
            net.backward(np.ones(1))

    def test_zero_loss_grad_zero_gradients(self):
        net = Network.build(NetworkConfig(window=4, features=3, dropout_rate=0.0),
                            RngState(1))
        net.forward(RngState(2).uniform(-1, 1, (4, 3)), training=True)
        grads = net.backward(np.zeros(1))
        for key, g in grads.items():
            assert np.array_equal(g, np.zeros_like(g)), key

    def test_gradients_deterministic_under_fixed_seed(self):
        cfg = NetworkConfig(window=4, features=3, dropout_rate=0.5)
        x = RngState(3).uniform(-1, 1, (4, 3))
        results = []
        for _ in range(2):
            net = Network.build(cfg, RngState(11))
            net.forward(x, training=True, rng=RngState(21))
            results.append(net.backward(np.array([1.0])))
        for key in results[0]:
            assert np.array_equal(results[0][key], results[1][key]), key

    @pytest.mark.parametrize("case", range(6))
    def test_whole_network_gradient_check(self, case):
        cfg = tiny_config(case)
        net = Network.build(cfg, RngState(1000 + case))
        x = RngState(2000 + case).uniform(-1, 1, (cfg.window, cfg.features))
        arrays = {"x": x, **net.params()}

        def forward_fn(net=net, x=x, case=case):
            # fixed dropout-mask replay keeps the map differentiable per seed
            return net.forward(x, training=True, rng=RngState(3000 + case))

        def backward_fn(up, net=net):
            grads = net.backward(up)
            return {"x": net.input_grad, **grads}

        check_gradients(forward_fn, backward_fn, arrays, seed=case)


    @pytest.mark.parametrize("case", range(6))
    def test_whole_network_gradient_check_batch(self, case):
        cfg = tiny_config(case)
        net = Network.build(cfg, RngState(1100 + case))
        x = RngState(2100 + case).uniform(-1, 1, (BATCH, cfg.window, cfg.features))
        arrays = {"x": x, **net.params()}

        def forward_fn():
            return net.forward(x, training=True, rng=RngState(3100 + case))

        def backward_fn(up):
            grads = net.backward(up)
            assert net.input_grad.shape == x.shape
            return {"x": net.input_grad, **grads}

        check_gradients(forward_fn, backward_fn, arrays, seed=case)

    @pytest.mark.parametrize("case", range(6))
    def test_batch_gradients_equal_mean_of_per_sample(self, case):
        # the same dropout stream feeds the batch and the windows in turn,
        # so both see identical masks
        cfg = tiny_config(case)
        net = Network.build(cfg, RngState(1200 + case))
        rng = RngState(2200 + case)
        x = rng.uniform(-1, 1, (4, cfg.window, cfg.features))
        y = (rng.uniforms(4) > 0.5).astype(float)
        _, grad = loss(cfg.head, net.forward(x, training=True, rng=RngState(5)), y)
        batched = net.backward(grad)
        batched_dx = net.input_grad
        stream = RngState(5)
        mean = {key: np.zeros_like(g) for key, g in batched.items()}
        for i in range(4):
            _, grad = loss(cfg.head, net.forward(x[i], training=True, rng=stream), y[i:i + 1])
            for key, g in net.backward(grad).items():
                mean[key] += g / 4
            # the batch-mean loss weighs each window's input gradient by 1/B
            assert rel_norm_err(batched_dx[i], net.input_grad / 4) <= 1e-12
        for key, g in batched.items():
            assert rel_norm_err(g, mean[key]) <= 1e-12, key


class TestSaveLoad:
    def test_round_trip_bit_exact(self):
        cfg = NetworkConfig(window=4, features=3, dropout_rate=0.3)
        net = Network.build(cfg, RngState(13))
        loaded = Network.from_dict(json.loads(json.dumps(net.to_dict())))
        assert loaded.config == net.config
        for key, arr in net.params().items():
            assert np.array_equal(arr, loaded.params()[key]), key
        x = RngState(14).uniform(-1, 1, (4, 3))
        assert np.array_equal(net.forward(x), loaded.forward(x))

    def test_save_is_deterministic_bytes(self, tmp_path):
        cfg = NetworkConfig(window=3, features=2)
        net = Network.build(cfg, RngState(5))
        scaler = Scaler(np.zeros(2), np.ones(2), 0.0, 1.0)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(p1, net, scaler, RunConfig(window=3))
        save_model(p2, net, scaler, RunConfig(window=3))
        assert p1.read_bytes() == p2.read_bytes()
