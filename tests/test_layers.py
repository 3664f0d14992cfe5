import base64
import json
import math

import numpy as np
import pytest

from gridcast.cli import RunConfig, load_model, save_model
from gridcast.data import Scaler
from gridcast.errors import DimensionError, ParameterError, SchemaError, StateError
from gridcast.layers import (LAYERNORM_EPSILON, Attention, Conv1d, Dense, Dropout, Gru, LayerNorm,
                             Relu)
from gridcast.network import Network, NetworkConfig
from gridcast.tensor import RngState

from oracles import check_gradients, gru_reference, max_rel_err, numeric_grad, rel_norm_err

BATCH = 3
# a one-block network: conv 13 -> 3 channels, GRU 13 -> 4 units, attention width 3
SMALL_RUN = RunConfig(window=5, blocks=1, conv_filters=3, gru_units=4, attn_dim=3,
                      mlp_hidden=4)


def model_file_with(tmp_path, key, shape):
    """A model file of ``SMALL_RUN``'s network whose parameter ``key`` is zeros of ``shape``.

    Layers take their weights from ``Network.build`` or from a model file,
    so ``load_model`` is where a wrongly shaped weight is refused.
    """
    path = tmp_path / "model.json"
    net = Network.build(SMALL_RUN.network_config(), RngState(0))
    save_model(path, net, Scaler(np.zeros(13), np.ones(13), 0.0, 1.0), SMALL_RUN)
    payload = json.loads(path.read_text(encoding="utf-8"))
    data = base64.b64encode(np.zeros(shape, dtype="<f8").tobytes()).decode("ascii")
    payload["network"]["params"][key] = {"shape": list(shape), "data": data}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def naive_conv1d(kernels, bias, x):
    """Sliding-window reference: explicit loops over time, channels, taps."""
    out_ch, in_ch, k = kernels.shape
    t_len = x.shape[0]
    pad = k // 2
    out = np.zeros((t_len, out_ch))
    for t in range(t_len):
        for o in range(out_ch):
            acc = bias[o]
            for i in range(in_ch):
                for j in range(k):
                    src = t + j - pad
                    if 0 <= src < t_len:
                        acc += kernels[o, i, j] * x[src, i]
            out[t, o] = acc
    return out


class TestConv1dForward:
    def test_identity_kernel(self):
        layer = Conv1d(np.array([[[1.0]]]), np.zeros(1))
        x = np.array([[[1.0], [2.0], [3.0]]])
        assert np.array_equal(layer.forward(x), x)

    def test_zero_kernel_bias_constant(self):
        layer = Conv1d(np.zeros((1, 1, 3)), np.array([4.5]))
        out = layer.forward(np.array([[[1.0], [2.0], [3.0]]]))
        assert np.array_equal(out, np.full((1, 3, 1), 4.5))

    def test_box_kernel_hand_case(self):
        layer = Conv1d(np.ones((1, 1, 3)), np.zeros(1))
        out = layer.forward(np.array([[[1.0], [2.0], [3.0]]]))
        assert np.array_equal(out.ravel(), [3.0, 6.0, 5.0])

    def test_matches_naive_loop(self):
        rng = RngState(21)
        kernels = rng.uniform(-1, 1, (3, 2, 5))
        bias = rng.uniform(-1, 1, 3)
        x = rng.uniform(-2, 2, (1, 7, 2))
        layer = Conv1d(kernels, bias)
        assert np.allclose(layer.forward(x)[0], naive_conv1d(kernels, bias, x[0]), atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_time_length_preserved(self, k):
        rng = RngState(k)
        layer = Conv1d.init(2, 3, k, rng)
        for t_len in (1, 2, 5, 11):
            x = rng.uniform(-1, 1, (1, t_len, 2))
            assert layer.forward(x).shape == (1, t_len, 3)

    def test_channel_mismatch(self, tmp_path):
        with pytest.raises(SchemaError, match=r"block0.conv.kernels has shape \[3, 5, 3\]"):
            load_model(model_file_with(tmp_path, "block0.conv.kernels", (3, 5, 3)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ParameterError, match="kernel must be a positive odd integer"):
            NetworkConfig(window=4, features=2, kernel=2).validate()


class TestGruForward:
    def test_zero_params_zero_state(self):
        layer = Gru(np.zeros((3, 2, 3)), np.zeros((2, 3, 3)), np.zeros((3, 3)), np.zeros((3, 3)))
        out = layer.forward(np.ones((1, 4, 2)))
        assert np.array_equal(out, np.zeros((1, 4, 3)))

    def test_zero_params_halving_recursion(self):
        # only the candidate input weight is set: z = 0.5 throughout, the
        # first input moves the zero state to 0.5 * tanh(x_0 W_c), and on
        # zero inputs the candidate is 0, so the state halves every step
        w = np.zeros((3, 2, 3))
        w[2] = [[0.5, -1.0, 2.0], [0.0, 0.0, 0.0]]
        layer = Gru(w, np.zeros((2, 3, 3)), np.zeros((3, 3)), np.zeros((3, 3)))
        x = np.zeros((1, 4, 2))
        x[0, 0] = [1.0, 7.0]
        out = layer.forward(x)
        h1 = 0.5 * np.tanh(w[2, 0])
        for t in range(4):
            assert np.allclose(out[0, t], h1 * 0.5 ** t, atol=1e-15)

    def test_scalar_hand_case(self):
        # in=hidden=1, only the candidate input weight is 1:
        # r=z=0.5, candidate tanh(1), h1 = 0.5*tanh(1)
        layer = Gru(W=[[[0.0]], [[0.0]], [[1.0]]], U_rz=[[[0.0]], [[0.0]]], U=[[0.0]],
                    b=[[0.0], [0.0], [0.0]])
        out = layer.forward(np.array([[[1.0]]]))
        expected = 0.5 * math.tanh(1.0)
        assert abs(out[0, 0, 0] - expected) < 1e-12
        assert abs(expected - 0.380797) < 1e-6

    def test_bounded_by_max_of_h0_and_one(self):
        # each state is a convex mix of the previous one and a tanh, so
        # from the zero h0 every state stays within [-1, 1]
        rng = RngState(17)
        for case in range(20):
            layer = Gru.init(3, 4, rng)
            layer.b += rng.uniform(-3, 3, layer.b.shape)
            x = rng.uniform(-5, 5, (1, 6, 3))
            assert (np.abs(layer.forward(x)) <= 1.0 + 1e-12).all()

    def test_width_mismatch(self):
        net = Network.build(SMALL_RUN.network_config(), RngState(0))
        with pytest.raises(DimensionError, match=r"\(5, 13\)"):
            net.forward(np.ones((1, 5, 12)))

    def test_params_are_four_stacked_arrays(self):
        layer = Gru.init(3, 4, RngState(0))
        assert {key: arr.shape for key, arr in layer.params().items()} == {
            "W": (3, 3, 4), "U_rz": (2, 4, 4), "U": (4, 4), "b": (3, 4)}

    @pytest.mark.parametrize("name, shape", [("W", (2, 3, 4)), ("U_rz", (3, 4, 4)),
                                             ("U", (4, 3)), ("b", (3,))])
    def test_bad_stacked_shape_rejected(self, tmp_path, name, shape):
        with pytest.raises(SchemaError, match=f"block0.gru.{name} has shape"):
            load_model(model_file_with(tmp_path, f"block0.gru.{name}", shape))


@pytest.mark.parametrize("batch", [1, 3, 32])
@pytest.mark.parametrize("in_dim, hidden, t_len", [(1, 1, 1), (3, 4, 5), (13, 16, 8)])
def test_gru_matches_per_gate_reference_bit_for_bit(batch, in_dim, hidden, t_len):
    rng = RngState(1800 + batch)
    layer = Gru.init(in_dim, hidden, rng)
    layer.b += rng.uniform(-0.5, 0.5, layer.b.shape)
    x = rng.uniform(-1, 1, (batch, t_len, in_dim))
    up = rng.uniform(-1, 1, (batch, t_len, hidden))
    out, dx, _, grads = gru_reference(layer.W, layer.U_rz, layer.U, layer.b, x,
                                      np.zeros((batch, hidden)), up)
    assert np.array_equal(layer.forward(x), out)
    assert np.array_equal(layer.backward(up), dx)
    assert layer.grads.keys() == grads.keys()
    for key, g in grads.items():
        assert np.array_equal(layer.grads[key], g), key


class TestAttentionForward:
    def test_single_timestep_passthrough(self):
        layer = Attention.init(3, 2, RngState(1))
        x = np.array([[[0.3, -1.2, 2.0]]])
        assert np.allclose(layer.forward(x), x, atol=1e-15)

    def test_identical_rows_average_to_common_row(self):
        layer = Attention.init(3, 2, RngState(2))
        row = np.array([0.5, -0.25, 1.5])
        x = np.tile(row, (1, 4, 1))
        out = layer.forward(x)
        assert np.allclose(out, x, atol=1e-12)

    def test_scalar_hand_case(self):
        # d = d_attn = 1, K_w = Q_w = [1], x = [[0], [ln 3]]:
        # row 2 scores are [0, (ln 3)^2], weights follow a two-way softmax
        layer = Attention(K_w=[[1.0]], Q_w=[[1.0]])
        ln3 = math.log(3.0)
        out = layer.forward(np.array([[[0.0], [ln3]]]))
        # row 1: scores [0, 0] -> weights [.5, .5]
        assert abs(out[0, 0, 0] - 0.5 * ln3) < 1e-12
        w2 = math.exp(ln3 * ln3)
        alpha = np.array([1.0, w2]) / (1.0 + w2)
        assert abs(out[0, 1, 0] - alpha[1] * ln3) < 1e-12

    def test_rows_sum_to_one(self):
        rng = RngState(5)
        layer = Attention.init(4, 3, rng)
        layer.forward(rng.uniform(-2, 2, (1, 6, 4)))
        _, _, _, weights = layer._cache
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12)

    def test_width_mismatch(self, tmp_path):
        with pytest.raises(SchemaError, match=r"block0.attn.K_w has shape \[3, 3\]"):
            load_model(model_file_with(tmp_path, "block0.attn.K_w", (3, 3)))


class TestDenseForward:
    def test_identity(self):
        layer = Dense(np.eye(3), np.zeros(3))
        x = np.array([[1.0, -2.0, 0.5]])
        assert np.array_equal(layer.forward(x), x)

    def test_zero_weight_constant_bias(self):
        layer = Dense(np.zeros((3, 2)), np.array([5.0, -1.0]))
        out = layer.forward(np.ones((4, 3)))
        assert np.array_equal(out, np.tile([5.0, -1.0], (4, 1)))

    def test_relu_hand_case(self):
        layer = Dense(np.array([[1.0], [1.0]]), np.array([-1.0]), activation="relu")
        out = layer.forward(np.array([[0.2, 0.3]]))
        assert np.array_equal(out, [[0.0]])

    def test_width_mismatch(self, tmp_path):
        with pytest.raises(SchemaError, match=r"head.hidden.weight has shape \[8, 4\]"):
            load_model(model_file_with(tmp_path, "head.hidden.weight", (8, 4)))


class TestDropout:
    def test_rate_zero_identity(self):
        x = RngState(0).uniform(-1, 1, (5, 4))
        out = Dropout(0.0).forward(x, training=True, rng=RngState(1))
        assert np.array_equal(out, x)

    def test_inference_identity(self):
        x = RngState(0).uniform(-1, 1, (5, 4))
        out = Dropout(0.9).forward(x, training=False)
        assert np.array_equal(out, x)

    def test_statistics_of_mask(self):
        x = np.ones((100, 100))
        out = Dropout(0.5).forward(x, training=True, rng=RngState(99))
        zero_frac = (out == 0).mean()
        assert abs(zero_frac - 0.5) < 0.02
        assert abs(out.mean() - 1.0) < 0.05

    def test_same_seed_bit_identical(self):
        x = RngState(2).uniform(-1, 1, (20, 7))
        a = Dropout(0.3).forward(x, training=True, rng=RngState(42))
        b = Dropout(0.3).forward(x, training=True, rng=RngState(42))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("rate", [0.2, 0.5])
    def test_batch_masks_match_sequential_draws(self, rate):
        x = np.ones((5, 7))
        batched = Dropout(rate).forward(x, training=True, rng=RngState(31))
        stream = RngState(31)
        rows = [Dropout(rate).forward(x[i:i + 1], training=True, rng=stream)
                for i in range(x.shape[0])]
        assert np.array_equal(batched, np.concatenate(rows))

    def test_bad_rate(self):
        for rate in (1.0, -0.1):
            with pytest.raises(ParameterError, match="dropout_rate must be in"):
                NetworkConfig(window=4, features=2, dropout_rate=rate).validate()


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        layer = LayerNorm.init(4)
        out = layer.forward(np.full((2, 4), 3.7))
        assert np.allclose(out, 0.0, atol=1e-9)

    def test_two_point_row_hand_case(self):
        layer = LayerNorm.init(2)
        out = layer.forward(np.array([[-1.0, 1.0]]))
        expected = 1.0 / math.sqrt(1.0 + 1e-5)
        assert np.allclose(out, [[-expected, expected]], atol=1e-15)

    def test_gain_zero_shift_constant(self):
        layer = LayerNorm(np.zeros(3), np.full(3, 2.5))
        out = layer.forward(RngState(1).uniform(-4, 4, (5, 3)))
        assert np.array_equal(out, np.full((5, 3), 2.5))

    def test_matches_numpy_variance_bit_for_bit(self):
        rng = RngState(5)
        layer = LayerNorm.init(32)
        layer.gain += rng.uniform(-0.3, 0.3, 32)
        layer.shift += rng.uniform(-0.3, 0.3, 32)
        x = rng.uniform(-3, 3, (32, 8, 32))
        xhat = (x - x.mean(axis=-1, keepdims=True)) * (
            1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + LAYERNORM_EPSILON))
        assert np.array_equal(layer.forward(x), layer.gain * xhat + layer.shift)


class TestBackwardContracts:
    def test_backward_without_forward_raises(self):
        for layer in (Conv1d.init(2, 2, 3, RngState(0)),
                      Gru.init(2, 2, RngState(0)),
                      Attention.init(2, 2, RngState(0)),
                      Dense.init(2, 2, RngState(0)),
                      LayerNorm.init(2),
                      Dropout(0.5),
                      Relu()):
            with pytest.raises(StateError):
                layer.backward(np.zeros((2, 2)))

    def test_second_backward_raises(self):
        layer = Dense.init(2, 2, RngState(0))
        layer.forward(np.ones((1, 2)))
        layer.backward(np.ones((1, 2)))
        with pytest.raises(StateError):
            layer.backward(np.ones((1, 2)))

    def test_dense_identity_passes_upstream_through(self):
        layer = Dense(np.eye(3), np.zeros(3))
        layer.forward(np.array([[0.1, 0.2, 0.3]]))
        upstream = np.array([[1.0, -2.0, 0.5]])
        assert np.array_equal(layer.backward(upstream), upstream)

    def test_zero_upstream_zero_gradients(self):
        rng = RngState(8)
        layer = Gru.init(3, 4, rng)
        x = rng.uniform(-1, 1, (1, 5, 3))
        layer.forward(x)
        dx = layer.backward(np.zeros((1, 5, 4)))
        assert np.array_equal(dx, np.zeros_like(x))
        for g in layer.grads.values():
            assert np.array_equal(g, np.zeros_like(g))


class TestGradientChecks:
    """Analytic vs central finite differences, the master property."""

    def test_conv1d(self):
        rng = RngState(100)
        for case in range(20):
            t_len = 1 + case % 5
            in_ch = 1 + case % 3
            out_ch = 1 + (case + 1) % 3
            k = (1, 3, 5)[case % 3]
            layer = Conv1d.init(in_ch, out_ch, k, rng)
            x = rng.uniform(-1, 1, (1, t_len, in_ch))
            arrays = {"x": x, **layer.params()}

            def backward_fn(up, layer=layer, x=x):
                dx = layer.backward(up)
                return {"x": dx, **layer.grads}

            check_gradients(lambda layer=layer, x=x: layer.forward(x),
                            backward_fn, arrays, seed=case)

    def test_gru_including_h0(self):
        # h0 is the fixed zero state, so x and the parameters are the inputs
        rng = RngState(200)
        for case in range(20):
            t_len = 1 + case % 5
            in_dim = 1 + case % 3
            hidden = 1 + (case + 1) % 4
            layer = Gru.init(in_dim, hidden, rng)
            x = rng.uniform(-1, 1, (1, t_len, in_dim))
            arrays = {"x": x, **layer.params()}

            def backward_fn(up, layer=layer):
                dx = layer.backward(up)
                return {"x": dx, **layer.grads}

            check_gradients(lambda layer=layer, x=x: layer.forward(x),
                            backward_fn, arrays, seed=case)

    def test_attention(self):
        rng = RngState(300)
        for case in range(20):
            t_len = 1 + case % 5
            d = 1 + case % 4
            d_attn = 1 + (case + 2) % 3
            layer = Attention.init(d, d_attn, rng)
            x = rng.uniform(-1, 1, (1, t_len, d))
            arrays = {"x": x, **layer.params()}

            def backward_fn(up, layer=layer):
                dx = layer.backward(up)
                return {"x": dx, **layer.grads}

            check_gradients(lambda layer=layer, x=x: layer.forward(x),
                            backward_fn, arrays, seed=case)

    @pytest.mark.parametrize("activation", ["identity", "relu", "sigmoid"])
    def test_dense(self, activation):
        rng = RngState(400)
        for case in range(20):
            n = 1 + case % 4
            in_dim = 1 + case % 3
            out_dim = 1 + (case + 1) % 3
            layer = Dense.init(in_dim, out_dim, rng, activation=activation)
            # keep relu pre-activations away from the kink
            x = rng.uniform(0.1, 1.0, (n, in_dim))
            layer.bias += 0.05
            arrays = {"x": x, **layer.params()}

            def backward_fn(up, layer=layer):
                dx = layer.backward(up)
                return {"x": dx, **layer.grads}

            check_gradients(lambda layer=layer, x=x: layer.forward(x),
                            backward_fn, arrays, seed=case)

    def test_layernorm(self):
        rng = RngState(500)
        for case in range(20):
            n = 1 + case % 4
            d = 2 + case % 4
            layer = LayerNorm.init(d)
            layer.gain += rng.uniform(-0.3, 0.3, d)
            layer.shift += rng.uniform(-0.3, 0.3, d)
            x = rng.uniform(-1, 1, (n, d))
            arrays = {"x": x, **layer.params()}

            def backward_fn(up, layer=layer):
                dx = layer.backward(up)
                return {"x": dx, **layer.grads}

            check_gradients(lambda layer=layer, x=x: layer.forward(x),
                            backward_fn, arrays, seed=case)

    def test_dropout_with_replayed_mask(self):
        rng = RngState(600)
        for case in range(20):
            layer = Dropout(0.4)
            x = rng.uniform(0.5, 1.5, (3, 4))
            arrays = {"x": x}

            def forward_fn(layer=layer, x=x, case=case):
                return layer.forward(x, training=True, rng=RngState(1000 + case))

            def backward_fn(up, layer=layer):
                return {"x": layer.backward(up)}

            check_gradients(forward_fn, backward_fn, arrays, seed=case)

    def test_relu_layer(self):
        rng = RngState(700)
        for case in range(20):
            layer = Relu()
            x = rng.uniform(0.1, 1.0, (4, 3)) * np.sign(rng.uniform(-1, 1, (4, 3)))
            arrays = {"x": x}

            def backward_fn(up, layer=layer):
                return {"x": layer.backward(up)}

            check_gradients(lambda layer=layer, x=x: layer.forward(x),
                            backward_fn, arrays, seed=case)

    @pytest.mark.parametrize("case", range(5))
    def test_conv1d_batch(self, case):
        rng = RngState(1100 + case)
        in_ch = 1 + case % 3
        layer = Conv1d.init(in_ch, 1 + (case + 1) % 3, (1, 3, 5)[case % 3], rng)
        x = rng.uniform(-1, 1, (BATCH, 1 + case % 5, in_ch))
        arrays = {"x": x, **layer.params()}

        def backward_fn(up):
            return {"x": layer.backward(up), **layer.grads}

        check_gradients(lambda: layer.forward(x), backward_fn, arrays, seed=case)

    @pytest.mark.parametrize("case", range(5))
    def test_gru_batch_including_h0(self, case):
        rng = RngState(1200 + case)
        in_dim, hidden = 1 + case % 3, 1 + (case + 1) % 4
        layer = Gru.init(in_dim, hidden, rng)
        x = rng.uniform(-1, 1, (BATCH, 1 + case % 5, in_dim))
        arrays = {"x": x, **layer.params()}

        def backward_fn(up):
            return {"x": layer.backward(up), **layer.grads}

        check_gradients(lambda: layer.forward(x), backward_fn, arrays, seed=case)

    @pytest.mark.parametrize("case", range(5))
    def test_attention_batch(self, case):
        rng = RngState(1300 + case)
        d = 1 + case % 4
        layer = Attention.init(d, 1 + (case + 2) % 3, rng)
        x = rng.uniform(-1, 1, (BATCH, 1 + case % 5, d))
        arrays = {"x": x, **layer.params()}

        def backward_fn(up):
            return {"x": layer.backward(up), **layer.grads}

        check_gradients(lambda: layer.forward(x), backward_fn, arrays, seed=case)

    @pytest.mark.parametrize("case", range(5))
    def test_layernorm_batch(self, case):
        rng = RngState(1400 + case)
        d = 2 + case % 4
        layer = LayerNorm.init(d)
        layer.gain += rng.uniform(-0.3, 0.3, d)
        layer.shift += rng.uniform(-0.3, 0.3, d)
        x = rng.uniform(-1, 1, (BATCH, 1 + case % 4, d))
        arrays = {"x": x, **layer.params()}

        def backward_fn(up):
            return {"x": layer.backward(up), **layer.grads}

        check_gradients(lambda: layer.forward(x), backward_fn, arrays, seed=case)

    @pytest.mark.parametrize("activation", ["identity", "relu", "sigmoid"])
    def test_dense_batch(self, activation):
        rng = RngState(1500)
        for case in range(5):
            in_dim = 1 + case % 3
            layer = Dense.init(in_dim, 1 + (case + 1) % 3, rng, activation=activation)
            # keep relu pre-activations away from the kink
            x = rng.uniform(0.1, 1.0, (BATCH, 1 + case % 4, in_dim))
            layer.bias += 0.05
            arrays = {"x": x, **layer.params()}

            def backward_fn(up, layer=layer):
                return {"x": layer.backward(up), **layer.grads}

            check_gradients(lambda layer=layer, x=x: layer.forward(x),
                            backward_fn, arrays, seed=case)

    # (T, steps, kernel or d_attn): kernel wider than the window, one step
    # of several, and all but the first step
    LAST_STEPS = [(2, 1, 5), (5, 1, 3), (5, 3, 1), (4, 3, 3), (6, 2, 5)]

    @pytest.mark.parametrize("t_len, steps, k", LAST_STEPS)
    def test_conv1d_last_steps(self, t_len, steps, k):
        rng = RngState(1800 + t_len + steps + k)
        layer = Conv1d.init(2, 3, k, rng)
        x = rng.uniform(-1, 1, (BATCH, t_len, 2))
        arrays = {"x": x, **layer.params()}

        def backward_fn(up):
            dx = layer.backward(up)
            assert dx.shape == x.shape
            return {"x": dx, **layer.grads}

        check_gradients(lambda: layer.forward(x, steps), backward_fn, arrays, seed=steps)

    @pytest.mark.parametrize("t_len, steps, d_attn", LAST_STEPS)
    def test_attention_last_steps(self, t_len, steps, d_attn):
        rng = RngState(1900 + t_len + steps + d_attn)
        layer = Attention.init(3, d_attn, rng)
        x = rng.uniform(-1, 1, (BATCH, t_len, 3))
        arrays = {"x": x, **layer.params()}

        def backward_fn(up):
            dx = layer.backward(up)
            assert dx.shape == x.shape
            return {"x": dx, **layer.grads}

        check_gradients(lambda: layer.forward(x, steps), backward_fn, arrays, seed=steps)

    def test_fd_oracle_catches_wrong_gradient(self):
        # sanity-check the oracle itself: a corrupted gradient must fail
        layer = Dense.init(3, 2, RngState(1))
        x = RngState(2).uniform(0.2, 1.0, (2, 3))
        arrays = {"x": x, **layer.params()}

        def backward_fn(up, layer=layer):
            dx = layer.backward(up)
            grads = dict(layer.grads)
            grads["weight"] = grads["weight"] * 1.01
            return {"x": dx, **grads}

        with pytest.raises(AssertionError):
            check_gradients(lambda: layer.forward(x), backward_fn, arrays)


def _layer_and_input(kind: str, rng: RngState):
    """A layer of ``kind`` and a (BATCH, 5, width) input for it."""
    if kind == "conv1d":
        layer, width = Conv1d.init(3, 4, 3, rng), 3
    elif kind == "gru":
        layer, width = Gru.init(3, 4, rng), 3
    elif kind == "attention":
        layer, width = Attention.init(4, 3, rng), 4
    elif kind == "layernorm":
        layer, width = LayerNorm.init(4), 4
        layer.gain += rng.uniform(-0.3, 0.3, 4)
    else:
        layer, width = Dense.init(4, 3, rng, activation="sigmoid"), 4
    return layer, rng.uniform(-1, 1, (BATCH, 5, width))


@pytest.mark.parametrize("kind", ["conv1d", "gru", "attention", "layernorm", "dense"])
def test_batch_matches_stacked_single_windows(kind):
    """A batch gives each window's batch-of-1 output and input gradient,
    and parameter gradients equal to the sum over its windows."""
    rng = RngState(1600)
    layer, x = _layer_and_input(kind, rng)
    out = layer.forward(x)
    up = rng.uniform(-1, 1, out.shape)
    dx = layer.backward(up)
    grads = dict(layer.grads)
    summed = {key: np.zeros_like(g) for key, g in grads.items()}
    for i in range(BATCH):
        single_out = layer.forward(x[i:i + 1])
        assert single_out.shape == out[i:i + 1].shape
        assert rel_norm_err(out[i:i + 1], single_out) <= 1e-12
        assert rel_norm_err(dx[i:i + 1], layer.backward(up[i:i + 1])) <= 1e-12
        for key, g in layer.grads.items():
            summed[key] += g
    for key, g in grads.items():
        assert rel_norm_err(g, summed[key]) <= 1e-12, key


@pytest.mark.parametrize("kind", ["conv1d", "attention"])
@pytest.mark.parametrize("steps", [1, 2, 4])
def test_last_steps_are_the_tail_of_the_full_sequence(kind, steps):
    """``steps`` < T gives the last rows of the full output; backward, fed
    the same gradient on those rows and zeros elsewhere, agrees too."""
    rng = RngState(2000 + steps)
    layer, x = _layer_and_input(kind, rng)
    t_len = x.shape[1]
    full = layer.forward(x)
    up = np.zeros_like(full)
    up[:, t_len - steps:] = rng.uniform(-1, 1, (BATCH, steps, full.shape[2]))
    full_dx = layer.backward(up)
    full_grads = dict(layer.grads)
    tail = layer.forward(x, steps)
    assert tail.shape == (BATCH, steps, full.shape[2])
    assert rel_norm_err(tail, full[:, t_len - steps:]) <= 1e-12
    assert rel_norm_err(layer.backward(up[:, t_len - steps:]), full_dx) <= 1e-12
    for key, g in layer.grads.items():
        assert rel_norm_err(g, full_grads[key]) <= 1e-12, key
