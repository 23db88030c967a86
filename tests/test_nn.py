"""Dense/LSTM forward-backward checks, losses, optimizers, flat parameters."""

import numpy as np
import pytest

import _oracles as oracle
from qscale.errors import ConfigurationError
from qscale import nn
from qscale.nn import (
    DenseLayer,
    LSTMParams,
    dense_layer,
    ffnn_backward,
    ffnn_forward,
    flatten_arrays,
    init_optimizer,
    loss_grad,
    loss_value,
    lstm_cell_forward,
    lstm_param_arrays,
    lstm_sequence_backward,
    lstm_sequence_forward,
    lstm_stack,
    optimizer_step,
    rmse,
    unflatten_like,
)


def random_ffnn(rng, sizes, activations=None):
    layers = []
    for k in range(len(sizes) - 1):
        act = "tanh" if k < len(sizes) - 2 else "identity"
        if activations is not None:
            act = activations[k]
        layers.append(dense_layer(rng, sizes[k], sizes[k + 1], act))
    return layers


def ffnn_flat_loss(layers, x, target, kind):
    """Scalar loss as a function of the flattened parameter vector."""
    arrays = [a for layer in layers for a in (layer.weights, layer.bias)]

    def f(vec):
        pieces = unflatten_like(vec, arrays)
        probe = [
            DenseLayer(pieces[2 * k], pieces[2 * k + 1], layers[k].activation)
            for k in range(len(layers))
        ]
        out, _ = ffnn_forward(probe, x[None])
        return loss_value(kind, out[0], np.array([target]))

    return f, flatten_arrays(arrays)


class TestDenseForward:
    def test_identity_layer(self):
        layer = DenseLayer(np.array([[2.0]]), np.array([1.0]), "identity")
        out, _ = ffnn_forward([layer], np.array([[3.0]]))
        np.testing.assert_allclose(out[0], [7.0])

    def test_zero_weights_sigmoid(self):
        layer = DenseLayer(np.zeros((4, 3)), np.zeros(4), "sigmoid")
        out, _ = ffnn_forward([layer], np.ones((1, 3)))
        np.testing.assert_allclose(out[0], 0.5 * np.ones(4))

    def test_stack_shapes(self):
        rng = np.random.default_rng(0)
        layers = random_ffnn(rng, [4, 30, 15, 5, 1])
        out, caches = ffnn_forward(layers, rng.uniform(-1, 1, (1, 4)))
        assert out[0].shape == (1,)
        assert len(caches) == 4

    def test_input_size_mismatch(self):
        layer = DenseLayer(np.zeros((2, 3)), np.zeros(2), "tanh")
        with pytest.raises(ConfigurationError):
            ffnn_forward([layer], np.zeros((1, 4)))

    def test_relu(self):
        layer = DenseLayer(np.eye(2), np.zeros(2), "relu")
        out, _ = ffnn_forward([layer], np.array([[-1.0, 2.0]]))
        np.testing.assert_allclose(out[0], [0.0, 2.0])


class TestFFNNGradients:
    @pytest.mark.parametrize("kind", ["l1", "mse"])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(1)
        for trial in range(10):
            sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 5)))]
            sizes.append(1)
            layers = random_ffnn(rng, sizes)
            x = rng.uniform(-1, 1, sizes[0])
            target = float(rng.uniform(-1, 1))
            out, caches = ffnn_forward(layers, x[None])
            d_out = loss_grad(kind, out[0], np.array([target]))
            grads, _ = ffnn_backward(layers, caches, d_out[None])
            flat_grad = flatten_arrays([a for g in grads for a in g])
            f, vec = ffnn_flat_loss(layers, x, target, kind)
            fd = oracle.central_difference(f, vec)
            assert np.max(np.abs(flat_grad - fd)) < 1e-4 * (1 + np.max(np.abs(fd)))

    def test_input_gradient(self):
        rng = np.random.default_rng(2)
        layers = random_ffnn(rng, [3, 4, 1])
        x = rng.uniform(-1, 1, 3)
        out, caches = ffnn_forward(layers, x[None])
        _, dx = ffnn_backward(layers, caches, np.array([[1.0]]))
        fd = oracle.central_difference(
            lambda probe: float(ffnn_forward(layers, probe[None])[0][0, 0]), x
        )
        np.testing.assert_allclose(dx[0], fd, atol=1e-7)


class TestLSTMCell:
    def test_zero_params_with_cell_state(self):
        layer = nn.LSTMLayerParams(np.zeros((4, 1, 2)), np.zeros((4, 1)))
        h, c, _ = lstm_cell_forward(
            layer, np.zeros((1, 1)), np.zeros((1, 1)), np.array([[2.0]])
        )
        assert c[0, 0] == pytest.approx(1.0)
        assert h[0, 0] == pytest.approx(0.5 * np.tanh(1.0))  # 0.380797...

    def test_zero_everything(self):
        layer = nn.LSTMLayerParams(np.zeros((4, 2, 3)), np.zeros((4, 2)))
        h, c, _ = lstm_cell_forward(layer, np.zeros((1, 1)), np.zeros((1, 2)), np.zeros((1, 2)))
        np.testing.assert_allclose(h, 0.0)
        np.testing.assert_allclose(c, 0.0)

    def test_init_draws_gate_matrices_then_biases(self):
        """Seeding gives the weights of one draw per gate array: the f, i,
        c and o matrices, then the f, i, c and o biases."""
        layer = nn.lstm_layer(np.random.default_rng(12), 2, 3)
        rng = np.random.default_rng(12)
        bound = 1.0 / np.sqrt(5)
        matrices = [rng.uniform(-bound, bound, (3, 5)) for _ in range(4)]
        biases = [rng.uniform(-bound, bound, 3) for _ in range(4)]
        np.testing.assert_array_equal(layer.weights, np.stack(matrices))
        np.testing.assert_array_equal(layer.bias, np.stack(biases))

    def test_stack_shapes(self):
        rng = np.random.default_rng(3)
        params = lstm_stack(rng, 1, 15, 2)
        assert params.layers[0].weights[0].shape == (15, 16)
        assert params.layers[1].weights[0].shape == (15, 30)
        assert params.readout.weights.shape == (1, 15)


class TestLSTMSequence:
    def test_single_step_equals_cell_plus_readout(self):
        rng = np.random.default_rng(4)
        params = lstm_stack(rng, 2, 3, 1)
        window = rng.uniform(-1, 1, (1, 2))
        pred, _ = lstm_sequence_forward(params, window[None])
        h, _, _ = lstm_cell_forward(
            params.layers[0], window[:1], np.zeros((1, 3)), np.zeros((1, 3))
        )
        want = (params.readout.weights @ h[0] + params.readout.bias)[0]
        assert pred[0] == pytest.approx(want)

    def test_constant_window_zero_params_returns_readout_bias(self):
        layers = [
            nn.LSTMLayerParams(np.zeros((4, 3, 4)), np.zeros((4, 3)))
        ]
        readout = DenseLayer(np.zeros((1, 3)), np.array([0.7]), "identity")
        params = LSTMParams(layers=layers, readout=readout)
        pred, _ = lstm_sequence_forward(params, np.full((1, 4, 1), 2.5))
        assert pred[0] == pytest.approx(0.7)

    def test_empty_window_rejected(self):
        rng = np.random.default_rng(5)
        params = lstm_stack(rng, 1, 2, 1)
        with pytest.raises(ConfigurationError):
            lstm_sequence_forward(params, np.zeros((1, 0, 1)))

    @pytest.mark.parametrize("kind", ["l1", "mse"])
    def test_bptt_matches_finite_differences(self, kind):
        rng = np.random.default_rng(6)
        for trial in range(6):
            hidden = int(rng.integers(1, 9))
            steps = int(rng.integers(1, 6))
            n_layers = int(rng.integers(1, 3))
            features = int(rng.integers(1, 3))
            params = lstm_stack(rng, features, hidden, n_layers)
            window = rng.uniform(-1, 1, (steps, features))
            target = float(rng.uniform(-1, 1))

            pred, state = lstm_sequence_forward(params, window[None])
            d_pred = loss_grad(kind, pred, np.array([target]))
            grads = lstm_sequence_backward(params, state, d_pred)
            flat = flatten_arrays([g for _, g in grads])

            arrays = [a for _, a in lstm_param_arrays(params)]

            def f(vec):
                pieces = unflatten_like(vec, arrays)
                probe_layers = []
                cursor = 0
                for k in range(n_layers):
                    # pieces run w_f, b_f, w_i, b_i, ... per layer
                    probe_layers.append(
                        nn.LSTMLayerParams(
                            np.stack(pieces[cursor : cursor + 8 : 2]),
                            np.stack(pieces[cursor + 1 : cursor + 8 : 2]),
                        )
                    )
                    cursor += 8
                probe = LSTMParams(
                    layers=probe_layers,
                    readout=DenseLayer(pieces[cursor], pieces[cursor + 1], "identity"),
                )
                p, _ = lstm_sequence_forward(probe, window[None])
                return loss_value(kind, p, np.array([target]))

            fd = oracle.central_difference(f, flatten_arrays(arrays))
            assert np.max(np.abs(flat - fd)) < 1e-4 * (1 + np.max(np.abs(fd)))


def assert_close_relative(got, want, rtol=1e-12):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestBatchedEqualsPerSample:
    """One [B, .] pass gives the per-sample loss and the sum of the
    per-sample gradients, each sample run as a batch of one."""

    @pytest.mark.parametrize("batch", [1, 3, 10])
    @pytest.mark.parametrize("kind", ["l1", "mse"])
    def test_ffnn(self, batch, kind):
        rng = np.random.default_rng(batch)
        stacks = [
            random_ffnn(rng, [4, 30, 15, 5, 1]),
            random_ffnn(rng, [3, 6, 2, 1], ["relu", "sigmoid", "identity"]),
        ]
        for layers in stacks:
            x = rng.uniform(-1, 1, (batch, layers[0].n_in))
            y = rng.uniform(-1, 1, batch)
            out, caches = ffnn_forward(layers, x)
            preds = out[:, 0]
            d_preds = loss_grad(kind, preds, y)
            grads, _ = ffnn_backward(layers, caches, d_preds[:, None])
            flat = flatten_arrays([a for g in grads for a in g])

            singles = [ffnn_forward(layers, row[None]) for row in x]
            single_preds = np.array([o[0, 0] for o, _ in singles])
            per_sample = sum(
                flatten_arrays(
                    [a for g in ffnn_backward(layers, c, np.array([[d]]))[0] for a in g]
                )
                for (_, c), d in zip(singles, loss_grad(kind, single_preds, y))
            )
            assert loss_value(kind, preds, y) == pytest.approx(
                loss_value(kind, single_preds, y), rel=1e-14
            )
            assert_close_relative(flat, per_sample)

    @pytest.mark.parametrize("batch", [1, 3, 10])
    @pytest.mark.parametrize("kind", ["l1", "mse"])
    def test_lstm(self, batch, kind):
        rng = np.random.default_rng(10 + batch)
        for n_layers in (1, 2, 3):
            for steps in (1, 3, 5):
                features = int(rng.integers(1, 3))
                params = lstm_stack(rng, features, int(rng.integers(1, 6)), n_layers)
                windows = rng.uniform(-1, 1, (batch, steps, features))
                y = rng.uniform(-1, 1, batch)
                preds, state = lstm_sequence_forward(params, windows)
                d_preds = loss_grad(kind, preds, y)
                flat = flatten_arrays(
                    [g for _, g in lstm_sequence_backward(params, state, d_preds)]
                )

                singles = [lstm_sequence_forward(params, w[None]) for w in windows]
                single_preds = np.array([p[0] for p, _ in singles])
                per_sample = sum(
                    flatten_arrays(
                        [g for _, g in lstm_sequence_backward(params, st, np.array([d]))]
                    )
                    for (_, st), d in zip(singles, loss_grad(kind, single_preds, y))
                )
                assert loss_value(kind, preds, y) == pytest.approx(
                    loss_value(kind, single_preds, y), rel=1e-14
                )
                assert_close_relative(flat, per_sample)


class TestLosses:
    def test_l1(self):
        assert loss_value("l1", np.array([1.0, 3.0]), np.array([2.0, 1.0])) == 1.5

    def test_mse(self):
        assert loss_value("mse", np.array([1.0, 3.0]), np.array([2.0, 1.0])) == 2.5

    def test_rmse_is_sqrt_mse(self):
        rng = np.random.default_rng(7)
        p, t = rng.normal(size=20), rng.normal(size=20)
        assert rmse(p, t) == pytest.approx(np.sqrt(loss_value("mse", p, t)), abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        p, t = rng.normal(size=9), rng.normal(size=9)
        for kind in ("l1", "mse"):
            assert loss_value(kind, p, t) == pytest.approx(loss_value(kind, t, p))

    def test_l1_subgradient_at_zero(self):
        g = loss_grad("l1", np.array([1.0, 2.0]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(g, [0.0, 0.5])

    def test_mse_grad(self):
        g = loss_grad("mse", np.array([2.0]), np.array([1.0]))
        np.testing.assert_allclose(g, [2.0])

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            loss_value("l1", np.array([]), np.array([]))

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            loss_value("huber", np.array([1.0]), np.array([1.0]))


class TestOptimizers:
    def test_sgd_example(self):
        state = init_optimizer("sgd", 0.1, 1)
        out = optimizer_step(state, np.array([1.0]), np.array([0.5]))
        np.testing.assert_allclose(out, [0.95])

    def test_adam_first_step(self):
        state = init_optimizer("adam", 0.01, 1)
        out = optimizer_step(state, np.array([1.0]), np.array([1.0]))
        # bias correction makes the first step ~ lr regardless of gradient scale
        assert abs(out[0] - 0.99) < 1e-9

    def test_zero_gradient_keeps_params(self):
        for kind in ("sgd", "adam", "rmsprop"):
            state = init_optimizer(kind, 0.05, 3)
            p = np.array([1.0, -2.0, 0.5])
            out = optimizer_step(state, p, np.zeros(3))
            np.testing.assert_allclose(out, p)

    @pytest.mark.parametrize("kind", ["sgd", "adam", "rmsprop"])
    def test_descends_quadratic(self, kind):
        state = init_optimizer(kind, 0.05, 2)
        p = np.array([1.5, -2.0])
        for _ in range(200):
            p = optimizer_step(state, p, 2.0 * p)  # grad of |p|^2
        assert np.linalg.norm(p) < 0.2

    @pytest.mark.parametrize("kind", ["sgd", "adam", "rmsprop"])
    def test_deterministic(self, kind):
        def run():
            state = init_optimizer(kind, 0.01, 4)
            p = np.linspace(-1, 1, 4)
            for step in range(50):
                p = optimizer_step(state, p, np.sin(p + step))
            return p

        np.testing.assert_array_equal(run(), run())

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            init_optimizer("adagrad", 0.1, 1)

    def test_bad_learning_rate(self):
        with pytest.raises(ConfigurationError):
            init_optimizer("sgd", 0.0, 1)


class TestCheckpoints:
    def test_flatten_unflatten_round_trip(self):
        rng = np.random.default_rng(10)
        arrays = [rng.normal(size=(3, 2)), rng.normal(size=5)]
        vec = flatten_arrays(arrays)
        back = unflatten_like(vec, arrays)
        for a, b in zip(arrays, back):
            np.testing.assert_array_equal(a, b)

    def test_unflatten_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            unflatten_like(np.zeros(3), [np.zeros((2, 2))])
