"""Dense/LSTM forward-backward checks, losses, optimizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from qscale.errors import ConfigurationError
from qscale import nn
from qscale.nn import (
    OPTIMIZER_KINDS,
    DenseLayer,
    LSTMLayerParams,
    LSTMParams,
    ffnn_backward,
    ffnn_forward,
    init_optimizer,
    loss_grad,
    loss_value,
    lstm_cell_forward,
    lstm_sequence_backward,
    lstm_sequence_forward,
    optimizer_step,
    rmse,
)


def flatten(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def unflatten_like(vector, arrays):
    """``vector`` cut into arrays of the shapes of ``arrays``, in order."""
    assert vector.size == sum(a.size for a in arrays)
    bounds = np.cumsum([0] + [a.size for a in arrays])
    return [vector[lo:hi].reshape(a.shape) for lo, hi, a in zip(bounds, bounds[1:], arrays)]


def dense_layer(rng, n_in, n_out, activation="identity"):
    bound = 1.0 / np.sqrt(n_in)
    weights = rng.uniform(-bound, bound, (n_out, n_in))
    return DenseLayer(weights, rng.uniform(-bound, bound, n_out), activation)


def lstm_stack(rng, n_features, hidden, n_layers):
    """Layers drawn as the LSTM model draws them: each layer's four gate
    matrices in one draw, then its four biases; then the readout."""
    layers = []
    for k in range(n_layers):
        width = hidden + (n_features if k == 0 else hidden)
        bound = 1.0 / np.sqrt(width)
        weights = rng.uniform(-bound, bound, (4, hidden, width))
        layers.append(LSTMLayerParams(weights, rng.uniform(-bound, bound, (4, hidden))))
    return LSTMParams(layers, dense_layer(rng, hidden, 1))


def lstm_arrays(params):
    """Every array of an LSTM stack: each layer's slabs, then the readout."""
    return [a for layer in params.layers for a in (layer.weights, layer.bias)] + [
        params.readout.weights,
        params.readout.bias,
    ]


def lstm_from_arrays(arrays):
    """The stack whose ``lstm_arrays`` are ``arrays``."""
    layers = [LSTMLayerParams(w, b) for w, b in zip(arrays[:-2:2], arrays[1:-2:2])]
    return LSTMParams(layers, DenseLayer(arrays[-2], arrays[-1]))


def zero_layers(layers):
    """Zero gradient layers of the shapes of ``layers``."""
    return [DenseLayer(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in layers]


def ffnn_grads(layers, caches, d_out):
    """ffnn_backward's parameter gradients, flattened layer by layer."""
    grads = zero_layers(layers)
    ffnn_backward(layers, caches, d_out, grads)
    return flatten([a for g in grads for a in (g.weights, g.bias)])


def lstm_grads(params, state, d_pred):
    """lstm_sequence_backward's gradients, flattened as ``lstm_arrays``."""
    grads = lstm_from_arrays([np.zeros_like(a) for a in lstm_arrays(params)])
    lstm_sequence_backward(params, state, d_pred, grads)
    return flatten(lstm_arrays(grads))


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

    return f, flatten(arrays)


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
            flat_grad = ffnn_grads(layers, caches, d_out[None])
            f, vec = ffnn_flat_loss(layers, x, target, kind)
            fd = oracle.central_difference(f, vec)
            assert np.max(np.abs(flat_grad - fd)) < 1e-4 * (1 + np.max(np.abs(fd)))

    def test_input_gradient(self):
        rng = np.random.default_rng(2)
        layers = random_ffnn(rng, [3, 4, 1])
        x = rng.uniform(-1, 1, 3)
        out, caches = ffnn_forward(layers, x[None])
        dx = ffnn_backward(layers, caches, np.array([[1.0]]), zero_layers(layers))
        fd = oracle.central_difference(
            lambda probe: float(ffnn_forward(layers, probe[None])[0][0, 0]), x
        )
        np.testing.assert_allclose(dx[0], fd, atol=1e-7)


class TestLSTMCell:
    """Cells run feature-major: concat [h_prev; x_t] is [hidden + n_in, B]
    and the states [hidden, B]."""

    def test_zero_params_with_cell_state(self):
        layer = nn.LSTMLayerParams(np.zeros((4, 1, 2)), np.zeros((4, 1)))
        h, c, _ = lstm_cell_forward(layer, np.zeros((2, 1)), np.array([[2.0]]))
        assert c[0, 0] == pytest.approx(1.0)
        assert h[0, 0] == pytest.approx(0.5 * np.tanh(1.0))  # 0.380797...

    def test_zero_everything(self):
        layer = nn.LSTMLayerParams(np.zeros((4, 2, 3)), np.zeros((4, 2)))
        h, c, _ = lstm_cell_forward(layer, np.zeros((3, 1)), np.zeros((2, 1)))
        assert h.shape == c.shape == (2, 1)
        np.testing.assert_allclose(h, 0.0)
        np.testing.assert_allclose(c, 0.0)

    def test_writes_into_out(self):
        """A cell given out = (z, c, tc, h) writes there, the gates into z,
        and equals a cell on fresh arrays bit for bit."""
        rng = np.random.default_rng(7)
        params = lstm_stack(rng, 2, 3, 1)
        concat, c_prev = rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, (3, 4))
        h, c, (_, gates) = lstm_cell_forward(params.layers[0], concat, c_prev)
        out = (np.empty((4, 3, 4)), np.empty((3, 4)), np.empty((3, 4)), np.empty((3, 4)))
        h_out, c_out, (_, gates_out) = lstm_cell_forward(params.layers[0], concat, c_prev, out)
        assert h_out is out[3] and c_out is out[1] and gates_out[2] is out[2]
        np.testing.assert_array_equal(h_out, h)
        np.testing.assert_array_equal(c_out, c)
        np.testing.assert_array_equal(out[0], gates[1])

    def test_stack_shapes(self):
        rng = np.random.default_rng(3)
        params = lstm_stack(rng, 1, 15, 2)
        assert params.layers[0].weights[0].shape == (15, 16)
        assert params.layers[1].weights[0].shape == (15, 30)
        assert params.readout.weights.shape == (1, 15)


class TestLSTMGates:
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["one-model", "model-axis"])
    @pytest.mark.parametrize("layout", ["lstm", "qlstm"])
    def test_fused_nonlinearity_is_bit_identical(self, lead, layout):
        """The sigmoid gates, halved to share one tanh with g, give the
        bits of the per-gate sigmoid and tanh formula, in the LSTM's
        [..., 4, hidden, B] layout and the QLSTM's [..., 4, B, hidden]."""
        rng = np.random.default_rng(71)
        shape = (5, 11) if layout == "lstm" else (11, 5)
        z = rng.normal(0.0, 4.0, lead + (4,) + shape)
        c_prev = rng.normal(0.0, 2.0, lead + shape)
        want_f, want_i, want_o = (nn.sigmoid(z[..., k, :, :]) for k in (0, 1, 3))
        want_g = np.tanh(z[..., 2, :, :])
        want_c = want_f * c_prev + want_i * want_g
        want_h = want_o * np.tanh(want_c)
        h, c, (_, gates, _) = nn.lstm_gates(z.copy(), c_prev)
        f, i, g, o = np.moveaxis(gates, -3, 0)
        for got, want in zip((f, i, g, o, c, h), (want_f, want_i, want_g, want_o, want_c, want_h)):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


    @pytest.mark.parametrize("lead", [(), (3,)], ids=["one-model", "model-axis"])
    @pytest.mark.parametrize("layout", ["lstm", "qlstm"])
    def test_backward_matches_central_differences(self, lead, layout):
        """lstm_gates_backward, built on the gate slab the forward pass
        keeps, against central differences of sum(wh h + wc c) in every
        pre-activation and every entry of c_prev."""
        rng = np.random.default_rng(73)
        shape = (3, 4) if layout == "lstm" else (4, 3)
        z = rng.normal(0.0, 1.5, lead + (4,) + shape)
        c_prev = rng.normal(0.0, 1.0, lead + shape)
        wh, wc = rng.normal(size=c_prev.shape), rng.normal(size=c_prev.shape)

        def objective(z_flat, c_flat):
            # lstm_gates overwrites its pre-activations with the gates
            h, c, _ = nn.lstm_gates(z_flat.reshape(z.shape).copy(), c_flat.reshape(c_prev.shape))
            return float(np.sum(wh * h) + np.sum(wc * c))

        _, _, cache = nn.lstm_gates(z.copy(), c_prev)
        dz, dc_prev = nn.lstm_gates_backward(cache, wh, wc)
        assert dz.shape == z.shape and dc_prev.shape == c_prev.shape
        fd_z = oracle.central_difference(lambda v: objective(v, c_prev.ravel()), z.ravel())
        fd_c = oracle.central_difference(lambda v: objective(z.ravel(), v), c_prev.ravel())
        np.testing.assert_allclose(dz.ravel(), fd_z, rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(dc_prev.ravel(), fd_c, rtol=0.0, atol=1e-8)


class TestLSTMSequence:
    def test_single_step_equals_cell_plus_readout(self):
        rng = np.random.default_rng(4)
        params = lstm_stack(rng, 2, 3, 1)
        window = rng.uniform(-1, 1, (1, 2))
        pred, _ = lstm_sequence_forward(params, window[None])
        concat = np.concatenate([np.zeros(3), window[0]])[:, None]
        h, _, _ = lstm_cell_forward(params.layers[0], concat, np.zeros((3, 1)))
        want = (params.readout.weights @ h[:, 0] + params.readout.bias)[0]
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
            flat = lstm_grads(params, state, d_pred)
            arrays = lstm_arrays(params)

            def f(vec):
                probe = lstm_from_arrays(unflatten_like(vec, arrays))
                p, _ = lstm_sequence_forward(probe, window[None])
                return loss_value(kind, p, np.array([target]))

            fd = oracle.central_difference(f, flatten(arrays))
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
            flat = ffnn_grads(layers, caches, d_preds[:, None])

            singles = [ffnn_forward(layers, row[None]) for row in x]
            single_preds = np.array([o[0, 0] for o, _ in singles])
            per_sample = sum(
                ffnn_grads(layers, c, np.array([[d]]))
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
                flat = lstm_grads(params, state, d_preds)

                singles = [lstm_sequence_forward(params, w[None]) for w in windows]
                single_preds = np.array([p[0] for p, _ in singles])
                per_sample = sum(
                    lstm_grads(params, st, np.array([d]))
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
        p = np.array([1.0])
        optimizer_step(state, p, np.array([0.5]))
        np.testing.assert_allclose(p, [0.95])

    def test_adam_first_step(self):
        state = init_optimizer("adam", 0.01, 1)
        p = np.array([1.0])
        optimizer_step(state, p, np.array([1.0]))
        # bias correction makes the first step ~ lr regardless of gradient scale
        assert abs(p[0] - 0.99) < 1e-9

    def test_zero_gradient_keeps_params(self):
        for kind in ("sgd", "adam", "rmsprop"):
            state = init_optimizer(kind, 0.05, 3)
            p = np.array([1.0, -2.0, 0.5])
            optimizer_step(state, p, np.zeros(3))
            np.testing.assert_allclose(p, [1.0, -2.0, 0.5])

    @pytest.mark.parametrize("kind", ["sgd", "adam", "rmsprop"])
    def test_descends_quadratic(self, kind):
        state = init_optimizer(kind, 0.05, 2)
        p = np.array([1.5, -2.0])
        for _ in range(200):
            optimizer_step(state, p, 2.0 * p)  # grad of |p|^2
        assert np.linalg.norm(p) < 0.2

    @pytest.mark.parametrize("kind", ["sgd", "adam", "rmsprop"])
    def test_deterministic(self, kind):
        def run():
            state = init_optimizer(kind, 0.01, 4)
            p = np.linspace(-1, 1, 4)
            for step in range(50):
                optimizer_step(state, p, np.sin(p + step))
            return p

        np.testing.assert_array_equal(run(), run())

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(OPTIMIZER_KINDS),
        learning_rate=st.floats(1e-4, 1.0),
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 6),
        zero_steps=st.sets(st.integers(0, 11)),
    )
    def test_in_place_matches_out_of_place(self, kind, learning_rate, seed, size, zero_steps):
        """Twelve in-place updates, some with zero gradients, leave the
        parameters, the step count and the moments bit-equal to the
        out-of-place update that returned a new vector."""
        rng = np.random.default_rng(seed)
        state = init_optimizer(kind, learning_rate, size)
        reference = init_optimizer(kind, learning_rate, size)
        params = rng.normal(size=size)
        want = params.copy()
        for step in range(12):
            grads = np.zeros(size) if step in zero_steps else rng.normal(scale=2.0, size=size)
            optimizer_step(state, params, grads)
            want = oracle.optimizer_step(reference, want, grads)
            assert np.array_equal(params, want)
            assert state.step == reference.step
            for moment in ("m", "v"):
                got, expected = getattr(state, moment), getattr(reference, moment)
                assert (got is None and expected is None) or np.array_equal(got, expected)

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    def test_stacked_rows_match_lone_states(self, kind):
        """A state of three models stepped twelve times on random gradients
        leaves each row bit-equal to a one-model state stepped alone; the
        rows it keeps carry on its step count, and step on as the lone
        states do."""
        rng = np.random.default_rng(17)
        rates = [0.003, 0.05, 0.4]
        stacked = init_optimizer(kind, rates, (3, 5))
        alone = [init_optimizer(kind, rate, 5) for rate in rates]
        params = rng.normal(size=(3, 5))
        want = params.copy()

        def step(state, rows, lone):
            grads = rng.normal(scale=2.0, size=params[rows].shape)
            optimizer_step(state, params[rows], grads)
            for k, grad in zip(lone, grads):
                optimizer_step(alone[k], want[k], grad)

        for _ in range(12):
            step(stacked, slice(None), (0, 1, 2))
        np.testing.assert_array_equal(params, want)
        assert stacked.step == 12 and all(state.step == 12 for state in alone)
        kept = stacked.rows(np.array([True, False, True]))
        assert kept.step == 12
        np.testing.assert_array_equal(kept.learning_rate, [[0.003], [0.4]])
        step(kept, slice(0, None, 2), (0, 2))
        np.testing.assert_array_equal(params, want)
        assert kept.step == 13 and alone[0].step == 13

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            init_optimizer("adagrad", 0.1, 1)

    def test_bad_learning_rate(self):
        with pytest.raises(ConfigurationError):
            init_optimizer("sgd", 0.0, 1)
