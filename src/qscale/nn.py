"""From-scratch neural building blocks: dense layers, LSTM, losses, optimizers.

Everything operates on plain float64 numpy arrays and returns exact
analytic gradients.  The LSTM follows the classic gate equations

    f_t = sigmoid(W_f . [h_prev, x_t] + b_f)
    i_t = sigmoid(W_i . [h_prev, x_t] + b_i)
    g_t = tanh(W_c . [h_prev, x_t] + b_c)
    c_t = f_t * c_prev + i_t * g_t
    o_t = sigmoid(W_o . [h_prev, x_t] + b_o)
    h_t = o_t * tanh(c_t)

with the hidden state concatenated before the input.  A layer keeps its
four gates as two slabs in gate order f, i, c, o: weights
``[4, hidden, hidden + n_in]`` and bias ``[4, hidden]``, so one batched
matmul makes the ``[4, B, hidden]`` pre-activation slab.  ``lstm_gates``
and ``lstm_gates_backward`` hold the gate update, from that slab to c_t and
h_t, and its gradient.  The LSTM cell feeds them the linear maps above; the
QLSTM cell in ``models`` feeds them maps of variational-circuit outputs
instead (Chen, Yoo & Fang, arXiv:2009.01783).  ``draw_uniform`` fills
weights in place, uniformly in [-1/sqrt(fan_in), +1/sqrt(fan_in)], from a
caller-provided generator, so a fixed seed reproduces training bit for bit.

Layers run over a minibatch: activations, states and their gradients are
``[B, size]`` and LSTM windows ``[B, T, n_features]``.  Every array may
carry leading model axes, the same on the parameters and the data: K
models of one shape, parameters ``[K, ...]`` and data ``[K, B, ...]``, run
as one with batched (``...``-broadcast) matmuls, each model on its own
rows.  The backward passes add the parameter gradients, summed over each
model's batch, into structures of the parameters' shapes that the caller
passes; ``models`` makes both the parameters and the gradients views of
one flat vector each (``[K, P]`` for K models), and ``optimizer_step``
updates it in place, each model with its own learning rate and step
count.  One sample is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError

ACTIVATIONS = ("sigmoid", "tanh", "relu", "identity")
LOSS_KINDS = ("l1", "mse")
OPTIMIZER_KINDS = ("sgd", "adam", "rmsprop")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
RMSPROP_ALPHA = 0.99
RMSPROP_EPS = 1e-8


def sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form avoids overflow for large negative inputs
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "sigmoid":
        return sigmoid(z)
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "identity":
        return z
    raise ConfigurationError(f"unknown activation {name!r}")


def _activation_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """d activation / d z, from the cached pre-activation z and output a."""
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "tanh":
        return 1.0 - a**2
    if name == "relu":
        return (z > 0.0).astype(float)
    if name == "identity":
        return np.ones_like(z)
    raise ConfigurationError(f"unknown activation {name!r}")


# ---------------------------------------------------------------------------
# dense feed-forward


@dataclass
class DenseLayer:
    weights: np.ndarray  # [..., n_out, n_in]
    bias: np.ndarray  # [..., n_out]
    activation: str = "identity"

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        if self.weights.ndim < 2 or self.bias.shape != self.weights.shape[:-1]:
            raise ConfigurationError("dense layer weight/bias shapes disagree")

    @property
    def n_in(self) -> int:
        return self.weights.shape[-1]

    @property
    def n_out(self) -> int:
        return self.weights.shape[-2]


def draw_uniform(rng: np.random.Generator, weights: np.ndarray, bias: np.ndarray) -> None:
    """Fill ``weights`` and then ``bias`` in place, uniformly in
    [-1/sqrt(fan_in), +1/sqrt(fan_in)], the fan-in being the weights' last
    axis: a dense layer's inputs, or an LSTM layer's [h_prev, x_t]."""
    bound = 1.0 / np.sqrt(weights.shape[-1])
    weights[...] = rng.uniform(-bound, bound, weights.shape)
    bias[...] = rng.uniform(-bound, bound, bias.shape)


def dense_forward(layer: DenseLayer, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    z = x @ layer.weights.swapaxes(-1, -2) + layer.bias[..., None, :]
    a = _activate(layer.activation, z)
    return a, (x, z, a)


def ffnn_forward(layers: Sequence[DenseLayer], x: np.ndarray) -> tuple[np.ndarray, list]:
    """Run a stack of dense layers on x [..., B, n_in]; caches are consumed
    by ffnn_backward."""
    caches = []
    a = np.asarray(x, dtype=float)
    for layer in layers:
        if a.ndim < 2 or a.shape[-1] != layer.n_in:
            raise ConfigurationError(
                f"layer expects input of size {layer.n_in}, got shape {a.shape}"
            )
        a, cache = dense_forward(layer, a)
        caches.append(cache)
    return a, caches


def ffnn_backward(
    layers: Sequence[DenseLayer], caches: list, d_out: np.ndarray, grads: Sequence[DenseLayer]
) -> np.ndarray:
    """Backpropagate d_out [..., B, n_out]: adds each layer's weight and
    bias gradients, summed over the batch, into ``grads`` (one layer each)
    and returns the input gradient [..., B, n_in]."""
    delta = np.asarray(d_out, dtype=float)
    for idx in range(len(layers) - 1, -1, -1):
        x, z, a = caches[idx]
        delta = delta * _activation_grad(layers[idx].activation, z, a)
        delta = linear_backward(layers[idx], x, delta, grads[idx])
    return delta


def linear_backward(
    layer: DenseLayer, x: np.ndarray, delta: np.ndarray, grads: DenseLayer
) -> np.ndarray:
    """The gradient of the pre-activation x W^T + b for upstream delta
    [..., B, n_out]: adds the weight and bias gradients, summed over the
    batch, into ``grads`` and returns the input gradient [..., B, n_in]."""
    grads.weights += delta.swapaxes(-1, -2) @ x
    grads.bias += delta.sum(axis=-2)
    return delta @ layer.weights


# ---------------------------------------------------------------------------
# LSTM


@dataclass
class LSTMLayerParams:
    """One layer's four gates as slabs in gate order f, i, c, o: weights
    [..., 4, hidden, hidden + n_in] acting on [h_prev, x_t] and bias
    [..., 4, hidden]."""

    weights: np.ndarray
    bias: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.weights.shape[-2]


def lstm_gates(z: np.ndarray, c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The gate update from the pre-activations z [..., 4, B, hidden] (f,
    i, g, o); returns (h, c, cache).  The cache is (c_prev, f, i, g, o,
    tanh(c)) and feeds lstm_gates_backward."""
    z_f, z_i, z_g, z_o = z.swapaxes(0, -3)
    f, i, g, o = sigmoid(z_f), sigmoid(z_i), np.tanh(z_g), sigmoid(z_o)
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return o * tc, c, (c_prev, f, i, g, o, tc)


def lstm_gates_backward(
    cache: tuple, dh: np.ndarray, dc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the gate update for upstream dh and dc; returns
    (dz [..., 4, B, hidden], dc_prev)."""
    c_prev, f, i, g, o, tc = cache
    do = dh * tc
    dc = dc + dh * o * (1.0 - tc**2)
    dz = np.stack(
        (
            dc * c_prev * f * (1.0 - f),
            dc * g * i * (1.0 - i),
            dc * i * (1.0 - g**2),
            do * o * (1.0 - o),
        ),
        axis=-3,
    )
    return dz, dc * f


def lstm_cell_forward(
    layer: LSTMLayerParams, x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """One step on x_t [..., B, n_in] and states h_prev, c_prev [..., B,
    hidden]; returns (h, c, cache)."""
    concat = np.concatenate([h_prev, x_t], axis=-1)
    z = concat[..., None, :, :] @ layer.weights.swapaxes(-1, -2) + layer.bias[..., None, :]
    h, c, gates = lstm_gates(z, c_prev)
    return h, c, (concat, gates)


def lstm_cell_backward(
    layer: LSTMLayerParams, cache: tuple, dh: np.ndarray, dc: np.ndarray, grads: LSTMLayerParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adds the param grads, summed over the batch, into ``grads``; returns
    (dx, dh_prev, dc_prev)."""
    concat, gates = cache
    dz, dc_prev = lstm_gates_backward(gates, dh, dc)
    grads.weights += dz.swapaxes(-1, -2) @ concat[..., None, :, :]
    grads.bias += dz.sum(axis=-2)
    # one product over the gates and hidden units together: dz as [..., B, 4 hidden]
    *lead, gates_n, batch, hidden = dz.shape
    by_row = dz.swapaxes(-3, -2).reshape(*lead, batch, gates_n * hidden)
    dconcat = by_row @ layer.weights.reshape(*lead, gates_n * hidden, -1)
    return dconcat[..., hidden:], dconcat[..., :hidden], dc_prev


@dataclass
class LSTMParams:
    """Stacked LSTM layers plus a linear readout on the final hidden state."""

    layers: list[LSTMLayerParams]
    readout: DenseLayer


def lstm_sequence_forward(params: LSTMParams, windows: np.ndarray) -> tuple[np.ndarray, dict]:
    """Run windows [..., B, T, n_features] through the stack and predict
    from each h_T; returns the predictions [..., B] and the state
    lstm_sequence_backward consumes."""
    windows = np.asarray(windows, dtype=float)
    if windows.ndim < 3:
        raise ConfigurationError(f"windows must be [B, T, features], got {windows.shape}")
    steps = windows.shape[-2]
    if steps < 1:
        raise ConfigurationError("window must contain at least one step")
    n_layers = len(params.layers)
    state_shape = windows.shape[:-2] + (params.layers[0].hidden_size,)
    h = [np.zeros(state_shape) for _ in range(n_layers)]
    c = [np.zeros(state_shape) for _ in range(n_layers)]
    caches = [[None] * n_layers for _ in range(steps)]
    for t in range(steps):
        x = windows[..., t, :]
        for k, layer in enumerate(params.layers):
            h[k], c[k], caches[t][k] = lstm_cell_forward(layer, x, h[k], c[k])
            x = h[k]
    pred, read_cache = dense_forward(params.readout, h[-1])
    return pred[..., 0], {"caches": caches, "read": read_cache, "steps": steps}


def lstm_sequence_backward(
    params: LSTMParams, forward_state: dict, d_pred: np.ndarray, grads: LSTMParams
) -> None:
    """Backpropagation through time of d_pred [..., B]: adds the gradients,
    summed over the batch, into ``grads``, which has the shapes of
    ``params``."""
    caches = forward_state["caches"]
    n_layers = len(params.layers)
    dh_last = ffnn_backward(
        [params.readout], [forward_state["read"]], d_pred[..., None], [grads.readout]
    )
    dh = [np.zeros_like(dh_last) for _ in range(n_layers)]
    dc = [np.zeros_like(dh_last) for _ in range(n_layers)]
    dh[-1] = dh_last
    for t in range(forward_state["steps"] - 1, -1, -1):
        dx_from_above = None
        for k in range(n_layers - 1, -1, -1):
            dh_k = dh[k] if dx_from_above is None else dh[k] + dx_from_above
            dx_from_above, dh[k], dc[k] = lstm_cell_backward(
                params.layers[k], caches[t][k], dh_k, dc[k], grads.layers[k]
            )


# ---------------------------------------------------------------------------
# losses


def loss_value(kind: str, preds: np.ndarray, targets: np.ndarray) -> float:
    preds = np.asarray(preds, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if preds.shape != targets.shape:
        raise ConfigurationError("prediction/target shapes disagree")
    if preds.size == 0:
        raise ConfigurationError("loss of an empty batch is undefined")
    if kind == "l1":
        return float(np.mean(np.abs(preds - targets)))
    if kind == "mse":
        return float(np.mean((preds - targets) ** 2))
    raise ConfigurationError(f"unknown loss kind {kind!r}")


def loss_grad(kind: str, preds: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of the mean loss w.r.t. each prediction (L1 subgradient at 0 is 0)."""
    preds = np.asarray(preds, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n = preds.size
    if kind == "l1":
        return np.sign(preds - targets) / n
    if kind == "mse":
        return 2.0 * (preds - targets) / n
    raise ConfigurationError(f"unknown loss kind {kind!r}")


def rmse(preds: np.ndarray, targets: np.ndarray) -> float:
    return float(np.sqrt(loss_value("mse", preds, targets)))


# ---------------------------------------------------------------------------
# optimizers


@dataclass
class OptimizerState:
    """One optimizer kind's state for parameters [..., P]: per model (one
    entry per leading index) its learning rate, held as [..., 1], its step
    count and its moments."""

    kind: str
    learning_rate: np.ndarray
    step: np.ndarray
    m: Optional[np.ndarray] = None  # adam first moment
    v: Optional[np.ndarray] = None  # adam second moment / rmsprop square average

    def rows(self, keep) -> "OptimizerState":
        """The state of the models that ``keep`` selects along the leading
        axis, for a stack of models that drops the others."""
        m, v = (None if a is None else a[keep] for a in (self.m, self.v))
        return OptimizerState(self.kind, self.learning_rate[keep], self.step[keep], m, v)


def init_optimizer(kind: str, learning_rate, shape) -> OptimizerState:
    """A fresh state for parameters of ``shape``: ``n_params`` for one
    model, or ``(K, n_params)`` for K models, whose learning rates
    ``learning_rate`` gives as one number or one per model."""
    if kind not in OPTIMIZER_KINDS:
        raise ConfigurationError(f"unknown optimizer {kind!r}")
    rate = np.asarray(learning_rate, dtype=float)
    if not np.all(rate > 0):
        raise ConfigurationError("learning rate must be positive")
    shape = tuple(np.atleast_1d(shape))
    state = OptimizerState(kind, rate[..., None], np.zeros(shape[:-1], dtype=int))
    if kind == "adam":
        state.m = np.zeros(shape)
        state.v = np.zeros(shape)
    elif kind == "rmsprop":
        state.v = np.zeros(shape)
    return state


def optimizer_step(state: OptimizerState, params: np.ndarray, grads: np.ndarray) -> None:
    """One update of the parameters ``params`` [..., P], in place; every
    model's step count advances with it."""
    if params.shape != grads.shape:
        raise ConfigurationError("param/gradient shapes disagree")
    lr = state.learning_rate
    state.step += 1
    if state.kind == "sgd":
        params -= lr * grads
        return
    if state.kind == "rmsprop":
        state.v *= RMSPROP_ALPHA
        state.v += (1.0 - RMSPROP_ALPHA) * grads**2
        params -= lr * grads / (np.sqrt(state.v) + RMSPROP_EPS)
        return
    # adam, bias-corrected by each model's own step count
    step = state.step[..., None]
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grads
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * grads**2
    m_hat = state.m / (1.0 - _powers(ADAM_BETA1, step))
    v_hat = state.v / (1.0 - _powers(ADAM_BETA2, step))
    params -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _powers(base: float, exponents: np.ndarray) -> np.ndarray:
    """``base ** k`` for each integer k of ``exponents``, by Python's float
    power: NumPy's power differs from it in the last bit for about one k in
    twenty."""
    return np.array([base**k for k in exponents.ravel().tolist()]).reshape(exponents.shape)
