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
``[4, hidden, hidden + n_in]`` and bias ``[4, hidden]``.  The LSTM runs
feature-major: its states are ``[hidden, B]`` and [h_prev; x_t] is
``[hidden + n_in, B]``, so four plain matmuls off the weight slab make the
``[4, hidden, B]`` pre-activations, and the bias add and every gate
operation run over rows B long (Appleyard, Kocisky & Blunsom,
arXiv:1604.01946).  ``lstm_gates`` and ``lstm_gates_backward`` hold the gate
update, from the pre-activations to c_t and h_t, and its gradient, with the
gates on the third axis from the end.  The LSTM cell feeds them the linear
maps above; the QLSTM cell in ``models`` feeds them ``[4, B, hidden]`` maps
of variational-circuit outputs instead (Chen, Yoo & Fang,
arXiv:2009.01783).  The gate update keeps, for its gradient, the cache
(c_prev, z, tanh c), z the ``[..., 4, *S]`` slab of the four gate values
written over the pre-activations, and ``lstm_gates_backward`` builds the
pre-activation gradient on that slab.  Every step of
``lstm_sequence_forward`` writes into views of one flat workspace, which a
caller may allocate once (``lstm_workspace``) and pass to call after call;
the backward pass reads the gates each step kept there.  ``draw_uniform``
fills weights in place, uniformly in [-1/sqrt(fan_in), +1/sqrt(fan_in)],
from a caller-provided generator, so a fixed seed reproduces training bit
for bit.

Layers run over a minibatch: dense activations and their gradients are
``[B, size]``, LSTM windows ``[B, T, n_features]`` and LSTM predictions
``[B]``.  Every array may carry leading model axes, the same on the
parameters and the data: K models of one shape, parameters ``[K, ...]``
and data ``[K, B, ...]`` (LSTM states ``[K, hidden, B]``), run as one with
batched (``...``-broadcast) matmuls, each model on its own rows.  The
dense and LSTM backward passes write the parameter gradients, summed over
each model's batch, into structures of the parameters' shapes that the
caller passes (``linear_backward``, which the QLSTM calls step after step,
adds into them); the LSTM's weight gradients come from one product per
layer over all steps and the batch.  ``models`` makes both the parameters
and the gradients views of one flat vector each (``[K, P]`` for K
models), and ``optimizer_step`` updates it in place, each model with its
own learning rate and moments, all K with one step count.  One sample is
a batch of one.
"""

from __future__ import annotations

import math
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


# d activation / d z, from the cached pre-activation z and output a
_ACTIVATION_GRADS = {
    "sigmoid": lambda z, a: a * (1.0 - a),
    "tanh": lambda z, a: 1.0 - a**2,
    "relu": lambda z, a: (z > 0.0).astype(float),
}


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


def draw_uniform(rng: np.random.Generator, weights: np.ndarray, bias: np.ndarray) -> None:
    """Fill ``weights`` and then ``bias`` in place, uniformly in
    [-1/sqrt(fan_in), +1/sqrt(fan_in)], the fan-in being the weights' last
    axis: a dense layer's inputs, or an LSTM layer's [h_prev, x_t]."""
    bound = 1.0 / np.sqrt(weights.shape[-1])
    weights[...] = rng.uniform(-bound, bound, weights.shape)
    bias[...] = rng.uniform(-bound, bound, bias.shape)


def dense_forward(layer: DenseLayer, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    z = x @ layer.weights.swapaxes(-1, -2)
    z += layer.bias[..., None, :]
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
    """Backpropagate d_out [..., B, n_out]: writes each layer's weight and
    bias gradients, summed over the batch, into ``grads`` (one layer each,
    whatever they held) and returns the input gradient [..., B, n_in].  An
    identity layer's delta passes through its activation unchanged."""
    delta = np.asarray(d_out, dtype=float)
    for layer, (x, z, a), grad in zip(layers[::-1], caches[::-1], grads[::-1]):
        if layer.activation != "identity":
            delta = delta * _ACTIVATION_GRADS[layer.activation](z, a)
        np.matmul(delta.swapaxes(-1, -2), x, out=grad.weights)
        delta.sum(axis=-2, out=grad.bias)
        delta = delta @ layer.weights
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
    [..., 4, hidden, hidden + n_in] acting on [h_prev; x_t] and bias
    [..., 4, hidden]."""

    weights: np.ndarray
    bias: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.weights.shape[-2]


def lstm_gates(
    z: np.ndarray, c_prev: np.ndarray, out: Optional[tuple] = None
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The gate update from the pre-activations z [..., 4, *S] (f, i, g,
    o), S being the shape of c_prev: [hidden, B] for the LSTM, [B, hidden]
    for the QLSTM.  z is overwritten with the gate values; c, tanh(c) and h
    go into ``out`` = (c, tc, h), arrays of c_prev's shape, fresh ones by
    default.  Returns (h, c, cache); the cache (c_prev, z, tanh(c)), the
    gates kept as the one slab z, feeds lstm_gates_backward.

    sigmoid(x) = (1 + tanh(x / 2)) / 2, so the three sigmoid gates, halved
    in place, share one tanh call with g; halving is exact, so each gate
    has the bits of ``sigmoid`` and ``np.tanh`` applied alone."""
    c, tc, h = out or (np.empty(z.shape[:-3] + z.shape[-2:]) for _ in range(3))
    sigmoids = (z[..., :2, :, :], z[..., 3:, :, :])
    for s in sigmoids:
        s *= 0.5
    np.tanh(z, out=z)
    for s in sigmoids:
        s += 1.0
        s *= 0.5
    f, i, g, o = _gate_rows(z)
    np.multiply(f, c_prev, out=c)
    c += np.multiply(i, g, out=tc)
    np.tanh(c, out=tc)
    np.multiply(o, tc, out=h)
    return h, c, (c_prev, z, tc)


def _gate_rows(z: np.ndarray) -> tuple:
    """The four gates of a slab z [..., 4, *S] as views, for any number of
    leading model axes."""
    return z[..., 0, :, :], z[..., 1, :, :], z[..., 2, :, :], z[..., 3, :, :]


def _plus(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """a + b, where None is no gradient yet: no copy when one side has
    none."""
    return b if a is None else a if b is None else a + b


def lstm_gates_backward(
    cache: tuple, dh: np.ndarray, dc: Optional[np.ndarray], out: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the gate update for upstream dh and dc; returns
    (dz [..., 4, *S], dc_prev), dz written into ``out``, a fresh array by
    default.  A ``dc`` of None is no gradient yet, as at a sequence's last
    step.  dz is built on the gate slab: z (1 - z) for all four gates, 1 -
    g**2 over the g row, then one product per factor: dc on the f, i and g
    rows at once, then c_prev, g, i and dh tanh(c) on one row each."""
    c_prev, z, tc = cache
    f, i, g, o = _gate_rows(z)
    dc = _plus(dc, dh * o * (1.0 - tc**2))
    dz = np.multiply(z, 1.0 - z, out=out)
    df, di, dg, do = _gate_rows(dz)
    np.subtract(1.0, g**2, out=dg)
    dz[..., :3, :, :] *= dc[..., None, :, :]
    df *= c_prev
    di *= g
    dg *= i
    do *= dh
    do *= tc
    return dz, dc * f


def lstm_cell_forward(
    layer: LSTMLayerParams, concat: np.ndarray, c_prev: np.ndarray, out: Optional[tuple] = None
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """One step on concat [..., hidden + n_in, B], the stacked [h_prev;
    x_t], and c_prev [..., hidden, B]; returns (h, c, cache).  ``out`` =
    (z, c, tc, h) holds the arrays the step writes: z [..., 4, hidden, B]
    takes the four gate matrices' products with concat and then the gates,
    and c, tanh(c) and h are [..., hidden, B]; fresh ones by default."""
    z, states = (None, None) if out is None else (out[0], out[1:])
    z = np.matmul(layer.weights, concat[..., None, :, :], out=z)
    z += layer.bias[..., None]
    h, c, gates = lstm_gates(z, c_prev, states)
    return h, c, (concat, gates)


@dataclass
class LSTMParams:
    """Stacked LSTM layers plus a linear readout on the final hidden state."""

    layers: list[LSTMLayerParams]
    readout: DenseLayer


def _lstm_shapes(params: LSTMParams, windows_shape: tuple):
    """The shapes of each layer's workspace arrays for windows of
    ``windows_shape`` [..., B, T, n_features], one row per step: the
    stacked [h_prev; x_t] (one more row, whose h part is h_T), z, c (one
    more row, c_0 first) and tanh(c)."""
    *lead, batch, steps, _ = windows_shape
    hidden = params.layers[0].hidden_size
    for layer in params.layers:
        yield (steps + 1, *lead, layer.weights.shape[-1], batch)
        yield (steps, *lead, 4, hidden, batch)
        yield (steps + 1, *lead, hidden, batch)
        yield (steps, *lead, hidden, batch)


def lstm_workspace(params: LSTMParams, windows_shape: tuple) -> np.ndarray:
    """A flat buffer for every array lstm_sequence_forward writes on
    windows of ``windows_shape`` or of fewer rows B."""
    return np.empty(sum(math.prod(shape) for shape in _lstm_shapes(params, windows_shape)))


def lstm_sequence_forward(
    params: LSTMParams, windows: np.ndarray, workspace: Optional[np.ndarray] = None
) -> tuple[np.ndarray, dict]:
    """Run windows [..., B, T, n_features] through the stack and predict
    from each h_T; returns the predictions [..., B] and the state
    lstm_sequence_backward consumes.

    Every step writes into views carved from the start of ``workspace``
    (from ``lstm_workspace``; a fresh one by default), feature-major: the
    windows go in once as [T, ..., n_features, B], and each step's h is
    the next step's h_prev and the input of the layer above.  The state
    holds each layer's workspace views, every step's [h_prev; x_t], gates,
    c and tanh(c), so it is valid until the workspace is passed to another
    call."""
    windows = np.asarray(windows, dtype=float)
    if windows.ndim < 3:
        raise ConfigurationError(f"windows must be [B, T, features], got {windows.shape}")
    steps = windows.shape[-2]
    if steps < 1:
        raise ConfigurationError("window must contain at least one step")
    if workspace is None:
        workspace = lstm_workspace(params, windows.shape)
    views, start = [], 0
    for shape in _lstm_shapes(params, windows.shape):
        views.append(workspace[start : start + math.prod(shape)].reshape(shape))
        start += views[-1].size
    hidden = params.layers[0].hidden_size
    x = np.moveaxis(windows, (-2, -3), (0, -1))
    for k, layer in enumerate(params.layers):
        concat, z, c, tc = views[4 * k : 4 * k + 4]
        concat[0, ..., :hidden, :] = 0.0
        concat[:-1, ..., hidden:, :] = x
        c[0] = 0.0
        for t in range(steps):
            out = (z[t], c[t + 1], tc[t], concat[t + 1, ..., :hidden, :])
            lstm_cell_forward(layer, concat[t], c[t], out)
        x = concat[1:, ..., :hidden, :]  # h_1 .. h_T, the input of the layer above
    pred = params.readout.weights @ x[-1] + params.readout.bias[..., None]
    layers = [views[k : k + 4] for k in range(0, len(views), 4)]
    return pred[..., 0, :], {"layers": layers, "h": x[-1]}


def _steps_by_batch(a: np.ndarray) -> np.ndarray:
    """A copy of a [T, ..., B] as [..., T B]: each row runs over the steps
    and, within each step, the batch."""
    return a.transpose(*range(1, a.ndim - 1), 0, a.ndim - 1).reshape(a.shape[1:-1] + (-1,))


def lstm_sequence_backward(
    params: LSTMParams, forward_state: dict, d_pred: np.ndarray, grads: LSTMParams
) -> None:
    """Backpropagation through time of d_pred [..., B]: writes the
    gradients, summed over the batch, into ``grads``, which has the shapes
    of ``params``, whatever it held.  It runs layer by layer from the top.
    Each step takes its gate gradient dz and, in one product over the
    gates and hidden units together, the gradient of [h_prev; x_t]: its h
    part flows to the step before, its x part to the same step of the
    layer below.  A layer's weight and bias gradients are then taken once,
    from all T steps' dz and the [h_prev; x_t] rows the forward pass kept,
    in one product over the steps and the batch."""
    d = d_pred[..., None, :]
    np.matmul(d, forward_state["h"].swapaxes(-1, -2), out=grads.readout.weights)
    d.sum(axis=-1, out=grads.readout.bias)
    layers = forward_state["layers"]
    steps = len(layers[0][1])  # a layer's z holds one gate slab per step
    # None is no gradient yet: the readout reads the top layer only at the
    # last step, and the last step has no later one to send any back
    d_above = [None] * (steps - 1) + [params.readout.weights.swapaxes(-1, -2) @ d]
    for layer, (concat, z, c, tc), grad in zip(
        params.layers[::-1], layers[::-1], grads.layers[::-1]
    ):
        *lead, gates_n, hidden, batch = z.shape[1:]
        # W^T [..., hidden + n_in, 4 hidden]: one product over the gates and hidden units
        by_column = layer.weights.reshape(*lead, gates_n * hidden, -1).swapaxes(-1, -2)
        dz = np.empty(z.shape)  # every step's gate gradient
        dh = dc = None
        for t in range(steps - 1, -1, -1):
            dc = lstm_gates_backward((c[t], z[t], tc[t]), _plus(dh, d_above[t]), dc, dz[t])[1]
            dconcat = by_column @ dz[t].reshape(*lead, gates_n * hidden, batch)
            dh, d_above[t] = dconcat[..., :hidden, :], dconcat[..., hidden:, :]
        # dz [..., 4, hidden, (t, b)] against [h_prev; x_t] [..., (t, b), hidden + n_in]
        dz, rows = _steps_by_batch(dz), _steps_by_batch(concat[:-1])
        np.matmul(dz, rows[..., None, :, :].swapaxes(-1, -2), out=grad.weights)
        dz.sum(axis=-1, out=grad.bias)


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
    entry per leading index) its learning rate, held as [..., 1], and its
    moments, and one count of the steps all the models took."""

    kind: str
    learning_rate: np.ndarray
    step: int = 0
    m: Optional[np.ndarray] = None  # adam first moment
    v: Optional[np.ndarray] = None  # adam second moment / rmsprop square average

    def rows(self, keep) -> "OptimizerState":
        """The state of the models that ``keep`` selects along the leading
        axis, for a stack of models that drops the others."""
        m, v = (None if a is None else a[keep] for a in (self.m, self.v))
        return OptimizerState(self.kind, self.learning_rate[keep], self.step, m, v)


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
    state = OptimizerState(kind, rate[..., None])
    if kind == "adam":
        state.m = np.zeros(shape)
        state.v = np.zeros(shape)
    elif kind == "rmsprop":
        state.v = np.zeros(shape)
    return state


def optimizer_step(state: OptimizerState, params: np.ndarray, grads: np.ndarray) -> None:
    """One update of the parameters ``params`` [..., P], in place, which
    advances the state's step count."""
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
    # adam, bias-corrected by Python's float power of the int step count:
    # NumPy's power differs from it in the last bit for about one in twenty
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grads
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * grads**2
    m_hat = state.m / (1.0 - ADAM_BETA1**state.step)
    v_hat = state.v / (1.0 - ADAM_BETA2**state.step)
    params -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
