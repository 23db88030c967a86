"""The four calibration models behind one train/predict interface.

* ``ffnn``  - feed-forward network on hourly feature vectors.
* ``lstm``  - stacked LSTM over short windows of past hours.
* ``vqr``   - variational quantum regressor: angle-embedded features, a
  strongly entangling ansatz, qubit-0 readout.
* ``qlstm`` - LSTM cell whose six internal transformations run through
  variational circuits, glued by small linear maps.

Every model consumes windows shaped ``[batch, window, n_features]`` (the
feed-forward models use window length 1) and predicts the reference PM2.5
concentration in ug/m3.  Inputs and targets are scaled to [-1, +1] with
range maps fitted on the training partition; training happens in scaled
space and losses are reported in original units through the exact affine
conversion (an L1 loss scales by the target half-span, an MSE loss by its
square).  Quantum parameters train by adjoint differentiation of the
circuits, classical ones by backpropagation, mixed via the chain rule.  A
model's circuits are made once per training step or ``predict`` call, as
``vqc.PhaseCircuits``, phase polynomials (the qlstm's ring-RX circuits), as
``vqc.MatrixCircuits``, quadratic forms in their product states made from
one ansatz matrix per circuit (the linear vqr's, which make the form of Z_0
alone, the one qubit it reads out), or as ``vqc.PlanCircuits``, through the
fused plan (the re-uploading vqr's).  Each backward pass reuses what the
forward pass that made the predictions kept.  Parameter shift stays as the
public, hardware-realistic gradient and as the oracle the adjoint sweep is
tested against; it would cost 2 x n_angles circuit runs per gradient, 104
per vqr row and 80 per call of a qlstm circuit.

Every model takes a minibatch of windows ``[B, T, features]`` in one
forward and one backward pass, one window being a batch of one; the lstm
runs it feature-major inside ``nn``, its states ``[hidden, B]``.
``predict`` runs the same forward pass over blocks of ``PREDICT_ROWS``
windows, so the activations it keeps stay bounded whatever the number of
rows; the lstm and the linear vqr allocate one workspace per ``predict``
and every block, the ragged last one too, writes into views from its
start.  Held-out losses are the ``METRICS`` table, by name.

Each model holds its parameters in one float64 vector, ``flat``; every
array it computes with (dense layers, LSTM gate slabs, the QLSTM's fc_out
slab pair, circuit angles) is a view of it that the kind's ``_bind`` lays
over any vector of that layout, or over a [K, P] matrix of K such vectors,
each structure then with a leading model axis.  ``param_arrays`` cuts
``flat`` into the per-gate and per-map arrays checkpoints store.

Training has one loop, ``train_lockstep``: K models of one layout train as
one stack (``_ModelBase._stacked``) whose parameters are the rows of a
[K, P] matrix, each step one forward and one backward pass over all K
minibatches, their gradients written into views of one [K, P] gradient, and
``nn.optimizer_step`` updating the matrix in place.  Each model keeps its
own seed, scalers, batch order and optimizer state, so it ends as it would
have trained alone; ``train`` and ``fit_model`` are the case K = 1, and
cross-validation and grid search train their folds and points through it.

A kind's option defaults live only in ``_DEFAULT_OPTIONS`` and its default
window only in ``_DEFAULT_CONFIGS``.  Every model is built by one path:
``resolve_options`` merges and type-checks the options, and
``_ModelBase.__init__`` takes them as keywords after the keyword-only
``window`` and ``seed``.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import compress, groupby, islice
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import data, nn, vqc
from .data import RangeScaler, _is_int, apply_scaler, invert_scaler
from .errors import ConfigurationError, DataError, TrainingDivergedError

MODEL_KINDS = ("ffnn", "lstm", "vqr", "qlstm")
# windows per forward pass in predict: a pass keeps every layer's activations
# (and circuit amplitudes) for its rows, so a sensor-year goes in blocks
PREDICT_ROWS = 1024
# every reported loss by name, as a function of (predictions, reference)
METRICS = {
    "l1": partial(nn.loss_value, "l1"),
    "mse": partial(nn.loss_value, "mse"),
    "rmse": nn.rmse,
}


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float
    optimizer: str = "sgd"
    loss: str = "l1"
    batch_size: int = 10
    window: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size", "window", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        rate = self.learning_rate
        if not (isinstance(rate, float) or _is_int(rate)):
            raise ConfigurationError(f"learning rate must be a number, got {rate!r}")
        if self.epochs < 0:
            raise ConfigurationError("epochs must be non-negative")
        if not (math.isfinite(rate) and rate > 0):
            raise ConfigurationError(
                f"learning rate must be positive and finite, got {rate}"
            )
        if self.optimizer not in nn.OPTIMIZER_KINDS:
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        if self.loss not in nn.LOSS_KINDS:
            raise ConfigurationError(f"unknown loss {self.loss!r}")
        if self.batch_size < 1:
            raise ConfigurationError("batch size must be at least 1")
        if self.window < 1:
            raise ConfigurationError("window must be at least 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")


# tuned defaults per model family
_DEFAULT_CONFIGS = {
    "ffnn": TrainConfig(200, 1e-4, "sgd", "l1", 10, 1),
    "vqr": TrainConfig(200, 1e-2, "adam", "mse", 10, 1),
    "lstm": TrainConfig(300, 1e-3, "rmsprop", "l1", 10, 3),
    "qlstm": TrainConfig(400, 1e-2, "adam", "l1", 10, 5),
}

_DEFAULT_OPTIONS = {
    "ffnn": {
        "hidden_sizes": (30, 15, 5),
        "activation": "tanh",
        "features": ("pm25", "temp", "hum", "press"),
    },
    "vqr": {
        "n_qubits": 4,
        "n_layers": 4,
        "architecture": "linear",
        "transform": "arctan",
        "features": ("pm25", "temp", "hum", "press"),
    },
    "lstm": {"hidden_size": 15, "n_layers": 2, "features": ("pm25",)},
    "qlstm": {
        "n_qubits": 5,
        "n_layers": 7,
        "hidden_size": 15,
        "shared_fc_out": True,
        "features": ("pm25",),
    },
}


def default_config(kind: str) -> TrainConfig:
    if kind not in MODEL_KINDS:
        raise ConfigurationError(f"unknown model kind {kind!r}")
    return _DEFAULT_CONFIGS[kind]


def default_options(kind: str) -> dict:
    if kind not in MODEL_KINDS:
        raise ConfigurationError(f"unknown model kind {kind!r}")
    return dict(_DEFAULT_OPTIONS[kind])


# what an option may hold, by the type of its default (of its entries, for a
# tuple default, which takes a list of such entries)
_OPTION_TYPES = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("a positive integer", lambda v: _is_int(v) and v >= 1),
    str: ("a string", lambda v: isinstance(v, str)),
}


def resolve_options(kind: str, options: Optional[dict] = None) -> dict:
    """The kind's options: ``options`` merged over its defaults, a list held
    as a tuple.  An unknown option, or a value that does not fit the type of
    the option's default, is a ``ConfigurationError`` naming it."""
    resolved = default_options(kind)
    unknown = sorted(set(options or {}) - set(resolved))
    if unknown:
        raise ConfigurationError(f"unknown {kind} options {unknown}")
    for name, value in (options or {}).items():
        default = resolved[name]
        listed = isinstance(default, tuple)
        what, fits = _OPTION_TYPES[type(default[0] if listed else default)]
        if listed and isinstance(value, (list, tuple)) and all(map(fits, value)):
            value = tuple(value)
        elif listed or not fits(value):
            shape = f"a list of entries each {what}" if listed else what
            raise ConfigurationError(f"{kind} option {name} must be {shape}, got {value!r}")
        resolved[name] = value
    return resolved


def _settings(kind: str, feature_names: Sequence[str], options: dict, window) -> tuple[dict, int]:
    """A model's options, settled by ``resolve_options`` with its features,
    and its window (None is the kind's default; ffnn and vqr take only 1),
    checked before anything is built."""
    if not feature_names:
        raise ConfigurationError(f"{kind} needs at least one feature")
    options = {**resolve_options(kind, options), "features": tuple(feature_names)}
    window = _DEFAULT_CONFIGS[kind].window if window is None else window
    if not (_is_int(window) and window >= 1):
        raise ConfigurationError(f"window must be a positive integer, got {window!r}")
    if kind in ("ffnn", "vqr") and window != 1:
        raise ConfigurationError(f"{kind} uses single-hour inputs; set window=1")
    return options, window


def _loss_to_original_units(kind: str, scaled_loss: float, halfspan: float) -> float:
    return scaled_loss * (halfspan if kind == "l1" else halfspan**2)


class _ModelBase:
    """Shared construction, scaling, parameter-vector, and prediction plumbing.

    ``__init__`` settles the kind's options and window with ``_settings``,
    allocates the parameter vector ``flat`` (a ``ConfigurationError`` if it
    is too large to allocate), has the subclass's ``_bind``
    put its structures, ``params``, over it, and has ``_init_params`` fill
    them from a generator seeded with ``[seed, seed_tag]``.
    """

    kind: str = ""
    seed_tag: int
    feature_names: tuple[str, ...] = ()
    window: int = 1
    input_scaler: RangeScaler
    target_scaler: RangeScaler
    options: dict
    flat: np.ndarray

    def __init__(
        self,
        feature_names: Sequence[str],
        input_scaler: RangeScaler,
        target_scaler: RangeScaler,
        *,
        window: Optional[int] = None,
        seed: int = 0,
        **options,
    ):
        self.options, self.window = _settings(self.kind, tuple(feature_names), options, window)
        self.feature_names = self.options["features"]
        self.input_scaler = input_scaler
        self.target_scaler = target_scaler
        count = self.param_count()
        try:
            self.flat = np.zeros(count)
        except (ValueError, MemoryError) as err:  # over NumPy's limit, or the memory's
            raise ConfigurationError(
                f"{self.kind} model with {count} parameters is too large to allocate: {err}"
            ) from None
        self.params = self._bind(self.flat)
        self._init_params(np.random.default_rng(np.random.SeedSequence([seed, self.seed_tag])))

    def _bind(self, vector: np.ndarray):
        """The kind's parameter structures as views of ``vector``, a vector
        laid out as ``flat``."""
        raise NotImplementedError

    def _init_params(self, rng: np.random.Generator) -> None:
        """Fill ``params`` with the kind's draws from ``rng``."""
        raise NotImplementedError

    def _loss_and_grad_scaled(self, x_scaled: np.ndarray, loss) -> tuple:
        """One training step's loss and flat gradient.  ``loss`` maps the
        predictions to (loss, d loss / d predictions).  A stack of K models
        (see :meth:`_stacked`) takes their windows model-major, [K * B, T,
        features], and returns the gradient [K, P]."""
        raise NotImplementedError

    def _predict_scaled(self, x_scaled: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- parameters -------------------------------------------------------

    def get_flat(self) -> np.ndarray:
        return self.flat.copy()

    def set_flat(self, vector: np.ndarray) -> None:
        if np.shape(vector) != self.flat.shape:
            raise ConfigurationError(f"expected {self.flat.size} parameters, got {np.shape(vector)}")
        np.copyto(self.flat, vector)

    def param_arrays(self) -> list[tuple[str, np.ndarray]]:
        """(name, view of ``flat``) of every array ``_param_shapes`` names,
        in flat order."""
        names, shapes = zip(*_param_shapes(self.kind, self.options))
        return list(zip(names, _cut(self.flat, shapes)))

    def _grad_buffers(self):
        """A gradient vector and the kind's structures over it, for a
        backward pass to write every entry of: fresh for a model, and for a
        stack its one buffer, as the last step left it, since its trainer
        is done with each step's gradient before the next step."""
        if self._grads is None:
            grad = np.empty_like(self.flat)
            return grad, self._bind(grad)
        return self._grads

    _grads = None

    def _stacked(self, flat: np.ndarray):
        """A copy of this model whose parameters are ``flat`` [K, P], the
        vectors of K models of its layout, one per row: its forward and
        backward passes run all K at once, each model on its own rows.  A
        single row it binds as a plain [P] vector, without the model axis,
        which every NumPy call of a step pays a little for."""
        stack = copy.copy(self)
        stack.flat = flat[0] if len(flat) == 1 else flat
        stack.params = self._bind(stack.flat)
        grad = np.zeros_like(stack.flat)
        stack._grads = grad, self._bind(grad)
        return stack

    def _by_model(self, x_scaled: np.ndarray) -> np.ndarray:
        """Windows [K * B, T, features] of a stack as [K, B, T, features];
        one model's windows [B, T, features] as they are."""
        return x_scaled.reshape(self.flat.shape[:-1] + (-1,) + x_scaled.shape[1:])

    def param_count(self) -> int:
        return count_params(self.kind, self.options)

    def param_breakdown(self) -> dict[str, int]:
        groups: dict[str, int] = {}
        for name, arr in self.param_arrays():
            group = name.split(".", 1)[0]
            groups[group] = groups.get(group, 0) + int(arr.size)
        return groups

    # -- scaling ----------------------------------------------------------

    def scale_windows(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[2] != len(self.feature_names):
            raise ConfigurationError(
                f"expected windows [batch, T, {len(self.feature_names)}], "
                f"got shape {x.shape}"
            )
        if x.shape[1] != self.window:
            raise ConfigurationError(
                f"{self.kind} expects window length {self.window}, got {x.shape[1]}"
            )
        return apply_scaler(self.input_scaler, x)

    def scale_targets(self, y: np.ndarray) -> np.ndarray:
        return apply_scaler(self.target_scaler, np.asarray(y, dtype=float))

    @property
    def target_halfspan(self) -> float:
        return float(self.target_scaler.halfspan[0])

    # -- prediction -------------------------------------------------------

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Calibrated PM2.5 in ug/m3 for raw windows [batch, T, features],
        predicted PREDICT_ROWS windows at a time."""
        x_scaled = self.scale_windows(x)
        predict_block = self._predictor(x_scaled.shape[0])
        preds_scaled = np.empty(x_scaled.shape[0])
        for start in range(0, x_scaled.shape[0], PREDICT_ROWS):
            block = slice(start, start + PREDICT_ROWS)
            preds_scaled[block] = predict_block(x_scaled[block])
        return invert_scaler(self.target_scaler, preds_scaled)

    def _predictor(self, rows: int):
        """What predicts each block of the ``rows`` scaled windows of one
        ``predict``; the quantum kinds set up their circuits here, and the
        lstm and the linear vqr their workspaces, once for all blocks, and
        pass them to their ``_predict_scaled``, which builds none of its
        own."""
        return self._predict_scaled


# ---------------------------------------------------------------------------
# feed-forward


class FFNNModel(_ModelBase):
    kind = "ffnn"
    seed_tag = 10

    def _bind(self, vector):
        arrays = _cut(vector, [shape for _, shape in _param_shapes(self.kind, self.options)])
        activations = [self.options["activation"]] * (len(arrays) // 2 - 1) + ["identity"]
        return [nn.DenseLayer(*layer) for layer in zip(arrays[::2], arrays[1::2], activations)]

    def _init_params(self, rng):
        for layer in self.params:
            nn.draw_uniform(rng, layer.weights, layer.bias)

    def _predict_scaled(self, x_scaled):
        return nn.ffnn_forward(self.params, x_scaled[..., 0, :])[0][..., 0]

    def _loss_and_grad_scaled(self, x_scaled, loss):
        out, caches = nn.ffnn_forward(self.params, self._by_model(x_scaled)[..., 0, :])
        value, d_preds = loss(out[..., 0])
        grad, grads = self._grad_buffers()
        nn.ffnn_backward(self.params, caches, d_preds[..., None], grads)
        return value, grad


# ---------------------------------------------------------------------------
# LSTM


class LSTMModel(_ModelBase):
    kind = "lstm"
    seed_tag = 11

    def _bind(self, vector):
        hidden = self.options["hidden_size"]
        widths = [hidden + len(self.feature_names)] + [2 * hidden] * (self.options["n_layers"] - 1)
        *slabs, read_w, read_b = _cut(
            vector, [(4, hidden * (width + 1)) for width in widths] + [(1, hidden), (1,)]
        )
        layers = [
            nn.LSTMLayerParams(*_interleaved(slab, (hidden, width)))
            for slab, width in zip(slabs, widths)
        ]
        return nn.LSTMParams(layers, nn.DenseLayer(read_w, read_b))

    def _init_params(self, rng):
        # each layer's four gate matrices in one draw, then its four biases
        for layer in [*self.params.layers, self.params.readout]:
            nn.draw_uniform(rng, layer.weights, layer.bias)

    def _predictor(self, rows):
        shape = (min(rows, PREDICT_ROWS), self.window, len(self.feature_names))
        return partial(self._predict_scaled, workspace=nn.lstm_workspace(self.params, shape))

    def _predict_scaled(self, x_scaled, workspace):
        return nn.lstm_sequence_forward(self.params, x_scaled, workspace)[0]

    def _loss_and_grad_scaled(self, x_scaled, loss):
        preds, state = nn.lstm_sequence_forward(self.params, self._by_model(x_scaled))
        value, d_preds = loss(preds)
        grad, grads = self._grad_buffers()
        nn.lstm_sequence_backward(self.params, state, d_preds, grads)
        return value, grad


# ---------------------------------------------------------------------------
# variational quantum regressor


class VQRModel(_ModelBase):
    kind = "vqr"
    seed_tag = 12

    def _init_params(self, rng):
        n_qubits, architecture = self.options["n_qubits"], self.options["architecture"]
        if len(self.feature_names) != n_qubits:
            raise ConfigurationError(
                f"vqr encodes one feature per qubit: {len(self.feature_names)} "
                f"features vs {n_qubits} qubits"
            )
        builders = {"linear": vqc.linear_vqr_template, "nonlinear": vqc.nonlinear_vqr_template}
        if architecture not in builders:
            raise ConfigurationError("vqr architecture must be linear or nonlinear")
        self.template = builders[architecture](
            n_qubits, self.options["n_layers"], transform=self.options["transform"]
        )
        self.params[...] = vqc.init_params(self.template, rng)

    def _bind(self, vector):
        return vector  # the angles are the whole vector

    def _circuits(self, forward_only: bool = False):
        """The model's circuits, one per model, reading <Z_0> alone.  A
        template whose first segment is its only embedding (the linear
        vqr's, and a one-layer re-uploading vqr's) trains and predicts
        through ``vqc.MatrixCircuits``, ``forward_only`` for a predict, which
        keeps only what a run needs; any other (the re-uploading vqr's)
        through ``vqc.PlanCircuits``."""
        params = self.params[..., None, :]
        if vqc.embedding_first(self.template):
            return vqc.MatrixCircuits(self.template, params, forward_only, (0,))
        return vqc.PlanCircuits(self.template, params, (0,))

    def _predictor(self, rows):
        circuits, workspace = self._circuits(forward_only=True), None
        if vqc.embedding_first(self.template):  # a block's product states and products A_0 r
            size = min(rows, PREDICT_ROWS) << self.template.n_qubits
            workspace = np.empty(size), np.empty(size)
        return partial(self._predict_scaled, circuits=circuits, workspace=workspace)

    def _predict_scaled(self, x_scaled, circuits, workspace):
        if workspace is None:
            return circuits.run(x_scaled[:, 0])[0][0, :, 0]
        # every block, the ragged last one too, from the starts
        size, rows = len(x_scaled) << self.template.n_qubits, len(x_scaled)
        states, products = workspace
        out = states[:size].reshape(-1, rows), products[:size].reshape(1, -1, rows)
        return circuits.run(x_scaled[:, 0], out)[0][0, :, 0]

    def _loss_and_grad_scaled(self, x_scaled, loss):
        inputs = self._by_model(x_scaled)[..., 0, :]
        circuits = self._circuits()
        exps, record = circuits.run(inputs)
        value, d_preds = loss(exps[..., 0, :, 0])
        # the prediction is <Z_0>, so its weights are d_preds; the inputs are
        # data, so the step takes no input gradient
        return value, circuits.param_grads(record, d_preds[..., None, :, None])[..., 0, :]


# ---------------------------------------------------------------------------
# quantum LSTM


@dataclass
class QLSTMParams:
    """A QLSTM's parameters: the fc_in and projection maps, the fc_out slab
    pair (weights [K, hidden, n], bias [K, hidden]), the readout, and the
    six circuits' angles [6, P]."""

    fc_in: nn.DenseLayer
    projection: nn.DenseLayer
    fc_out_weights: np.ndarray
    fc_out_bias: np.ndarray
    readout: nn.DenseLayer
    angles: np.ndarray


class _FoldedCircuits(NamedTuple):
    """A QLSTM's six circuits, ``vqc.PhaseCircuits``, with its linear maps
    folded in, for one training step or predict.  The fc_out maps go into the
    coefficients: circuit k's cell output is t F_k + b_k for the Fourier
    features t [..., B, 2m] of its frequency angles, one product [t, 1]
    with ``tables`` [..., 6, 2m + 1, hidden], F_k [2m, hidden] and then
    b_k.  The maps in front of the circuits go into the input frequencies
    Omega, each made against [Omega, Omega] [n, 2m] (the model's
    ``input_frequencies``), so that the gradient at the features goes back
    through it with its halves unsummed; the angles are the first m
    columns.  The gate circuits' angles are h_prev M_h + x_t M_x + b_in
    Omega, with ``hidden_map`` M_h [..., hidden, 2m], ``input_map`` M_x
    [..., features, m] and ``input_bias`` b_in Omega [..., 1, m], and
    circuits 5 and 6 take u M_p + b_p Omega, with ``projection_map`` M_p
    [..., hidden, 2m] and ``projection_bias`` [..., 1, m]."""

    circuits: vqc.PhaseCircuits
    tables: np.ndarray
    hidden_map: np.ndarray
    input_map: np.ndarray
    input_bias: np.ndarray
    projection_map: np.ndarray
    projection_bias: np.ndarray

    def outputs(self, gates: slice, t: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The given circuits' cell outputs [..., k, B, hidden] for the
        features t [..., B, 2m + 1], whose last column is ones, written
        into ``out``."""
        return np.matmul(t[..., None, :, :], self.tables[..., gates, :, :], out=out)


class _Window(NamedTuple):
    """What a QLSTM's forward pass over windows [..., B, T, features]
    writes, step-major, one row block per time step, for the backward pass
    to read as slabs of all T B rows: ``concat`` [T, ..., B, hidden +
    features], each step's [h_prev, x_t] (h_0 = 0); ``drive`` [T, ..., B,
    m], the angles x_t M_x + b_in Omega that the inputs send to the gate
    circuits; the gate circuits' features ``t_v`` and circuit 5's or 6's
    ``t_w`` [T, ..., B, 2m + 1], each with a last column of ones that reads
    the bias row of ``_FoldedCircuits.tables``; the gate slabs ``z`` [T,
    ..., 4, B, hidden]; the cell states ``c`` [T + 1, ..., B, hidden] (c_0
    = 0 first), ``tc`` = tanh(c) and the LSTM outputs ``u`` [T, ..., B,
    hidden]; and circuit 6's output ``q`` [..., B, hidden] at the last
    step, which the readout reads."""

    concat: np.ndarray
    drive: np.ndarray
    t_v: np.ndarray
    t_w: np.ndarray
    z: np.ndarray
    c: np.ndarray
    tc: np.ndarray
    u: np.ndarray
    q: np.ndarray


# each circuit's fc_out slot, and the same as a 0/1 matrix [K, 6]: one
# shared map, or one map per circuit
_FC_OUT_SLOTS = {True: (np.zeros(6, dtype=int), np.ones((1, 6))), False: (np.arange(6), np.eye(6))}


@lru_cache(maxsize=None)
def _frequency_pairs(template: vqc.CircuitTemplate) -> np.ndarray:
    """[Omega, Omega] [n, 2m] for the input frequencies Omega [n, m] of a
    ring-RX template whose encoding has the identity transform, so
    that no frequency reads the arctan of an input."""
    n, frequencies = template.n_qubits, vqc._frequencies(template).inputs
    assert not frequencies[n:].any(), "the encoding has arctan frequencies"
    pairs = np.concatenate([frequencies[:n]] * 2, axis=-1)
    pairs.setflags(write=False)
    return pairs


def _rows(slab: np.ndarray) -> np.ndarray:
    """A step-major slab [T, ..., B, X] as the T B rows [..., T B, X] of
    one product: a view for one model, a copy for a stack."""
    order = (*range(1, slab.ndim - 2), 0, slab.ndim - 2, slab.ndim - 1)
    return slab.transpose(order).reshape(slab.shape[1:-2] + (-1, slab.shape[-1]))


class QLSTMModel(_ModelBase):
    """LSTM cell whose gates run through six ring-RX variational circuits.

    One linear map (``fc_in``) compresses [h_prev, x_t] to one angle per
    qubit; circuits 1-4 drive the forget/input/update/output gates through
    an expansion (``fc_out``) back to the hidden size, and
    ``nn.lstm_gates`` turns them into the cell update; a dedicated
    projection feeds circuits 5-6, which produce the next hidden state and,
    at a window's last step, the prediction.  ``params`` is a
    ``QLSTMParams``; its expansions are one slab pair, with K = 1 when
    shared and 6 otherwise; ``fc_out_slot`` names each circuit's entry, and
    ``fc_out_slots`` [K, 6] is the same as a 0/1 matrix.

    The cell runs over a minibatch [B, ...].  The six circuits are one
    ``vqc.PhaseCircuits`` for the whole window, B x T rows each: per time
    step, circuits 1-4 on B rows and circuit 5, or at a window's last step,
    the only one read out, circuit 6.  Every gate of a ring-RX circuit is an
    RX or a CNOT, so they run as phase polynomials at any batch size, each
    <Z> a Fourier series in the circuit's inputs (Schuld, Sweke & Meyer,
    arXiv:2008.08605): the encoding fixes a few input frequencies, the
    columns of Omega [n, m] (m = 12 at the default 5 qubits and 7 layers),
    whose coefficients C_k [n, 2m] the six circuits' angles set once per
    step or predict.  Every map around the circuits is linear, so
    :meth:`_cell` folds each one in at the same time
    (:class:`_FoldedCircuits`): circuit k's fc_out map into its
    coefficients, F_k = C_k^T W_k^T, and, since the ring-RX encoding has the
    identity transform, fc_in and the projection into the frequencies.  A
    window's input part of the gate angles is one product for all T steps
    before the time loop (:meth:`_window`); a step (:meth:`cell_forward`)
    adds h_prev M_h, takes the Fourier features t = (cos x, sin x) and makes
    the gate circuits' outputs t F_k + b_k in one product straight into
    ``nn.lstm_gates``' [4, B, hidden] layout.

    Backpropagation through time (:meth:`_backward`) keeps in its loop only
    what a step needs from the step after it.  For the gradients D_k at the
    circuits' outputs, the gradient at the features is dt = sum_k D_k
    F_k^T, and the one at the angles, cos x dt_sin - sin x dt_cos, is the
    sum of the halves of e = t * ``vqc.turned`` (dt); a step takes e as t *
    (sum_k D_k turned(F_k^T)) and sends it back through maps made against
    [Omega, Omega], which sum its halves.  Each step's D_k and e go into
    [T, ...] slabs, and every weight gradient is then one product over all
    T B rows: G_k = sum t^T D_k with the bias sums, then the fc_out
    gradient (C_k G_k)^T, which ``fc_out_slots`` sums into the slots, and
    the coefficient seeds (G_k W_k)^T; and the fc_in and projection
    gradients [Omega, Omega] sum e^T [h_prev, x_t] and [Omega, Omega] sum
    e^T u.
    """

    kind = "qlstm"
    seed_tag = 13
    GATE_NAMES = ("forget", "input", "update", "output", "hidden", "readout")

    def _bind(self, vector):
        n, hidden = self.n_qubits, self.hidden_size
        n_maps = 1 if self.options["shared_fc_out"] else 6
        n_angles = vqc.ansatz_param_count("ring_rx", n, self.options["n_layers"])
        shapes = [(n, hidden + len(self.feature_names)), (n,), (n, hidden), (n,)]
        shapes += [(n_maps, hidden * (n + 1)), (1, hidden), (1,), (6, n_angles)]
        in_w, in_b, proj_w, proj_b, fc_out, read_w, read_b, angles = _cut(vector, shapes)
        return QLSTMParams(
            nn.DenseLayer(in_w, in_b),
            nn.DenseLayer(proj_w, proj_b),
            *_interleaved(fc_out, (hidden, n)),
            nn.DenseLayer(read_w, read_b),
            angles,
        )

    def _init_params(self, rng):
        self.template = vqc.ring_rx_template(self.n_qubits, self.options["n_layers"])
        self.input_frequencies = _frequency_pairs(self.template)
        p = self.params
        maps = [p.fc_in, p.projection, *map(nn.DenseLayer, p.fc_out_weights, p.fc_out_bias)]
        for layer in maps + [p.readout]:
            nn.draw_uniform(rng, layer.weights, layer.bias)
        for angles in p.angles:
            angles[...] = vqc.init_params(self.template, rng)
        self.fc_out_slot, self.fc_out_slots = _FC_OUT_SLOTS[self.options["shared_fc_out"]]

    @property
    def hidden_size(self) -> int:
        return self.options["hidden_size"]

    @property
    def n_qubits(self) -> int:
        return self.options["n_qubits"]

    # -- cell -------------------------------------------------------------

    def _cell(self) -> _FoldedCircuits:
        """The six circuits, for one training step or predict, with the
        fc_out maps folded into their coefficients and the fc_in and
        projection maps into their frequencies."""
        p, omega, hidden = self.params, self.input_frequencies, self.hidden_size
        m = omega.shape[-1] // 2
        circuits = vqc.PhaseCircuits(self.template, p.angles)
        # F_k = C_k^T W_k^T, then b_k; a shared map broadcasts over the six
        # circuits
        coefficients = circuits.coefficients.swapaxes(-1, -2)
        tables = np.empty(coefficients.shape[:-2] + (2 * m + 1, hidden))
        np.matmul(coefficients, p.fc_out_weights.swapaxes(-1, -2), out=tables[..., :-1, :])
        tables[..., -1, :] = p.fc_out_bias[..., self.fc_out_slot, :]
        maps = p.fc_in.weights.swapaxes(-1, -2) @ omega  # [M_h; M_x]
        return _FoldedCircuits(
            circuits,
            tables,
            maps[..., :hidden, :],
            maps[..., hidden:, :m],
            p.fc_in.bias[..., None, :] @ omega[:, :m],
            p.projection.weights.swapaxes(-1, -2) @ omega,
            p.projection.bias[..., None, :] @ omega[:, :m],
        )

    def _window(self, x_scaled: np.ndarray, cell: _FoldedCircuits) -> _Window:
        """The arrays of a forward pass over windows [..., B, T, features],
        with the windows and their gate-circuit angles x_t M_x + b_in Omega
        filled in, the latter in one product over every step."""
        *lead, batch, steps, features = x_scaled.shape
        hidden, m = self.hidden_size, self.input_frequencies.shape[-1] // 2

        def empty(rows, *shape):
            return np.empty((rows, *lead, batch, *shape))

        concat = empty(steps, hidden + features)
        concat[0, ..., :hidden] = 0.0
        concat[..., hidden:] = np.moveaxis(x_scaled, -2, 0)
        drive = concat[..., hidden:] @ cell.input_map
        drive += cell.input_bias
        c = empty(steps + 1, hidden)
        c[0] = 0.0
        return _Window(
            concat,
            drive,
            np.ones((steps, *lead, batch, 2 * m + 1)),
            np.ones((steps, *lead, batch, 2 * m + 1)),
            np.empty((steps, *lead, 4, batch, hidden)),
            c,
            empty(steps, hidden),
            empty(steps, hidden),
            np.empty((*lead, batch, hidden)),
        )

    def cell_forward(self, window: _Window, t: int, cell: _FoldedCircuits) -> Optional[np.ndarray]:
        """Time step t of ``window``, its circuits run by ``cell``, the
        model's six folded with its maps (:meth:`_cell`): writes the step's
        features, gates and states into ``window``, and h into the next
        step's [h_prev, x_t].  Only a window's last step is read out: there
        circuit 6 runs instead of circuit 5, and the step returns the
        predictions y [..., B] that the readout makes from its output q;
        any other step returns None."""
        hidden, m = self.hidden_size, window.drive.shape[-1]
        t_v, t_w, last = window.t_v[t], window.t_w[t], t == len(window.t_v) - 1
        x = window.drive[t]
        if t:  # h_0 = 0 sends nothing
            x = window.concat[t, ..., :hidden] @ cell.hidden_map[..., :m] + x
        vqc.fourier_features(x, t_v[..., :-1])
        z = cell.outputs(slice(0, 4), t_v, window.z[t])
        nn.lstm_gates(z, window.c[t], (window.c[t + 1], window.tc[t], window.u[t]))
        w = window.u[t] @ cell.projection_map[..., :m]
        w += cell.projection_bias
        vqc.fourier_features(w, t_w[..., :-1])
        if not last:
            cell.outputs(slice(4, 5), t_w, window.concat[t + 1, ..., None, :, :hidden])
            return None
        cell.outputs(slice(5, 6), t_w, window.q[..., None, :, :])
        return nn.dense_forward(self.params.readout, window.q)[0][..., 0]

    def sequence_forward(
        self, x_scaled: np.ndarray, cell: _FoldedCircuits
    ) -> tuple[np.ndarray, _Window]:
        """Run windows [..., B, T, features] through the cell, its circuits
        run by ``cell``; returns the predictions [..., B] and the
        :class:`_Window` that :meth:`_backward` consumes."""
        window = self._window(x_scaled, cell)
        for t in range(x_scaled.shape[-2]):
            y = self.cell_forward(window, t, cell)
        return y, window

    def _predictor(self, rows):
        return partial(self._predict_scaled, cell=self._cell())

    def _predict_scaled(self, x_scaled, cell):
        return self.sequence_forward(x_scaled, cell)[0]

    # -- backward ---------------------------------------------------------

    def _backward(self, cell: _FoldedCircuits, window: _Window, d_pred: np.ndarray) -> np.ndarray:
        """Backpropagation through time over the batch, through the folded
        circuits that ran the forward pass; a fresh flat gradient.  The
        loop writes each step's gradients at the circuits' outputs and at
        their features into [T, ...] slabs, and each weight gradient is
        taken from them after the loop, in one product over all T B rows."""
        hidden, n, p = self.hidden_size, self.n_qubits, self.params
        omega, t_v, t_w = self.input_frequencies, window.t_v, window.t_w
        # D_k times turned F_k^T is the gradient at circuit k's features
        # turned, whose product with the features holds the halves of the
        # gradient at its angles (vqc.turned); [..., 6, hidden, 2m]
        turns = vqc.turned(cell.tables[..., :-1, :].swapaxes(-1, -2))
        # the four gate circuits' turned tables stacked, [..., 4 hidden, 2m]:
        # a step's gate gradients, laid side by side, are turned in one product
        gate_turns = turns[..., :4, :, :].reshape(turns.shape[:-3] + (-1, omega.shape[-1]))
        projection_map = cell.projection_map.swapaxes(-1, -2)  # M_p^T
        hidden_map = cell.hidden_map.swapaxes(-1, -2)  # M_h^T
        grad, g = self._grad_buffers()  # every entry is written below
        steps = len(t_v)
        # step-major slabs of D_5 at every step but the last and D_6 at it,
        # of the gates' D_1..4, and of the halves of the angle gradients at
        # circuits 5-6 and at 1-4, t * turned(dt)
        d_out, dz = np.empty(window.u.shape), np.empty(window.z.shape)
        e_w = np.empty(t_w.shape[:-1] + omega.shape[-1:])
        e_v = np.empty_like(e_w)
        np.matmul(d_pred[..., None, :], window.q, out=g.readout.weights)
        np.add.reduce(d_pred, axis=-1, keepdims=True, out=g.readout.bias)
        np.matmul(d_pred[..., None], p.readout.weights, out=d_out[-1])
        dc = None
        for t in range(steps - 1, -1, -1):
            # Nothing reads h after the last step, and the prediction reads
            # circuit 6 at the last step only, so each step sends gradient
            # back through exactly one of circuits 5 and 6.
            k = 5 if t == steps - 1 else 4
            e = np.matmul(d_out[t], turns[..., k, :, :], out=e_w[t])
            e *= t_w[t, ..., :-1]
            du = e @ projection_map
            gates = window.c[t], window.z[t], window.tc[t]
            dc = nn.lstm_gates_backward(gates, du, dc, dz[t])[1]
            by_row = dz[t].swapaxes(-3, -2)  # [..., B, 4, hidden]
            e = np.matmul(by_row.reshape(by_row.shape[:-2] + (-1,)), gate_turns, out=e_v[t])
            e *= t_v[t, ..., :-1]
            if t:
                np.matmul(e, hidden_map, out=d_out[t - 1])

        # G_k = sum t^T D_k [..., 6, 2m, hidden] and, in the row after it,
        # the bias sum: the features' column of ones sums D_k
        sums = np.empty(cell.tables.shape)
        np.matmul(_rows(t_v).swapaxes(-1, -2)[..., None, :, :], _rows(dz), out=sums[..., :4, :, :])
        # circuit 5 ran at every step but the last, circuit 6 at the last
        np.matmul(_rows(t_w[:-1]).swapaxes(-1, -2), _rows(d_out[:-1]), out=sums[..., 4, :, :])
        np.matmul(t_w[-1].swapaxes(-1, -2), d_out[-1], out=sums[..., 5, :, :])
        # circuit k's fc_out gradient (C_k G_k)^T and bias sum, summed into
        # its slot
        parts = np.empty(sums.shape[:-3] + (6, hidden * (n + 1)))
        weights, bias = _interleaved(parts, (hidden, n))
        g_k = sums[..., :-1, :]
        np.matmul(g_k.swapaxes(-1, -2), cell.circuits.coefficients.swapaxes(-1, -2), out=weights)
        bias[...] = sums[..., -1, :]
        slotted = self.fc_out_slots @ parts
        g.fc_out_weights[...], g.fc_out_bias[...] = _interleaved(slotted, (hidden, n))
        # fc_in's [Omega, Omega] sum e_v^T [h_prev, x_t] and the projection's
        # [Omega, Omega] sum e_w^T u, and their biases, which sum the halves
        ones = np.ones(steps * t_v.shape[-2])
        rows_v, rows_w = _rows(e_v), _rows(e_w)
        np.matmul(omega, rows_v.swapaxes(-1, -2) @ _rows(window.concat), out=g.fc_in.weights)
        np.matmul(ones @ rows_v, omega.T, out=g.fc_in.bias)
        np.matmul(omega, rows_w.swapaxes(-1, -2) @ _rows(window.u), out=g.projection.weights)
        np.matmul(ones @ rows_w, omega.T, out=g.projection.bias)
        g.angles[...] = cell.circuits.param_grads((g_k @ p.fc_out_weights).swapaxes(-1, -2))
        return grad

    def _loss_and_grad_scaled(self, x_scaled, loss):
        cell = self._cell()
        preds, window = self.sequence_forward(self._by_model(x_scaled), cell)
        value, d_preds = loss(preds)
        return value, self._backward(cell, window, d_preds)


_MODEL_CLASSES = {cls.kind: cls for cls in (FFNNModel, LSTMModel, VQRModel, QLSTMModel)}


def count_params(kind: str, options: dict) -> int:
    """The parameter count of a ``kind`` model with the resolved
    ``options``, from the options alone; ``param_count`` reads it, and
    ``load_model`` compares it with a checkpoint's stored values.

    It sums the shapes of ``_param_shapes``.  An lstm's layers past the
    first all have the second's shapes, so its count is read from one and
    two layers: a forged checkpoint may name a trillion layers."""

    def total(opts: dict) -> int:
        return sum(math.prod(shape) for _, shape in _param_shapes(kind, opts))

    if kind != "lstm" or options["n_layers"] < 3:
        return total(options)
    one, two = (total({**options, "n_layers": layers}) for layers in (1, 2))
    return one + (options["n_layers"] - 1) * (two - one)


def _param_shapes(kind: str, options: dict):
    """(name, shape) of every parameter array of a ``kind`` model with the
    resolved ``options``, in flat order, derived without building it.  Each
    kind's ``_bind`` lays its structures over ``flat`` in this order."""
    n_in = len(options["features"])
    if kind == "ffnn":
        sizes = [n_in, *options["hidden_sizes"], 1]
        for k in range(len(sizes) - 1):
            yield f"dense{k}.weights", (sizes[k + 1], sizes[k])
            yield f"dense{k}.bias", (sizes[k + 1],)
        return
    if kind == "vqr":
        n_angles = vqc.ansatz_param_count(
            "strongly_entangling", options["n_qubits"], options["n_layers"]
        )
        yield "quantum.angles", (n_angles,)
        return
    hidden = options["hidden_size"]
    if kind == "lstm":
        for k in range(options["n_layers"]):
            for letter in "fico":
                yield f"layer{k}.w_{letter}", (hidden, (n_in if k == 0 else hidden) + hidden)
                yield f"layer{k}.b_{letter}", (hidden,)
    else:
        n = options["n_qubits"]
        yield "fc_in.weights", (n, hidden + n_in)
        yield "fc_in.bias", (n,)
        yield "projection.weights", (n, hidden)
        yield "projection.bias", (n,)
        for k in range(1 if options["shared_fc_out"] else 6):
            yield f"fc_out{k}.weights", (hidden, n)
            yield f"fc_out{k}.bias", (hidden,)
    yield "readout.weights", (1, hidden)
    yield "readout.bias", (1,)
    if kind == "qlstm":
        angles = (vqc.ansatz_param_count("ring_rx", options["n_qubits"], options["n_layers"]),)
        for name in QLSTMModel.GATE_NAMES:
            yield f"quantum.{name}", angles


def _cut(vector: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of ``vector`` [..., P], from the start of its last
    axis, in the given shapes after its leading axes."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(vector[..., start : start + size].reshape(vector.shape[:-1] + tuple(shape)))
        start += size
    return views


def _interleaved(segment: np.ndarray, weight_shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The K (weights, bias) pairs laid one after another in the rows of
    ``segment`` [..., K, w + b], as views: weights [..., K, *weight_shape]
    and bias [..., K, b]."""
    size = math.prod(weight_shape)
    weights = segment[..., :size].reshape(segment.shape[:-1] + tuple(weight_shape))
    return weights, segment[..., size:]


# ---------------------------------------------------------------------------
# construction, training, evaluation


def build_model(
    kind: str,
    feature_names: Sequence[str],
    input_scaler: RangeScaler,
    target_scaler: RangeScaler,
    options: Optional[dict] = None,
    window: Optional[int] = None,
    seed: int = 0,
):
    """Instantiate an untrained model of the given kind; an unknown kind, an
    option the kind does not have or a misfit value is a
    ``ConfigurationError`` naming it."""
    # resolved here too, so that no key of ``options`` lands on a named argument
    opts = resolve_options(kind, options)
    return _MODEL_CLASSES[kind](
        feature_names, input_scaler, target_scaler, window=window, seed=seed, **opts
    )


def hybrid_backward(model, x_raw: np.ndarray, y_raw: np.ndarray, loss_kind: str):
    """Mean loss over a raw batch and its gradient w.r.t. the flat parameters.

    Both are expressed in original units; the scaled-space loss the training
    loop minimises differs only by the constant target-span factor.
    """
    if loss_kind not in nn.LOSS_KINDS:
        raise ConfigurationError(f"unknown loss kind {loss_kind!r}")
    xs = model.scale_windows(np.asarray(x_raw, dtype=float))
    ys = model.scale_targets(np.asarray(y_raw, dtype=float))
    if ys.size == 0:
        raise ConfigurationError("loss of an empty batch is undefined")
    loss = partial(_LaneLosses([loss_kind], [ys.size], ys.size), ys[None])
    (loss_scaled,), grad = model._loss_and_grad_scaled(xs, loss)
    factor = _loss_to_original_units(loss_kind, 1.0, model.target_halfspan)
    return float(loss_scaled) * factor, grad * factor


def train(
    model, x_raw: np.ndarray, y_raw: np.ndarray, config: TrainConfig
) -> tuple[object, list[float]]:
    """Mini-batch training of one model, :func:`train_lockstep` with K = 1;
    returns the model and per-epoch train losses (ug/m3), or raises the
    ``TrainingDivergedError`` that ended it."""
    (outcome,) = train_lockstep([model], [x_raw], [y_raw], [config])
    if isinstance(outcome, TrainingDivergedError):
        raise outcome
    return model, outcome


def layout(model) -> tuple:
    """What models must share to train in one lockstep stack: kind,
    window, feature count and every option but the feature names, hence
    one parameter layout and one forward pass."""
    options = tuple(sorted((k, v) for k, v in model.options.items() if k != "features"))
    return model.kind, model.window, len(model.feature_names), options


class _Lane:
    """One model's place in a lockstep training: its scaled windows, its
    own ``[seed, 99]`` batch order, its running epoch loss, and its outcome,
    the epoch losses or the error that ended them."""

    def __init__(self, model, x_raw, y_raw, config: TrainConfig):
        y_raw = np.asarray(y_raw, dtype=float)
        if y_raw.size == 0:
            raise ConfigurationError("training set is empty")
        self.model, self.config = model, config
        self.xs = model.scale_windows(np.asarray(x_raw, dtype=float))
        self.ys = model.scale_targets(y_raw)
        self.order_rng = np.random.default_rng(np.random.SeedSequence([int(config.seed), 99]))
        self.per_epoch = -(-y_raw.size // config.batch_size)
        self.total = config.epochs * self.per_epoch
        self.running = 0.0
        self.outcome = self.history = []

    def batch(self, step: int) -> tuple[np.ndarray, np.ndarray]:
        """The windows and targets of the lane's minibatch ``step``; each
        epoch starts by drawing a new order."""
        t = step % self.per_epoch
        if t == 0:
            order = self.order_rng.permutation(self.ys.size)
            self.epoch_xs, self.epoch_ys = self.xs[order], self.ys[order]
        rows = slice(t * self.config.batch_size, (t + 1) * self.config.batch_size)
        return self.epoch_xs[rows], self.epoch_ys[rows]

    def add_loss(self, step: int, scaled_loss: float, rows: int) -> None:
        """Count minibatch ``step``'s loss; the last of an epoch closes it."""
        self.running += scaled_loss * rows
        if (step + 1) % self.per_epoch == 0:
            mean = self.running / self.ys.size
            self.history.append(
                _loss_to_original_units(self.config.loss, mean, self.model.target_halfspan)
            )
            self.running = 0.0


class _LaneLosses:
    """The loss of K lanes of the kinds ``kinds`` that count the first
    ``counts[k]`` of their ``width`` rows, its constants made once: called
    on ``targets`` [K, width] and ``preds`` [K, width] (or [width] for one
    model), it returns each lane's mean loss over its rows and the loss
    gradient, shaped as ``preds``, zero on the padding rows past them.

    One pass over the stack: with d = preds - targets, l1 is sum |d| / n
    with gradient sign(d) / n and mse sum d**2 / n with gradient 2 d / n,
    so where every count is ``width`` each lane has the bits of
    ``nn.loss_value`` and ``nn.loss_grad``.  Only the lanes with fewer rows
    are zeroed past them; a stack of one kind computes only that kind's
    terms, and a mixed one picks each lane's by ``np.where``."""

    def __init__(self, kinds: Sequence[str], counts: Sequence[int], width: int):
        self.padded = [(row, count) for row, count in enumerate(counts) if count < width]
        self.n = np.array(counts, dtype=float)
        self.n_rows = self.n[:, None]
        self.kind = kinds[0] if len(set(kinds)) == 1 else None
        self.l1 = np.array([kind == "l1" for kind in kinds])[:, None]

    def __call__(self, targets: np.ndarray, preds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d = preds.reshape(len(self.n), -1) - targets
        for row, count in self.padded:
            d[row, count:] = 0.0
        if self.kind == "l1":
            values, d_preds = np.abs(d), np.sign(d)
        elif self.kind == "mse":
            values, d_preds = d**2, 2.0 * d
        else:
            values = np.where(self.l1, np.abs(d), d**2)
            d_preds = np.where(self.l1, np.sign(d), 2.0 * d)
        return values.sum(axis=-1) / self.n, (d_preds / self.n_rows).reshape(preds.shape)


def train_lockstep(models: Sequence, xs_raw: Sequence, ys_raw: Sequence, configs: Sequence) -> list:
    """Train K models of one :func:`layout` as one, each on its raw windows
    and targets with its ``TrainConfig``; returns per model its per-epoch
    train losses (ug/m3), or the ``TrainingDivergedError`` that ended it.

    The models' vectors are the rows of one [K, P] matrix.  A step runs
    every model's minibatch through one forward and one backward pass of
    the stack (:meth:`_ModelBase._stacked`) and updates the rows of each
    optimizer kind, one ``nn.OptimizerState`` and one slice of the stack,
    with one ``nn.optimizer_step``.  Each model keeps its initial weights,
    scalers, ``[seed, 99]`` batch order, learning rate, loss, optimizer,
    batch size and epochs, so it ends as it would have trained alone.  A
    narrower minibatch is padded with rows of zero loss gradient.  A model
    leaves the stack, its row copied back to its ``flat``, when its epochs
    are done, or, unstepped, when its loss or gradient is not finite; the
    others train on unchanged.  Every model starts at step 0 and takes part
    in every step until it leaves, so the models of one state have always
    taken the same number of steps, its one step count.

    What stays fixed while no model leaves, a composition of the stack, is
    made once for it: the stack, the loss constants of each set of row
    counts and the step at which the next model leaves.
    A step checks its losses and gradient with one sum; only when that sum
    is not finite does it build per-model masks, which find every model
    finite when the sum overflowed from finite values, and then no model
    leaves.
    """
    if len({layout(model) for model in models}) > 1:
        raise ConfigurationError("models trained in lockstep must share one kind and layout")
    lanes = [_Lane(*args) for args in zip(models, xs_raw, ys_raw, configs)]
    # the rows of one optimizer kind are one slice of the stack, as many as
    # its state has learning rates
    optimizer = attrgetter("config.optimizer")
    live = sorted((lane for lane in lanes if lane.total), key=optimizer)
    if not live:
        return [lane.outcome for lane in lanes]
    flat = np.stack([lane.model.flat for lane in live])
    states = []
    for kind, group in groupby(live, optimizer):
        rates = [lane.config.learning_rate for lane in group]
        states.append(nn.init_optimizer(kind, rates, (len(rates), flat.shape[1])))
    step, stack = 0, None
    while live:
        if stack is None:  # a new composition: its stack, losses and next leaving step
            stack = live[0].model._stacked(flat)
            kinds, losses = [lane.config.loss for lane in live], {}
            leave_at = min(lane.total for lane in live)
        x, y = zip(*(lane.batch(step) for lane in live))
        counts = tuple(map(len, y))
        if counts not in losses:
            losses[counts] = _LaneLosses(kinds, counts, max(counts))
        x = _padded(x)
        values, grad = stack._loss_and_grad_scaled(
            x.reshape(-1, *x.shape[2:]), partial(losses[counts], _padded(y))
        )
        grad = grad.reshape(flat.shape)
        # one reduction; an overflowing sum of finite values falls back to
        # the per-lane masks, which then find every lane finite
        if not math.isfinite(values.sum() + grad.sum()):
            finite = np.isfinite(values) & np.isfinite(grad).all(axis=1)
            if not finite.all():
                for lane in compress(live, ~finite):
                    lane.outcome = TrainingDivergedError(step // lane.per_epoch)
                values, counts = values[finite], list(compress(counts, finite))
                live, flat, grad, states = _leave(finite, live, flat, grad, states)
                stack = None
        start = 0
        for state in states:
            rows = slice(start, start + len(state.learning_rate))
            nn.optimizer_step(state, flat[rows], grad[rows])
            start = rows.stop
        for lane, value, count in zip(live, values.tolist(), counts):
            lane.add_loss(step, value, count)
        step += 1
        # a divergence that emptied the stack leaves no lane to go here
        if live and step == leave_at:
            going = np.array([lane.total > step for lane in live])
            live, flat, grad, states = _leave(going, live, flat, grad, states)
            stack = None
    return [lane.outcome for lane in lanes]


def _padded(parts: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays ``parts`` [n_k, ...] as one [K, max n_k, ...], each
    padded with zero rows; one part as a view of it."""
    if len(parts) == 1:
        return parts[0][None]
    if len(set(map(len, parts))) == 1:
        return np.concatenate(parts).reshape((len(parts), -1) + parts[0].shape[1:])
    out = np.zeros((len(parts), max(map(len, parts))) + parts[0].shape[1:])
    for row, part in enumerate(parts):
        out[row, : len(part)] = part
    return out


def _leave(keep: np.ndarray, live: list, flat, grad, states: list):
    """The stack without the rows that ``keep`` leaves out: each of their
    parameter rows goes back to its model's ``flat``, their optimizer rows
    are dropped, and so is a state left with none."""
    for lane, row in compress(zip(live, flat), ~keep):
        np.copyto(lane.model.flat, row)
    kept, start = [], 0
    for state in states:
        mask = keep[start : start + len(state.learning_rate)]
        start += len(mask)
        if mask.any():
            kept.append(state.rows(mask))
    return list(compress(live, keep)), flat[keep], grad[keep], kept


def evaluate_losses(model, x_raw: np.ndarray, y_raw: np.ndarray) -> dict[str, float]:
    """L1/MSE/RMSE between calibrated predictions and reference, in ug/m3."""
    return prediction_losses(model.predict(x_raw), y_raw)


def prediction_losses(preds: np.ndarray, y_raw: np.ndarray) -> dict[str, float]:
    """Each of ``METRICS`` between predictions and reference, in their units."""
    return {name: metric(preds, y_raw) for name, metric in METRICS.items()}


def fit_model(kind: str, dataset, config: TrainConfig, options: Optional[dict] = None):
    """Select features, window, fit scalers on the training rows, and train."""
    model, x, y = prepare_fit(kind, dataset, config, options)
    return train(model, x, y, config)


def prepare_fit(kind: str, dataset, config: TrainConfig, options: Optional[dict] = None):
    """The untrained model that ``fit_model`` trains on ``dataset``, with
    the windows and targets it trains on: the features selected, the
    windows made and the scalers fitted on the training rows."""
    features = resolve_options(kind, options)["features"]
    sub = dataset.select_features(features)
    x, y, _ = data.make_windows(sub, config.window)
    if y.size == 0:
        raise ConfigurationError(
            f"no {config.window}-hour windows fit in the training partition"
        )
    input_scaler = data.fit_scaler(sub.features, names=features)
    target_scaler = data.fit_scaler(sub.target, names=("ref_pm25",))
    model = build_model(
        kind,
        features,
        input_scaler,
        target_scaler,
        options=options,
        window=config.window,
        seed=config.seed,
    )
    return model, x, y


def predictions_rows(model, dataset) -> list[dict]:
    """Per-hour prediction rows (timestamp, raw, calibrated, reference)."""
    sub = dataset.select_features(model.feature_names)
    x, y, ends = data.make_windows(sub, model.window)
    if y.size == 0:
        return []
    return series_rows(dataset, model.predict(x), y, ends)


def series_rows(dataset, preds: np.ndarray, y: np.ndarray, ends: np.ndarray) -> list[dict]:
    """Prediction rows for the windows of ``dataset`` that end at ``ends``."""
    raw_col = list(dataset.feature_names).index("pm25")
    raw_by_stamp = {int(t): float(v) for t, v in zip(dataset.timestamps, dataset.features[:, raw_col])}
    return [
        {
            "timestamp": int(t),
            "raw_pm25": raw_by_stamp[int(t)],
            "calibrated_pm25": float(p),
            "reference_pm25": float(ref),
        }
        for t, p, ref in zip(ends, preds, y)
    ]


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_SCHEMA_VERSION = 1
_CHECKPOINT_KEYS = (
    "kind", "window", "options", "feature_names", "input_scaler", "target_scaler", "arrays"
)


def save_model(model, path: str | Path) -> None:
    payload = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "kind": model.kind,
        "window": model.window,
        "options": _jsonable(model.options),
        "feature_names": list(model.feature_names),
        "input_scaler": {
            "minimum": model.input_scaler.minimum.tolist(),
            "maximum": model.input_scaler.maximum.tolist(),
        },
        "target_scaler": {
            "minimum": model.target_scaler.minimum.tolist(),
            "maximum": model.target_scaler.maximum.tolist(),
        },
        "arrays": {
            name: {"shape": list(arr.shape), "values": arr.ravel().tolist()}
            for name, arr in model.param_arrays()
        },
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def load_model(path: str | Path):
    """Rebuild a model from ``save_model`` output; a file that is not a
    complete version-1 checkpoint raises ``DataError`` naming it and the
    entry at fault."""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as err:  # JSONDecodeError, or bytes that are not UTF-8
        raise DataError(f"checkpoint {path} is not valid JSON: {err}") from err
    if not isinstance(payload, dict):
        raise DataError(f"checkpoint {path} must hold a JSON object")
    missing = [key for key in _CHECKPOINT_KEYS if key not in payload]
    if missing:
        raise DataError(f"checkpoint {path} lacks {', '.join(missing)}")
    version = payload.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise DataError(
            f"checkpoint {path} has schema_version {version!r}, "
            f"expected {CHECKPOINT_SCHEMA_VERSION}"
        )
    names = payload["feature_names"]
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise DataError(f"checkpoint {path}: feature_names must be a list of names")
    for key in ("options", "arrays"):
        if not isinstance(payload[key], dict):
            raise DataError(f"checkpoint {path}: {key} must be a JSON object")
    input_scaler = _checkpoint_scaler(path, payload, "input_scaler", len(names))
    target_scaler = _checkpoint_scaler(path, payload, "target_scaler", 1)
    if payload["window"] is None:  # None would build the kind's default window
        raise DataError(f"checkpoint {path}: window is null")
    try:
        options, window = _settings(payload["kind"], names, payload["options"], payload["window"])
        values = _checkpoint_arrays(path, payload["kind"], options, payload["arrays"])
        model = build_model(
            payload["kind"], names, input_scaler, target_scaler, options=options, window=window
        )
    except ConfigurationError as err:
        raise DataError(f"checkpoint {path} describes no model: {err}") from err
    for name, current in model.param_arrays():
        np.copyto(current, values[name].reshape(current.shape))
    return model


def _checkpoint_arrays(path, kind: str, options: dict, arrays: dict) -> dict[str, np.ndarray]:
    """The values of every parameter array, checked against the options
    before any model is built, so that no forged size makes the build
    allocate.  Valid arrays are exactly the ones ``_param_shapes`` names,
    so only that many plus one of its names are read.  The ``DataError``
    names the first array that misfits, after the options' and the
    arrays' parameter counts when those differ."""
    shapes = dict(islice(_param_shapes(kind, options), len(arrays) + 1))
    misfit = next((f"array {name} unknown to {kind}" for name in arrays if name not in shapes), None)
    values = {}
    for name, shape in shapes.items():
        entry = arrays.get(name)
        if misfit:
            break
        if not isinstance(entry, dict):
            misfit = f"{Path(path).name} has no array {name}"
        elif entry.get("shape") != list(shape):
            misfit = f"array {name} has shape {entry.get('shape')!r}, expected {list(shape)}"
        else:
            values[name] = _checkpoint_floats(path, f"array {name}", entry.get("values"), math.prod(shape))
    if misfit is None:
        return values
    expected = count_params(kind, options)
    stored = sum(
        len(entry["values"])
        for entry in arrays.values()
        if isinstance(entry, dict) and isinstance(entry.get("values"), list)
    )
    if expected != stored:
        misfit = (
            f"its options name {expected} parameters, {'more' if expected > stored else 'fewer'} "
            f"than the {stored} values stored in its arrays: {misfit}"
        )
    raise DataError(f"checkpoint {path}: {misfit}")


def _checkpoint_floats(path, entry: str, values, size: int) -> np.ndarray:
    """``values`` as ``size`` floats, else a ``DataError`` naming the entry."""
    try:
        floats = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as err:
        raise DataError(f"checkpoint {path}: {entry} holds non-numbers") from err
    if floats.shape != (size,):
        raise DataError(
            f"checkpoint {path}: {entry} holds values of shape {floats.shape}, "
            f"expected {size}"
        )
    return floats


def _checkpoint_scaler(path, payload: dict, key: str, size: int) -> RangeScaler:
    entry = payload[key]
    bounds = []
    for end in ("minimum", "maximum"):
        if not isinstance(entry, dict) or end not in entry:
            raise DataError(f"checkpoint {path}: {key} lacks {end}")
        bounds.append(_checkpoint_floats(path, f"{key} {end}", entry[end], size))
    return RangeScaler(*bounds)


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def split_settings(payload: dict) -> tuple[dict, dict]:
    """Split flat settings into TrainConfig fields and model options."""
    config = {k: v for k, v in payload.items() if k in TrainConfig.__dataclass_fields__}
    return config, {k: v for k, v in payload.items() if k not in config}
