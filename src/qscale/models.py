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
model's circuits run as one ``vqc.CircuitStack`` per training step or
``predict`` call, which lowers them as phase polynomials (the qlstm's
ring-RX circuits), as one ansatz matrix per circuit (the linear vqr's) or
through the fused plan (the re-uploading vqr's).  Each backward pass reuses
what the forward pass that made the predictions kept.  Parameter shift
stays as the public, hardware-realistic gradient and as the oracle the
adjoint sweep is tested against; it would cost 2 x n_angles circuit runs
per gradient, 104 per vqr row and 80 per call of a qlstm circuit.

Every model takes a minibatch of windows ``[B, T, features]`` in one
forward and one backward pass, one window being a batch of one; the lstm
runs it feature-major inside ``nn``, its states ``[hidden, B]``.
``predict`` runs the same forward pass over blocks of ``PREDICT_ROWS``
windows, so the activations it keeps stay bounded whatever the number of
rows; the lstm allocates one workspace per ``predict`` and every block,
the ragged last one too, writes into views from its start.  Held-out
losses are the ``METRICS`` table, by name.

Each model holds its parameters in one float64 vector, ``flat``; every
array it computes with (dense layers, LSTM gate slabs, the QLSTM's fc_out
slab pair, circuit angles) is a view of it that the kind's ``_bind`` lays
over any vector of that layout, or over a [K, P] matrix of K such vectors,
each structure then with a leading model axis.  ``param_arrays`` cuts
``flat`` into the per-gate and per-map arrays checkpoints store.

Training has one loop, ``train_lockstep``: K models of one layout train as
one stack (``_ModelBase._stacked``) whose parameters are the rows of a
[K, P] matrix, each step one forward and one backward pass over all K
minibatches, their gradients added into views of one [K, P] gradient, and
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
from functools import partial
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

    def _zero_grads(self):
        """A zero gradient vector and the kind's structures over it: fresh
        for a model, and for a stack its one buffer, zeroed, since its
        trainer is done with each step's gradient before the next step."""
        if self._grads is None:
            grad = np.zeros_like(self.flat)
            return grad, self._bind(grad)
        self._grads[0].fill(0.0)
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
        ``predict``; the quantum kinds set up their circuits here and the
        lstm its workspace, once for all blocks, and pass them to their
        ``_predict_scaled``, which builds none of its own."""
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
        grad, grads = self._zero_grads()
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
        grad, grads = self._zero_grads()
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

    def _circuits(self, forward_only: bool = False) -> vqc.CircuitStack:
        """The model's circuit stack, one circuit per model.  The linear
        vqr trains and predicts through its ansatz matrix, the nonlinear one
        through the plan; a ``forward_only`` stack, a predict's, keeps only
        what a run needs."""
        return vqc.CircuitStack(self.template, self.params[..., None, :], forward_only)

    def _predictor(self, rows):
        return partial(self._predict_scaled, circuits=self._circuits(forward_only=True))

    def _predict_scaled(self, x_scaled, circuits):
        return circuits.run(slice(None), x_scaled[:, 0])[0][0, :, 0]

    def _loss_and_grad_scaled(self, x_scaled, loss):
        inputs = self._by_model(x_scaled)[..., 0, :]
        circuits = self._circuits()
        exps, record = circuits.run(slice(None), inputs)
        value, d_preds = loss(exps[..., 0, :, 0])
        weights = np.zeros_like(exps)
        weights[..., 0, :, 0] = d_preds
        circuits.backward(slice(None), record, weights, inputs)
        return value, circuits.param_grads()[..., 0, :]


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
    """A QLSTM's six phase-lowered circuits with its fc_out maps folded
    into their coefficients: circuit k's cell output is t F_k + b_k, t the
    Fourier features ``circuits.features`` of its inputs, with ``tables``
    F [..., 6, 2m, hidden] and ``bias`` b [..., 6, 1, hidden]."""

    circuits: vqc.CircuitStack
    tables: np.ndarray
    bias: np.ndarray

    def outputs(self, gates: slice, t: np.ndarray) -> np.ndarray:
        """The given circuits' cell outputs [..., k, B, hidden] for the
        features t [..., B, 2m]."""
        out = t[..., None, :, :] @ self.tables[..., gates, :, :]
        out += self.bias[..., gates, :, :]
        return out


class QLSTMModel(_ModelBase):
    """LSTM cell whose gates run through six ring-RX variational circuits.

    One linear map (``fc_in``) compresses [h_prev, x_t] to one angle per
    qubit; circuits 1-4 drive the forget/input/update/output gates through
    an expansion (``fc_out``) back to the hidden size, and
    ``nn.lstm_gates`` turns them into the cell update; a dedicated
    projection feeds circuits 5-6, which produce the next hidden state and
    the per-step prediction.  ``params`` is a ``QLSTMParams``; its
    expansions are one slab pair, with K = 1 when shared and 6 otherwise,
    and ``fc_out_slot`` names each circuit's entry.

    The cell runs over a minibatch [B, ...].  The six circuits are one
    ``vqc.CircuitStack`` for the whole window, B x T rows each: per time
    step, one run of circuits 1-4 on B rows and one of circuits 5-6.  Every
    gate of a ring-RX circuit is an RX or a CNOT, so the stack runs them as
    phase polynomials at any batch size, each <Z> a Fourier series in the
    circuit's inputs (Schuld, Sweke & Meyer, arXiv:2008.08605): the
    encoding fixes a few input frequencies (12 at the default 5 qubits and
    7 layers), whose coefficients C_k [n, 2m] the six circuits' angles set
    once per step or predict.  The fc_out map W_k, b_k of circuit k is
    linear too, so it is folded into the coefficients at the same time
    (:meth:`_cell`): F_k = C_k^T W_k^T [2m, hidden].  A cell call takes the
    Fourier features t = (cos x, sin x) [B, 2m] of its inputs, and its
    circuits' outputs through fc_out are t F_k + b_k, made for circuits
    1-4 in one batched product in ``nn.lstm_gates``' [4, B, hidden] layout.
    A predict's stack is forward-only and keeps only the coefficients.
    Backpropagation through time takes each call's input gradient from the
    features' closed form, dt = sum_k D_k F_k^T for the gradients D_k at
    the outputs, and sums G_k = sum t^T D_k over the steps; after the last
    step the fc_out gradient is (C_k G_k)^T and the seeds (G_k W_k)^T go to
    the stack, which spreads them into the angle gradients once per step.
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
        p = self.params
        maps = [p.fc_in, p.projection, *map(nn.DenseLayer, p.fc_out_weights, p.fc_out_bias)]
        for layer in maps + [p.readout]:
            nn.draw_uniform(rng, layer.weights, layer.bias)
        for angles in p.angles:
            angles[...] = vqc.init_params(self.template, rng)
        self.fc_out_slot = np.zeros(6, dtype=int) if self.options["shared_fc_out"] else np.arange(6)

    @property
    def hidden_size(self) -> int:
        return self.options["hidden_size"]

    @property
    def n_qubits(self) -> int:
        return self.options["n_qubits"]

    # -- cell -------------------------------------------------------------

    def _cell(self, forward_only: bool = False) -> _FoldedCircuits:
        """The six circuits as one stack, for one training step or predict,
        with the fc_out maps folded into their coefficients."""
        p = self.params
        circuits = vqc.CircuitStack(self.template, p.angles, forward_only)
        # F_k = C_k^T W_k^T; a shared map broadcasts over the six circuits
        tables = circuits.coefficients.swapaxes(-1, -2) @ p.fc_out_weights.swapaxes(-1, -2)
        return _FoldedCircuits(circuits, tables, p.fc_out_bias[..., self.fc_out_slot, None, :])

    def cell_forward(
        self,
        x_t: np.ndarray,
        h_prev: np.ndarray,
        c_prev: np.ndarray,
        cell: _FoldedCircuits,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
        """One time step on scaled inputs x_t [..., B, features] and states
        h_prev, c_prev [..., B, hidden], its circuits run by ``cell``, the
        model's six folded with their fc_out maps (:meth:`_cell`); returns
        (h, c, y [..., B], cache)."""
        p = self.params
        concat = np.concatenate([h_prev, x_t], axis=-1)
        v = nn.dense_forward(p.fc_in, concat)[0]
        t_v = cell.circuits.features(v)
        u, c, gates = nn.lstm_gates(cell.outputs(slice(0, 4), t_v), c_prev)
        w = nn.dense_forward(p.projection, u)[0]
        t_w = cell.circuits.features(w)
        h, q = cell.outputs(slice(4, 6), t_w).swapaxes(0, -3)
        y = nn.dense_forward(p.readout, q)[0][..., 0]
        cache = {
            "concat": concat,
            "v": v,
            "t_v": t_v,
            "gates": gates,
            "u": u,
            "w": w,
            "t_w": t_w,
            "q": q,
        }
        return h, c, y, cache

    def sequence_forward(
        self, x_scaled: np.ndarray, cell: _FoldedCircuits, keep_caches: bool = True
    ) -> tuple[np.ndarray, list[dict]]:
        """Run windows [..., B, T, features] through the cell, its circuits
        run by ``cell``; returns the predictions [..., B] and, when
        ``keep_caches``, the per-step caches that :meth:`_backward`
        consumes.  Otherwise each step's cache is dropped as it goes."""
        h = c = np.zeros(x_scaled.shape[:-2] + (self.hidden_size,))
        caches = []
        for t in range(x_scaled.shape[-2]):
            h, c, y, cache = self.cell_forward(x_scaled[..., t, :], h, c, cell)
            if keep_caches:
                caches.append(cache)
            del cache  # a predict holds no step's activations into the next step
        return y, caches

    def _predictor(self, rows):
        return partial(self._predict_scaled, cell=self._cell(forward_only=True))

    def _predict_scaled(self, x_scaled, cell):
        return self.sequence_forward(x_scaled, cell, keep_caches=False)[0]

    # -- backward ---------------------------------------------------------

    def _backward(
        self, cell: _FoldedCircuits, caches: list[dict], d_pred: np.ndarray
    ) -> np.ndarray:
        """Backpropagation through time over the batch, through the folded
        circuits that ran the forward pass; a fresh flat gradient.  Each
        step adds t^T D_k into G_k [..., 6, 2m, hidden], D_k the gradient
        at circuit k's cell output t F_k + b_k; after the last step the
        fc_out gradient is (C_k G_k)^T and the coefficient seeds are (G_k
        W_k)^T."""
        hidden, steps, p = self.hidden_size, len(caches), self.params
        circuits, tables = cell.circuits, cell.tables
        grad, g = self._zero_grads()
        sums = np.zeros(tables.shape)
        bias_sums = np.zeros(tables.shape[:-2] + (hidden,))
        dh = np.zeros(d_pred.shape + (hidden,))
        dc = np.zeros_like(dh)
        for t in range(steps - 1, -1, -1):
            cache = caches[t]
            # Nothing reads h after the last step, and the prediction reads
            # circuit 6 at the last step only, so each step sends gradient
            # back through exactly one of circuits 5 and 6.
            if t == steps - 1:
                k, d_out = 5, nn.linear_backward(p.readout, cache["q"], d_pred[..., None], g.readout)
            else:
                k, d_out = 4, dh
            sums[..., k, :, :] += cache["t_w"].swapaxes(-1, -2) @ d_out
            bias_sums[..., k, :] += d_out.sum(axis=-2)
            dt = d_out @ tables[..., k, :, :].swapaxes(-1, -2)
            dw = circuits.feature_grads(cache["t_w"], dt, cache["w"])
            du = nn.linear_backward(p.projection, cache["u"], dw, g.projection)

            dz, dc = nn.lstm_gates_backward(cache["gates"], du, dc)
            sums[..., :4, :, :] += cache["t_v"][..., None, :, :].swapaxes(-1, -2) @ dz
            bias_sums[..., :4, :] += dz.sum(axis=-2)
            dt = (dz @ tables[..., :4, :, :].swapaxes(-1, -2)).sum(axis=-3)
            dv = circuits.feature_grads(cache["t_v"], dt, cache["v"])
            dh = nn.linear_backward(p.fc_in, cache["concat"], dv, g.fc_in)[..., :hidden]

        # each fc_out entry sums the gradients of the circuits in its slot
        every = slice(None)
        grad_fc_w = (circuits.coefficients @ sums).swapaxes(-1, -2)
        np.add.at(g.fc_out_weights, (..., self.fc_out_slot, every, every), grad_fc_w)
        np.add.at(g.fc_out_bias, (..., self.fc_out_slot, every), bias_sums)
        circuits.add_seeds(every, (sums @ p.fc_out_weights).swapaxes(-1, -2))
        g.angles += circuits.param_grads()
        return grad

    def _loss_and_grad_scaled(self, x_scaled, loss):
        cell = self._cell()
        preds, caches = self.sequence_forward(self._by_model(x_scaled), cell)
        value, d_preds = loss(preds)
        return value, self._backward(cell, caches, d_preds)


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
    loss = partial(_lane_losses, [loss_kind], [ys.size], ys[None])
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


def _lane_losses(kinds, counts, targets, preds) -> tuple[np.ndarray, np.ndarray]:
    """Each of K models' mean loss over its first ``counts[k]`` rows of
    ``preds`` [K, W] (or [W] for one model) against ``targets`` [K, W], and
    the loss gradient, shaped as ``preds``, zero on the padding rows past
    them; lanes of the kinds ``kinds`` may mix.  One pass over the stack:
    with d = preds - targets, l1 is sum |d| / n with gradient sign(d) / n
    and mse sum d**2 / n with gradient 2 d / n, so where every count is W
    each lane has the bits of ``nn.loss_value`` and ``nn.loss_grad``."""
    d = preds.reshape(len(kinds), -1) - targets
    for row, count in enumerate(counts):
        d[row, count:] = 0.0
    l1 = np.array([kind == "l1" for kind in kinds])[:, None]
    n = np.array(counts, dtype=float)
    values = np.where(l1, np.abs(d), d**2).sum(axis=-1) / n
    d_preds = np.where(l1, np.sign(d), 2.0 * d) / n[:, None]
    return values, d_preds.reshape(preds.shape)


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
    step, stack = 0, live[0].model._stacked(flat)
    while live:
        x, y = zip(*(lane.batch(step) for lane in live))
        counts = [len(rows) for rows in y]
        loss = partial(_lane_losses, [lane.config.loss for lane in live], counts, _padded(y))
        x = _padded(x)
        values, grad = stack._loss_and_grad_scaled(x.reshape(-1, *x.shape[2:]), loss)
        grad = grad.reshape(flat.shape)
        if not (np.isfinite(values).all() and np.isfinite(grad).all()):
            finite = np.isfinite(values) & np.isfinite(grad).all(axis=1)
            for lane in compress(live, ~finite):
                lane.outcome = TrainingDivergedError(step // lane.per_epoch)
            values, counts = values[finite], list(compress(counts, finite))
            live, flat, grad, states = _leave(finite, live, flat, grad, states)
            stack = live[0].model._stacked(flat) if live else None
        start = 0
        for state in states:
            rows = slice(start, start + len(state.learning_rate))
            nn.optimizer_step(state, flat[rows], grad[rows])
            start = rows.stop
        for lane, value, count in zip(live, values.tolist(), counts):
            lane.add_loss(step, value, count)
        step += 1
        if any(lane.total == step for lane in live):
            going = np.array([lane.total > step for lane in live])
            live, flat, grad, states = _leave(going, live, flat, grad, states)
            stack = live[0].model._stacked(flat) if live else None
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
