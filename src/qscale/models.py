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
``predict`` call, which picks the fused plan or the ansatz matrix for the
rows they share, and the adjoint sweep reuses the amplitudes of the
forward pass that made the predictions.  Parameter shift
stays as the public, hardware-realistic gradient and as the oracle the
adjoint sweep is tested against; it would cost 2 x n_angles circuit runs
per gradient, 104 per vqr row and 80 per call of a qlstm circuit.

Every model takes a minibatch in one forward and one backward pass on
``[B, ...]`` arrays, one window being a batch of one; ``predict`` runs the
same forward pass over blocks of ``PREDICT_ROWS`` windows, so the
activations it keeps stay bounded whatever the number of rows.  The LSTM
keeps each layer's gates as ``nn.LSTMLayerParams`` slabs and the QLSTM its
fc_out maps as one slab pair; ``param_arrays`` names per-gate and per-map
views of them, so checkpoints and the flat vector keep one array per gate
and map.  Held-out losses are the ``METRICS`` table, by name.

A kind's option defaults live only in ``_DEFAULT_OPTIONS`` and its default
window only in ``_DEFAULT_CONFIGS``.  Every model is built by one path:
``resolve_options`` merges and type-checks the options, and
``_ModelBase.__init__`` takes them as keywords after the keyword-only
``window`` and ``seed``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import nn, vqc
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
    """Shared construction, scaling, flattening, and prediction plumbing.

    ``__init__`` settles the kind's options and window with ``_settings``
    and has the subclass's ``_init_params`` draw the parameters from a
    generator seeded with ``[seed, seed_tag]``.
    """

    kind: str = ""
    seed_tag: int
    feature_names: tuple[str, ...] = ()
    window: int = 1
    input_scaler: RangeScaler
    target_scaler: RangeScaler
    options: dict

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
        self._init_params(np.random.default_rng(np.random.SeedSequence([seed, self.seed_tag])))

    def _init_params(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def param_arrays(self) -> list[tuple[str, np.ndarray]]:
        raise NotImplementedError

    def _loss_and_grad_scaled(self, x_scaled, y_scaled, loss_kind):
        raise NotImplementedError

    def _predict_scaled(self, x_scaled: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- parameters -------------------------------------------------------

    def get_flat(self) -> np.ndarray:
        return nn.flatten_arrays([a for _, a in self.param_arrays()])

    def set_flat(self, vector: np.ndarray) -> None:
        arrays = [a for _, a in self.param_arrays()]
        for current, new in zip(arrays, nn.unflatten_like(vector, arrays)):
            np.copyto(current, new)

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
        ``predict``; the quantum kinds set up their circuits here, once for
        all blocks."""
        return self._predict_scaled


# ---------------------------------------------------------------------------
# feed-forward


class FFNNModel(_ModelBase):
    kind = "ffnn"
    seed_tag = 10

    def _init_params(self, rng):
        sizes = [len(self.feature_names), *self.options["hidden_sizes"], 1]
        self.layers = [
            nn.dense_layer(
                rng,
                sizes[k],
                sizes[k + 1],
                self.options["activation"] if k < len(sizes) - 2 else "identity",
            )
            for k in range(len(sizes) - 1)
        ]

    def param_arrays(self):
        named = []
        for k, layer in enumerate(self.layers):
            named.append((f"dense{k}.weights", layer.weights))
            named.append((f"dense{k}.bias", layer.bias))
        return named

    def _predict_scaled(self, x_scaled):
        return nn.ffnn_forward(self.layers, x_scaled[:, 0])[0][:, 0]

    def _loss_and_grad_scaled(self, x_scaled, y_scaled, loss_kind):
        out, caches = nn.ffnn_forward(self.layers, x_scaled[:, 0])
        preds = out[:, 0]
        d_preds = nn.loss_grad(loss_kind, preds, y_scaled)
        grads, _ = nn.ffnn_backward(self.layers, caches, d_preds[:, None])
        flat = nn.flatten_arrays([g for pair in grads for g in pair])
        return nn.loss_value(loss_kind, preds, y_scaled), flat


# ---------------------------------------------------------------------------
# LSTM


class LSTMModel(_ModelBase):
    kind = "lstm"
    seed_tag = 11

    def _init_params(self, rng):
        self.params = nn.lstm_stack(
            rng, len(self.feature_names), self.options["hidden_size"], self.options["n_layers"]
        )

    def param_arrays(self):
        return nn.lstm_param_arrays(self.params)

    def _predict_scaled(self, x_scaled):
        return nn.lstm_sequence_forward(self.params, x_scaled)[0]

    def _loss_and_grad_scaled(self, x_scaled, y_scaled, loss_kind):
        preds, state = nn.lstm_sequence_forward(self.params, x_scaled)
        d_preds = nn.loss_grad(loss_kind, preds, y_scaled)
        grads = nn.lstm_sequence_backward(self.params, state, d_preds)
        flat = nn.flatten_arrays([g for _, g in grads])
        return nn.loss_value(loss_kind, preds, y_scaled), flat


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
        self.params = vqc.init_params(self.template, rng)

    def param_arrays(self):
        return [("quantum.angles", self.params)]

    def _circuits(self, rows: int) -> vqc.CircuitStack:
        return vqc.CircuitStack(self.template, self.params[None], rows)

    def _predictor(self, rows):
        return partial(self._predict_scaled, circuits=self._circuits(rows))

    def _predict_scaled(self, x_scaled, circuits=None):
        circuits = circuits or self._circuits(x_scaled.shape[0])
        return circuits.run(slice(None), x_scaled[:, 0])[0][0, :, 0]

    def _loss_and_grad_scaled(self, x_scaled, y_scaled, loss_kind):
        inputs = x_scaled[:, 0]
        circuits = self._circuits(inputs.shape[0])
        exps, record = circuits.run(slice(None), inputs)
        preds = exps[0, :, 0]
        weights = np.zeros_like(exps)
        weights[0, :, 0] = nn.loss_grad(loss_kind, preds, y_scaled)
        circuits.backward(slice(None), record, weights, inputs)
        return nn.loss_value(loss_kind, preds, y_scaled), circuits.param_grads()[0]


# ---------------------------------------------------------------------------
# quantum LSTM


class QLSTMModel(_ModelBase):
    """LSTM cell whose gates run through six ring-RX variational circuits.

    One linear map (``fc_in``) compresses [h_prev, x_t] to one angle per
    qubit; circuits 1-4 drive the forget/input/update/output gates through
    an expansion (``fc_out``) back to the hidden size, and
    ``nn.lstm_gates`` turns them into the cell update; a dedicated
    projection feeds circuits 5-6, which produce the next hidden state and
    the per-step prediction.  The expansions are one slab pair,
    ``fc_out_weights`` [K, hidden, n] and ``fc_out_bias`` [K, hidden], with
    K = 1 when shared and 6 otherwise; ``fc_out_slot`` names each circuit's
    entry.  ``vqc_params`` holds the six circuits' angles as one slab.

    The cell runs over a minibatch [B, ...].  The six circuits are one
    ``vqc.CircuitStack`` for the whole window, B x T rows each: per time
    step, one run of circuits 1-4 on B rows and one of circuits 5-6.  At B
    x T >= 2**n (the default qlstm's training steps and predicts) the six
    ansatz matrices are built once per step or predict and every run is a
    product state times them; backpropagation through time then sums each
    circuit's seeds over the steps and makes one adjoint sweep over the
    basis rows of all six.  Below that, each run goes through the fused
    plan and each backward run makes its own adjoint sweep.
    """

    kind = "qlstm"
    seed_tag = 13
    GATE_NAMES = ("forget", "input", "update", "output", "hidden", "readout")

    def _init_params(self, rng):
        n, hidden = self.n_qubits, self.hidden_size
        self.template = vqc.ring_rx_template(n, self.options["n_layers"])
        n_features = len(self.feature_names)
        self.fc_in = nn.dense_layer(rng, hidden + n_features, n, "identity")
        self.proj = nn.dense_layer(rng, hidden, n, "identity")
        shared = self.options["shared_fc_out"]
        fc_out = [nn.dense_layer(rng, n, hidden, "identity") for _ in range(1 if shared else 6)]
        self.fc_out_weights = np.stack([layer.weights for layer in fc_out])
        self.fc_out_bias = np.stack([layer.bias for layer in fc_out])
        self.fc_out_slot = np.zeros(6, dtype=int) if shared else np.arange(6)
        self.readout = nn.dense_layer(rng, hidden, 1, "identity")
        self.vqc_params = np.stack([vqc.init_params(self.template, rng) for _ in range(6)])

    @property
    def hidden_size(self) -> int:
        return self.options["hidden_size"]

    @property
    def n_qubits(self) -> int:
        return self.options["n_qubits"]

    def param_arrays(self):
        named = [
            ("fc_in.weights", self.fc_in.weights),
            ("fc_in.bias", self.fc_in.bias),
            ("projection.weights", self.proj.weights),
            ("projection.bias", self.proj.bias),
        ]
        for k in range(len(self.fc_out_weights)):
            named.append((f"fc_out{k}.weights", self.fc_out_weights[k]))
            named.append((f"fc_out{k}.bias", self.fc_out_bias[k]))
        named.append(("readout.weights", self.readout.weights))
        named.append(("readout.bias", self.readout.bias))
        for k, params in enumerate(self.vqc_params):
            named.append((f"quantum.{self.GATE_NAMES[k]}", params))
        return named

    # -- cell -------------------------------------------------------------

    def _circuits(self, rows: int) -> vqc.CircuitStack:
        return vqc.CircuitStack(self.template, self.vqc_params, rows)

    def _expand(self, gates: slice, e: np.ndarray) -> np.ndarray:
        """The given circuits' expectations e [K, B, n] through their fc_out
        entries; returns [K, B, hidden]."""
        slots = self.fc_out_slot[gates]
        return e @ self.fc_out_weights[slots].transpose(0, 2, 1) + self.fc_out_bias[slots, None]

    def cell_forward(
        self,
        x_t: np.ndarray,
        h_prev: np.ndarray,
        c_prev: np.ndarray,
        circuits: Optional[vqc.CircuitStack] = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
        """One time step on scaled inputs x_t [B, features] and states
        h_prev, c_prev [B, hidden], its circuits run by ``circuits`` (by
        default a stack for this step alone); returns (h, c, y [B], cache)."""
        circuits = circuits or self._circuits(x_t.shape[0])
        concat = np.concatenate([h_prev, x_t], axis=1)
        v = concat @ self.fc_in.weights.T + self.fc_in.bias
        e, gate_run = circuits.run(slice(0, 4), v)
        u, c, gates = nn.lstm_gates(self._expand(slice(0, 4), e), c_prev)
        w = u @ self.proj.weights.T + self.proj.bias
        e_out, out_run = circuits.run(slice(4, 6), w)
        h, q = self._expand(slice(4, 6), e_out)
        y = q @ self.readout.weights[0] + self.readout.bias[0]
        cache = {
            "concat": concat,
            "v": v,
            "e": e,
            "gate_run": gate_run,
            "gates": gates,
            "u": u,
            "w": w,
            "e_out": e_out,
            "out_run": out_run,
            "q": q,
        }
        return h, c, y, cache

    def sequence_forward(
        self, x_scaled: np.ndarray, circuits: vqc.CircuitStack, keep_caches: bool = True
    ) -> tuple[np.ndarray, list[dict]]:
        """Run windows [B, T, features] through the cell, its circuits run
        by ``circuits``; returns the predictions [B] and, when
        ``keep_caches``, the per-step caches that :meth:`_backward`
        consumes.  Otherwise each step's cache, circuit amplitudes included,
        is dropped as it goes."""
        h = c = np.zeros((x_scaled.shape[0], self.hidden_size))
        caches = []
        for t in range(x_scaled.shape[1]):
            h, c, y, cache = self.cell_forward(x_scaled[:, t], h, c, circuits)
            if keep_caches:
                caches.append(cache)
        return y, caches

    def _predictor(self, rows):
        return partial(self._predict_scaled, circuits=self._circuits(rows * self.window))

    def _predict_scaled(self, x_scaled, circuits=None):
        circuits = circuits or self._circuits(x_scaled.shape[0] * x_scaled.shape[1])
        return self.sequence_forward(x_scaled, circuits, keep_caches=False)[0]

    # -- backward ---------------------------------------------------------

    def _backward(
        self, circuits: vqc.CircuitStack, caches: list[dict], d_pred: np.ndarray
    ) -> np.ndarray:
        """Backpropagation through time over the batch, through the
        circuits that ran the forward pass; the flat gradient."""
        hidden, steps, batch = self.hidden_size, len(caches), d_pred.shape[0]
        accum = {name: np.zeros_like(a) for name, a in self.param_arrays()}
        grad_fc_w = np.zeros((6, hidden, self.n_qubits))
        grad_fc_b = np.zeros((6, hidden))
        gate_weights = self.fc_out_weights[self.fc_out_slot[:4]]
        dh = np.zeros((batch, hidden))
        dc = np.zeros((batch, hidden))
        for t in range(steps - 1, -1, -1):
            cache = caches[t]
            # Nothing reads h after the last step, and the prediction reads
            # circuit 6 at the last step only, so each step sends gradient
            # back through exactly one of circuits 5 and 6.
            if t == steps - 1:
                accum["readout.weights"] += (d_pred @ cache["q"])[None, :]
                accum["readout.bias"] += d_pred.sum()
                k, d_out = 5, d_pred[:, None] * self.readout.weights[0]
            else:
                k, d_out = 4, dh
            grad_fc_w[k] += d_out.T @ cache["e_out"][k - 4]
            grad_fc_b[k] += d_out.sum(axis=0)
            d_exps = np.zeros_like(cache["e_out"])
            d_exps[k - 4] = d_out @ self.fc_out_weights[self.fc_out_slot[k]]
            dw = circuits.backward(slice(4, 6), cache["out_run"], d_exps, cache["w"])
            accum["projection.weights"] += dw.T @ cache["u"]
            accum["projection.bias"] += dw.sum(axis=0)
            du = dw @ self.proj.weights

            dz, dc = nn.lstm_gates_backward(cache["gates"], du, dc)
            grad_fc_w[:4] += dz.transpose(0, 2, 1) @ cache["e"]
            grad_fc_b[:4] += dz.sum(axis=1)
            dv = circuits.backward(slice(0, 4), cache["gate_run"], dz @ gate_weights, cache["v"])
            accum["fc_in.weights"] += dv.T @ cache["concat"]
            accum["fc_in.bias"] += dv.sum(axis=0)
            dh = (dv @ self.fc_in.weights)[:, :hidden]

        # each fc_out entry sums the gradients of the circuits in its slot
        fc_w, fc_b = np.zeros_like(self.fc_out_weights), np.zeros_like(self.fc_out_bias)
        np.add.at(fc_w, self.fc_out_slot, grad_fc_w)
        np.add.at(fc_b, self.fc_out_slot, grad_fc_b)
        for k in range(len(fc_w)):
            accum[f"fc_out{k}.weights"], accum[f"fc_out{k}.bias"] = fc_w[k], fc_b[k]
        for name, grad in zip(self.GATE_NAMES, circuits.param_grads()):
            accum["quantum." + name] = grad
        return nn.flatten_arrays([accum[name] for name, _ in self.param_arrays()])

    def _loss_and_grad_scaled(self, x_scaled, y_scaled, loss_kind):
        circuits = self._circuits(x_scaled.shape[0] * x_scaled.shape[1])
        preds, caches = self.sequence_forward(x_scaled, circuits)
        d_preds = nn.loss_grad(loss_kind, preds, y_scaled)
        return nn.loss_value(loss_kind, preds, y_scaled), self._backward(circuits, caches, d_preds)


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
    resolved ``options``, in flat order, derived without building it."""
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
    xs = model.scale_windows(np.asarray(x_raw, dtype=float))
    ys = model.scale_targets(np.asarray(y_raw, dtype=float))
    loss_scaled, grad = model._loss_and_grad_scaled(xs, ys, loss_kind)
    factor = _loss_to_original_units(loss_kind, 1.0, model.target_halfspan)
    return loss_scaled * factor, grad * factor


def train(
    model, x_raw: np.ndarray, y_raw: np.ndarray, config: TrainConfig
) -> tuple[object, list[float]]:
    """Mini-batch training; returns the model and per-epoch train losses (ug/m3)."""
    x_raw = np.asarray(x_raw, dtype=float)
    y_raw = np.asarray(y_raw, dtype=float)
    n = y_raw.size
    if n == 0:
        raise ConfigurationError("training set is empty")
    xs = model.scale_windows(x_raw)
    ys = model.scale_targets(y_raw)
    order_rng = np.random.default_rng(np.random.SeedSequence([int(config.seed), 99]))
    optimizer = nn.init_optimizer(
        config.optimizer, config.learning_rate, model.param_count()
    )
    history: list[float] = []
    halfspan = model.target_halfspan
    for epoch in range(config.epochs):
        order = order_rng.permutation(n)
        running = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss_scaled, grad = model._loss_and_grad_scaled(
                xs[batch], ys[batch], config.loss
            )
            if not (math.isfinite(loss_scaled) and np.all(np.isfinite(grad))):
                raise TrainingDivergedError(epoch)
            model.set_flat(nn.optimizer_step(optimizer, model.get_flat(), grad))
            running += loss_scaled * batch.size
        history.append(
            _loss_to_original_units(config.loss, running / n, halfspan)
        )
    return model, history


def evaluate_losses(model, x_raw: np.ndarray, y_raw: np.ndarray) -> dict[str, float]:
    """L1/MSE/RMSE between calibrated predictions and reference, in ug/m3."""
    return prediction_losses(model.predict(x_raw), y_raw)


def prediction_losses(preds: np.ndarray, y_raw: np.ndarray) -> dict[str, float]:
    """Each of ``METRICS`` between predictions and reference, in their units."""
    return {name: metric(preds, y_raw) for name, metric in METRICS.items()}


def fit_model(kind: str, dataset, config: TrainConfig, options: Optional[dict] = None):
    """Select features, window, fit scalers on the training rows, and train."""
    features = resolve_options(kind, options)["features"]
    sub = dataset.select_features(features)
    from .data import fit_scaler, make_windows  # local import avoids a cycle

    x, y, _ = make_windows(sub, config.window)
    if y.size == 0:
        raise ConfigurationError(
            f"no {config.window}-hour windows fit in the training partition"
        )
    input_scaler = fit_scaler(sub.features, names=features)
    target_scaler = fit_scaler(sub.target, names=("ref_pm25",))
    model = build_model(
        kind,
        features,
        input_scaler,
        target_scaler,
        options=options,
        window=config.window,
        seed=config.seed,
    )
    return train(model, x, y, config)


def predictions_rows(model, dataset) -> list[dict]:
    """Per-hour prediction rows (timestamp, raw, calibrated, reference)."""
    sub = dataset.select_features(model.feature_names)
    from .data import make_windows

    x, y, ends = make_windows(sub, model.window)
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


def config_from_dict(payload: dict, kind: Optional[str] = None) -> TrainConfig:
    config, unknown = split_settings(payload or {})
    if unknown:
        raise ConfigurationError(f"unknown training fields {sorted(unknown)}")
    base = asdict(default_config(kind)) if kind else {}
    return TrainConfig(**{**base, **config})
