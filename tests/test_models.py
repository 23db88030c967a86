"""Model-level tests: wiring, hybrid gradients vs finite differences, training."""

import dataclasses
import json
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscale import models, nn, vqc
from qscale.data import CalibrationDataset, RangeScaler, fit_scaler, invert_scaler, make_windows
from qscale.errors import ConfigurationError, DataError, TrainingDivergedError
from qscale.models import TrainConfig

import pins
from _oracles import (
    batch_loss,
    central_difference,
    phase_feature_grads,
    phase_features,
    phase_run,
    qlstm_every_step_forward,
    qlstm_per_step,
    qlstm_shift_grad,
)

HOUR = 3600


def tiny_dataset(n=40, seed=0, names=("pm25", "temp", "hum", "press")):
    """Hourly rows where the reference is an affine map of the sensor."""
    rng = np.random.default_rng(seed)
    ts = np.arange(n, dtype=np.int64) * HOUR
    pm = 12.0 + 6.0 * np.sin(np.arange(n) / 4.0) + rng.normal(0.0, 0.4, n)
    cols = {
        "pm25": pm,
        "temp": 20.0 + 3.0 * np.cos(np.arange(n) / 7.0),
        "hum": 55.0 + 10.0 * np.sin(np.arange(n) / 9.0 + 1.0),
        "press": 1010.0 + rng.normal(0.0, 1.0, n),
    }
    features = np.column_stack([cols[k] for k in names])
    target = 0.7 * pm - 2.0 + rng.normal(0.0, 0.2, n)
    return CalibrationDataset(ts, tuple(names), features, target)


def scalers_for(dataset, names):
    sub = dataset.select_features(names)
    return (
        fit_scaler(sub.features, names=names),
        fit_scaler(sub.target, names=("ref_pm25",)),
    )


def structure_arrays(params):
    """Every array in a model's parameter structures: the dataclasses,
    lists and arrays that its forward pass reads."""
    if isinstance(params, np.ndarray):
        return [params]
    if isinstance(params, list):
        return [a for item in params for a in structure_arrays(item)]
    if dataclasses.is_dataclass(params):
        fields = dataclasses.fields(params)
        return [a for f in fields for a in structure_arrays(getattr(params, f.name))]
    return []


def fd_flat_gradient(model, x, y, loss_kind, h=1e-6):
    theta0 = model.get_flat().copy()

    def objective(theta):
        model.set_flat(theta)
        loss, _ = models.hybrid_backward(model, x, y, loss_kind)
        return loss

    fd = central_difference(objective, theta0, h)
    model.set_flat(theta0)
    return fd


def edited(text, edit):
    """The checkpoint text with ``edit`` applied to its parsed payload."""
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload)


class TestTrainConfig:
    def test_defaults_ffnn(self):
        cfg = models.default_config("ffnn")
        assert cfg.epochs == 200
        assert cfg.learning_rate == 1e-4
        assert cfg.optimizer == "sgd"
        assert cfg.loss == "l1"
        assert cfg.batch_size == 10
        assert cfg.window == 1

    def test_defaults_vqr(self):
        cfg = models.default_config("vqr")
        assert (cfg.optimizer, cfg.loss) == ("adam", "mse")
        assert cfg.learning_rate == 0.01

    def test_defaults_lstm(self):
        cfg = models.default_config("lstm")
        assert (cfg.epochs, cfg.window) == (300, 3)
        assert cfg.optimizer == "rmsprop"

    def test_defaults_qlstm(self):
        cfg = models.default_config("qlstm")
        assert (cfg.epochs, cfg.window) == (400, 5)
        assert (cfg.optimizer, cfg.loss) == ("adam", "l1")

    def test_default_options_vqr(self):
        opts = models.default_options("vqr")
        assert opts["n_qubits"] == 4 and opts["n_layers"] == 4
        assert opts["architecture"] == "linear"

    def test_default_options_qlstm(self):
        opts = models.default_options("qlstm")
        assert opts["n_qubits"] == 5 and opts["n_layers"] == 7
        assert opts["hidden_size"] == 15

    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=-1, learning_rate=0.1)
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=1, learning_rate=0.0)
        for rate in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError, match="finite"):
                TrainConfig(epochs=1, learning_rate=rate)
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=1, learning_rate=0.1, optimizer="lbfgs")
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=1, learning_rate=0.1, loss="huber")
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=1, learning_rate=0.1, batch_size=0)
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=1, learning_rate=0.1, window=0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            models.default_config("transformer")
        with pytest.raises(ConfigurationError):
            models.build_model("gru", ("pm25",), None, None)


class TestParameterCounts:
    def test_ffnn_published_topology(self):
        # dense-layer formula: (4*30+30)+(30*15+15)+(15*5+5)+(5*1+1)
        ds = tiny_dataset()
        inp, tgt = scalers_for(ds, ("pm25", "temp", "hum", "press"))
        model = models.FFNNModel(
            ("pm25", "temp", "hum", "press"), inp, tgt, hidden_sizes=(30, 15, 5)
        )
        assert model.param_count() == 701

    def test_vqr_published_template(self):
        ds = tiny_dataset()
        inp, tgt = scalers_for(ds, ("pm25", "temp", "hum", "press"))
        model = models.VQRModel(
            ("pm25", "temp", "hum", "press"), inp, tgt, n_qubits=4, n_layers=4
        )
        assert model.param_count() == 48
        assert model.param_breakdown() == {"quantum": 48}

    def test_qlstm_published_shape(self):
        ds = tiny_dataset()
        inp, tgt = scalers_for(ds, ("pm25",))
        model = models.QLSTMModel(
            ("pm25",), inp, tgt, n_qubits=5, n_layers=7, hidden_size=15
        )
        breakdown = model.param_breakdown()
        assert breakdown["quantum"] == 210
        assert breakdown["fc_in"] == 5 * 16 + 5
        assert breakdown["projection"] == 5 * 15 + 5
        assert breakdown["fc_out0"] == 15 * 5 + 15
        assert breakdown["readout"] == 16
        assert model.param_count() == 481

    def test_qlstm_per_gate_expansions(self):
        ds = tiny_dataset()
        inp, tgt = scalers_for(ds, ("pm25",))
        shared = models.QLSTMModel(
            ("pm25",), inp, tgt, n_qubits=5, n_layers=7, hidden_size=15
        )
        split = models.QLSTMModel(
            ("pm25",), inp, tgt, n_qubits=5, n_layers=7, hidden_size=15, shared_fc_out=False
        )
        assert split.param_count() - shared.param_count() == 5 * (15 * 5 + 15)

    @pytest.mark.parametrize(
        "kind,options,window",
        [
            ("ffnn", {"hidden_sizes": (30, 15, 5)}, 1),
            ("ffnn", {"hidden_sizes": (2,), "features": ("pm25",)}, 1),
            ("lstm", {"hidden_size": 4, "n_layers": 1}, 3),
            ("lstm", {"hidden_size": 3, "n_layers": 3, "features": ("pm25", "temp")}, 2),
            ("vqr", {}, 1),
            ("vqr", {"n_qubits": 2, "n_layers": 3, "architecture": "nonlinear", "features": ("pm25", "hum")}, 1),
            ("qlstm", {}, 5),
            ("qlstm", {"n_qubits": 2, "hidden_size": 3, "shared_fc_out": False, "features": ("pm25", "temp")}, 2),
        ],
    )
    def test_counted_from_options(self, tmp_path, kind, options, window):
        """``count_params`` and the shapes that ``load_model`` checks a
        checkpoint against, both read from the options alone, agree with the
        arrays a built model holds, names and flat order included.  Those
        arrays, and every array the forward pass reads, are views that tile
        ``flat``, so what ``set_flat`` sets is what ``predict`` runs on, in a
        built model and in a loaded one."""
        names = tuple(options.get("features", models.default_options(kind)["features"]))
        ds = tiny_dataset()
        inp, tgt = scalers_for(ds, names)
        model = models.build_model(kind, names, inp, tgt, options=options, window=window)
        built = [(name, array.shape) for name, array in model.param_arrays()]
        assert list(models._param_shapes(kind, model.options)) == built
        assert models.count_params(kind, model.options) == model.get_flat().size
        assert model.param_count() == model.get_flat().size

        # with every entry of flat holding its index, the views read each
        # index once, param_arrays reads them in flat order, and each named
        # array lies within one array the forward pass reads
        model.set_flat(np.arange(model.param_count(), dtype=float))
        named = [array for _, array in model.param_arrays()]
        read = structure_arrays(model.params)
        assert all(np.shares_memory(a, model.flat) for a in named + read)
        assert np.array_equal(np.concatenate([a.ravel() for a in named]), model.flat)
        assert np.array_equal(np.sort(np.concatenate([a.ravel() for a in read])), model.flat)
        assert all(any(np.isin(a, r).all() for r in read) for a in named)

        models.save_model(model, tmp_path / "model.json")
        loaded = models.load_model(tmp_path / "model.json")
        x, _, _ = make_windows(ds.select_features(names), window)
        vector = np.random.default_rng(3).uniform(-1.0, 1.0, model.param_count())
        other = models.build_model(kind, names, inp, tgt, options=options, window=window, seed=1)
        other.set_flat(vector)
        want = other.predict(x[:5])
        for target in (model, loaded):
            before = target.predict(x[:5])
            target.set_flat(vector)
            assert np.array_equal(target.predict(x[:5]), want)
            assert not np.array_equal(before, want)

    def test_lstm_init_draws_gate_matrices_then_biases(self):
        """Seeding gives an LSTM model's layer-0 slabs the weights of one
        draw per gate array: the f, i, c and o matrices, then the f, i, c
        and o biases."""
        inp, tgt = scalers_for(tiny_dataset(), ("pm25", "temp"))
        model = models.LSTMModel(("pm25", "temp"), inp, tgt, hidden_size=3, n_layers=2, seed=12)
        rng = np.random.default_rng(np.random.SeedSequence([12, models.LSTMModel.seed_tag]))
        bound = 1.0 / np.sqrt(5)
        matrices = [rng.uniform(-bound, bound, (3, 5)) for _ in range(4)]
        biases = [rng.uniform(-bound, bound, 3) for _ in range(4)]
        np.testing.assert_array_equal(model.params.layers[0].weights, np.stack(matrices))
        np.testing.assert_array_equal(model.params.layers[0].bias, np.stack(biases))

    def test_vqr_feature_qubit_mismatch(self):
        ds = tiny_dataset()
        inp, tgt = scalers_for(ds, ("pm25", "temp"))
        with pytest.raises(ConfigurationError):
            models.VQRModel(("pm25", "temp"), inp, tgt, n_qubits=4)

    def test_options_are_keyword_only(self):
        """A positional option fails instead of landing in window or seed."""
        ds = tiny_dataset()
        inp, tgt = scalers_for(ds, ("pm25",))
        with pytest.raises(TypeError):
            models.LSTMModel(("pm25",), inp, tgt, 4, 1)

    def test_flat_round_trip(self):
        ds = tiny_dataset()
        inp, tgt = scalers_for(ds, ("pm25",))
        model = models.QLSTMModel(
            ("pm25",), inp, tgt, n_qubits=2, n_layers=1, hidden_size=3, window=2, seed=3
        )
        flat = model.get_flat()
        perturbed = flat + 0.25
        model.set_flat(perturbed)
        assert np.array_equal(model.get_flat(), perturbed)
        with pytest.raises(ConfigurationError):
            model.set_flat(perturbed[:-1])


class TestFrozenBehaviour:
    def test_vqr_zero_params_midpoint_input(self):
        """All-zero angles leave |0000>, so qubit 0 reads +1 -> scaler max."""
        ds = tiny_dataset()
        names = ("pm25", "temp", "hum", "press")
        inp, tgt = scalers_for(ds, names)
        model = models.VQRModel(names, inp, tgt, n_qubits=4, n_layers=4)
        model.set_flat(np.zeros(model.param_count()))
        midpoint = (inp.minimum + inp.maximum) / 2.0
        pred = model.predict(midpoint[None, None, :])[0]
        assert abs(pred - float(tgt.maximum[0])) < 1e-9

    def test_vqr_raw_expectation_bounded(self):
        ds = tiny_dataset()
        names = ("pm25", "temp", "hum", "press")
        inp, tgt = scalers_for(ds, names)
        model = models.VQRModel(names, inp, tgt, n_qubits=4, n_layers=2, seed=9)
        rng = np.random.default_rng(1)
        for _ in range(20):
            val = vqc.evaluate(model.template, model.params, rng.uniform(-1, 1, 4))[0]
            assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12

    def test_qlstm_zero_params_cell(self):
        """Zero weights: circuits read +1 on every qubit, gates sit at 1/2."""
        ds = tiny_dataset()
        inp, tgt = scalers_for(ds, ("pm25",))
        model = models.QLSTMModel(
            ("pm25",), inp, tgt, n_qubits=3, n_layers=2, hidden_size=4, window=2
        )
        model.set_flat(np.zeros(model.param_count()))
        cell = model._cell()
        window = model._window(np.array([[[0.3], [0.3]]]), cell)
        window.c[0] = 2.0  # c_prev of the first step
        assert model.cell_forward(window, 0, cell) is None  # only the last step reads out
        exps = window.t_v[0, :, :-1] @ cell.circuits.coefficients[:4].swapaxes(-1, -2)
        assert np.allclose(exps, 1.0)
        f, _, g, _ = window.z[0]
        assert np.allclose(f, 0.5)
        assert np.allclose(g, 0.0)
        assert np.allclose(window.c[1], 1.0)  # f * c_prev = 0.5 * 2
        assert np.allclose(window.concat[1, :, :4], 0.0)  # h, the next step's h_prev
        assert model.cell_forward(window, 1, cell)[0] == 0.0

    def test_qlstm_zero_params_predicts_target_midpoint(self):
        ds = tiny_dataset()
        inp, tgt = scalers_for(ds, ("pm25",))
        model = models.QLSTMModel(
            ("pm25",), inp, tgt, n_qubits=2, n_layers=1, hidden_size=3, window=2
        )
        model.set_flat(np.zeros(model.param_count()))
        sub = ds.select_features(("pm25",))
        x, _, _ = make_windows(sub, 2)
        preds = model.predict(x[:5])
        midpoint = float((tgt.minimum[0] + tgt.maximum[0]) / 2.0)
        assert np.allclose(preds, midpoint)

    def test_window_validation(self):
        ds = tiny_dataset()
        inp, tgt = scalers_for(ds, ("pm25",))
        model = models.LSTMModel(("pm25",), inp, tgt, hidden_size=4, n_layers=1, window=3)
        with pytest.raises(ConfigurationError):
            model.predict(np.zeros((2, 2, 1)))
        with pytest.raises(ConfigurationError):
            model.predict(np.zeros((2, 3, 2)))


class TestHybridGradients:
    def test_ffnn_matches_finite_differences(self):
        ds = tiny_dataset(24, seed=2)
        names = ("pm25", "temp")
        inp, tgt = scalers_for(ds, names)
        sub = ds.select_features(names)
        x, y, _ = make_windows(sub, 1)
        model = models.FFNNModel(names, inp, tgt, hidden_sizes=(6, 4), seed=5)
        for loss_kind in ("mse", "l1"):
            _, grad = models.hybrid_backward(model, x[:12], y[:12], loss_kind)
            fd = fd_flat_gradient(model, x[:12], y[:12], loss_kind)
            assert np.all(np.abs(grad - fd) <= 1e-4 * (1.0 + np.abs(fd)))

    def test_ffnn_published_topology_gradient(self):
        ds = tiny_dataset(20, seed=3)
        names = ("pm25", "temp", "hum", "press")
        inp, tgt = scalers_for(ds, names)
        sub = ds.select_features(names)
        x, y, _ = make_windows(sub, 1)
        model = models.FFNNModel(names, inp, tgt, hidden_sizes=(30, 15, 5), seed=7)
        _, grad = models.hybrid_backward(model, x[:8], y[:8], "mse")
        fd = fd_flat_gradient(model, x[:8], y[:8], "mse")
        assert np.all(np.abs(grad - fd) <= 1e-4 * (1.0 + np.abs(fd)))

    def test_lstm_matches_finite_differences(self):
        ds = tiny_dataset(20, seed=4)
        names = ("pm25",)
        inp, tgt = scalers_for(ds, names)
        sub = ds.select_features(names)
        x, y, _ = make_windows(sub, 3)
        model = models.LSTMModel(names, inp, tgt, hidden_size=5, n_layers=2, window=3, seed=8)
        _, grad = models.hybrid_backward(model, x[:6], y[:6], "mse")
        fd = fd_flat_gradient(model, x[:6], y[:6], "mse")
        assert np.all(np.abs(grad - fd) <= 1e-4 * (1.0 + np.abs(fd)))

    def test_vqr_matches_finite_differences(self):
        ds = tiny_dataset(16, seed=5)
        names = ("pm25", "temp", "hum")
        inp, tgt = scalers_for(ds, names)
        sub = ds.select_features(names)
        x, y, _ = make_windows(sub, 1)
        model = models.VQRModel(names, inp, tgt, n_qubits=3, n_layers=2, seed=11)
        for loss_kind in ("mse", "l1"):
            _, grad = models.hybrid_backward(model, x[:10], y[:10], loss_kind)
            fd = fd_flat_gradient(model, x[:10], y[:10], loss_kind)
            assert np.all(np.abs(grad - fd) <= 1e-5 * (1.0 + np.abs(fd)))

    def test_vqr_nonlinear_matches_finite_differences(self):
        ds = tiny_dataset(16, seed=6)
        names = ("pm25", "temp")
        inp, tgt = scalers_for(ds, names)
        sub = ds.select_features(names)
        x, y, _ = make_windows(sub, 1)
        model = models.VQRModel(
            names, inp, tgt, n_qubits=2, n_layers=3, architecture="nonlinear", seed=13
        )
        _, grad = models.hybrid_backward(model, x[:10], y[:10], "mse")
        fd = fd_flat_gradient(model, x[:10], y[:10], "mse")
        assert np.all(np.abs(grad - fd) <= 1e-5 * (1.0 + np.abs(fd)))

    def test_qlstm_matches_finite_differences(self):
        """Desk-size recurrent hybrid: 2 qubits, 1 layer, hidden 2, 2 steps."""
        ds = tiny_dataset(14, seed=7)
        names = ("pm25",)
        inp, tgt = scalers_for(ds, names)
        sub = ds.select_features(names)
        x, y, _ = make_windows(sub, 2)
        model = models.QLSTMModel(
            names, inp, tgt, n_qubits=2, n_layers=1, hidden_size=2, window=2, seed=17
        )
        _, grad = models.hybrid_backward(model, x[:3], y[:3], "mse")
        fd = fd_flat_gradient(model, x[:3], y[:3], "mse", h=1e-5)
        assert np.all(np.abs(grad - fd) <= 1e-3 * (1.0 + np.abs(fd)))

    def test_qlstm_per_gate_matches_finite_differences(self):
        ds = tiny_dataset(14, seed=8)
        names = ("pm25",)
        inp, tgt = scalers_for(ds, names)
        sub = ds.select_features(names)
        x, y, _ = make_windows(sub, 2)
        model = models.QLSTMModel(
            names, inp, tgt, n_qubits=2, n_layers=1, hidden_size=2, window=2,
            shared_fc_out=False, seed=19,
        )
        _, grad = models.hybrid_backward(model, x[:3], y[:3], "l1")
        fd = fd_flat_gradient(model, x[:3], y[:3], "l1", h=1e-5)
        assert np.all(np.abs(grad - fd) <= 1e-3 * (1.0 + np.abs(fd)))

    @pytest.mark.parametrize("shared", [True, False])
    def test_qlstm_batch_matches_per_window(self, shared):
        """The batched cell, stacked circuits and BPTT agree with running
        each window alone: predictions, and gradients summed over windows."""
        ds = tiny_dataset(24, seed=23)
        names = ("pm25", "temp")
        inp, tgt = scalers_for(ds, names)
        x, y, _ = make_windows(ds.select_features(names), 3)
        x, y = x[:7], y[:7]
        model = models.QLSTMModel(
            names, inp, tgt, n_qubits=3, n_layers=2, hidden_size=4, window=3,
            shared_fc_out=shared, seed=29,
        )
        preds = model.predict(x)
        single = np.concatenate([model.predict(x[b : b + 1]) for b in range(len(y))])
        np.testing.assert_allclose(preds, single, rtol=0.0, atol=1e-12)
        for loss_kind in ("mse", "l1"):
            # both losses average over the batch, so the batch gradient is
            # the mean of the per-window ones
            _, grad = models.hybrid_backward(model, x, y, loss_kind)
            per_window = sum(
                models.hybrid_backward(model, x[b : b + 1], y[b : b + 1], loss_kind)[1]
                for b in range(len(y))
            )
            np.testing.assert_allclose(
                grad * len(y), per_window, rtol=0.0, atol=1e-12
            )

    def test_loss_units_match_prediction_error(self):
        ds = tiny_dataset(12, seed=9)
        names = ("pm25", "temp")
        inp, tgt = scalers_for(ds, names)
        sub = ds.select_features(names)
        x, y, _ = make_windows(sub, 1)
        model = models.FFNNModel(names, inp, tgt, hidden_sizes=(4,), seed=21)
        loss, _ = models.hybrid_backward(model, x, y, "l1")
        direct = float(np.mean(np.abs(model.predict(x) - y)))
        assert abs(loss - direct) < 1e-9


def default_model(kind, seed, windows=10, **options):
    """A model of the kind's default options and window, scaled on a tiny
    dataset, with a batch of ``windows`` of its scaled windows."""
    names = models.default_options(kind)["features"]
    window = models.default_config(kind).window
    ds = tiny_dataset(windows + window, seed=seed)
    inp, tgt = scalers_for(ds, names)
    model = models.build_model(kind, names, inp, tgt, options=options, window=window, seed=seed)
    x, _, _ = make_windows(ds.select_features(names), window)
    return model, model.scale_windows(x[:windows])


class TestDirectionalGradients:
    """Every kind at its default options: the gradient along random unit
    directions against central differences of the batch loss.  This pins
    the paths the models train through, the circuit sweeps included
    (CNOT reach up to 3 on vqr's 4 qubits, the ring wrap on qlstm's 5),
    and the class of the circuits a step differentiates: the linear vqr
    trains through its ansatz matrix at 10 and at 32 windows, more than
    2**4, the nonlinear vqr through the plan and the qlstm through phase
    polynomials."""

    @pytest.mark.parametrize(
        "kind,options,windows",
        [
            ("ffnn", {}, 10),
            ("lstm", {}, 10),
            ("vqr", {}, 10),
            ("vqr", {}, 32),
            ("vqr", {"architecture": "nonlinear"}, 10),
            ("qlstm", {}, 10),
            ("qlstm", {"shared_fc_out": False}, 10),
        ],
        ids=[
            "ffnn",
            "lstm",
            "vqr-linear",
            "vqr-linear-32-windows",
            "vqr-nonlinear",
            "qlstm-shared",
            "qlstm-per-gate",
        ],
    )
    @pytest.mark.parametrize("loss_kind", ["mse", "l1"])
    def test_matches_central_differences(self, monkeypatch, kind, options, windows, loss_kind):
        model, xs = default_model(kind, seed=41, windows=windows, **options)
        theta = model.get_flat().copy()
        # targets 0.3 below every prediction keep l1 away from its kink, and
        # residuals of one sign keep the batch gradient from cancelling
        ys = model._predictor(len(xs))(xs) - 0.3
        classes = []
        for cls in (vqc.PhaseCircuits, vqc.MatrixCircuits, vqc.PlanCircuits):
            monkeypatch.setattr(cls, "param_grads", recording(cls.param_grads, classes))
        _, grad = scaled_step(model, xs, ys, loss_kind)
        linear = options.get("architecture", "linear") == "linear"
        want = {
            "vqr": {vqc.MatrixCircuits if linear else vqc.PlanCircuits},
            "qlstm": {vqc.PhaseCircuits},
        }
        assert set(classes) == want.get(kind, set())
        _, again = scaled_step(model, xs, ys, loss_kind)
        np.testing.assert_array_equal(again, grad)
        assert_fresh(model, grad, again)

        def loss_at(flat):
            model.set_flat(flat)
            return nn.loss_value(loss_kind, model._predictor(len(xs))(xs), ys)

        rng = np.random.default_rng(43)
        h = 1e-5
        for _ in range(3):
            direction = rng.normal(size=theta.size)
            direction /= np.linalg.norm(direction)
            central = (loss_at(theta + h * direction) - loss_at(theta - h * direction)) / (2 * h)
            along = float(grad @ direction)
            assert abs(central - along) <= 1e-6 * abs(along)
        model.set_flat(theta)


class TestVQRStepPin:
    """A default linear vqr step on 10 and on 32 windows, its targets 0.3
    below every prediction as in ``TestDirectionalGradients``: it goes
    through ``MatrixCircuits.param_grads`` once, and its loss and flat
    gradient match ``checkpoints/vqr_steps.json``, recorded at commit
    1e313e0, when the step still made the input gradient, to 1e-12."""

    @pytest.mark.parametrize("windows", [10, 32])
    @pytest.mark.parametrize("loss_kind", ["mse", "l1"])
    def test_matches_recorded_step(self, monkeypatch, windows, loss_kind):
        recorded = json.loads((CHECKPOINTS / "vqr_steps.json").read_text())
        want = recorded[f"{windows}-{loss_kind}"]
        model, xs = default_model("vqr", seed=41, windows=windows)
        ys = model._predictor(len(xs))(xs) - 0.3
        classes = []
        for cls in (vqc.MatrixCircuits, vqc.PlanCircuits):
            monkeypatch.setattr(cls, "param_grads", recording(cls.param_grads, classes))
        value, grad = scaled_step(model, xs, ys, loss_kind)
        assert classes == [vqc.MatrixCircuits]
        np.testing.assert_allclose(value, want["loss"], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(grad, want["grad"], rtol=0.0, atol=1e-12)


def recording(param_grads, classes):
    """``param_grads`` of a circuits class, appending to ``classes`` the
    class of every instance it runs for."""

    def recorded(circuits, *args):
        classes.append(type(circuits))
        return param_grads(circuits, *args)

    return recorded


def scaled_step(model, xs, ys, loss_kind):
    """One training step's scaled loss and flat gradient on scaled windows
    and targets."""
    return model._loss_and_grad_scaled(xs, partial(batch_loss, nn, loss_kind, ys))


def assert_fresh(model, first, second):
    """Two gradients of consecutive steps share no buffer with each other
    or with the parameters, so that comparing them compares two arrays."""
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, model.flat)
    assert not np.shares_memory(second, model.flat)


class TestQLSTMShiftOracle:
    """The folded QLSTM step against :func:`_oracles.qlstm_shift_grad`,
    the cell before the fold, its circuits run through the fused plan and
    differentiated by parameter shift, one circuit at a time."""

    @pytest.mark.parametrize("shared", [True, False])
    def test_bptt_with_parameter_shift_circuits(self, shared):
        """The paper-config QLSTM gradient agrees to 1e-10.  Four windows
        of 5 steps are 20 rows; ring-RX circuits run as phase polynomials
        at any row count."""
        model, xs = default_model("qlstm", seed=47, shared_fc_out=shared)
        xs = xs[:4]
        ys = np.linspace(-0.5, 0.5, xs.shape[0])
        _, adjoint = scaled_step(model, xs, ys, "mse")
        shifted = qlstm_shift_grad(model, vqc, xs, ys)
        assert_fresh(model, adjoint, shifted)
        np.testing.assert_allclose(adjoint, shifted, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("shared", [True, False])
    def test_bptt_through_phase_polynomials(self, shared):
        """As above on ten windows, 50 rows per circuit, more than 2**5: the
        forward pass runs the six circuits as phase polynomials, and the
        parameter gradient is folded from the phase gradients summed over
        every step, once per stack."""
        model, xs = default_model("qlstm", seed=47, shared_fc_out=shared)
        ys = np.linspace(-0.5, 0.5, xs.shape[0])
        _, adjoint = scaled_step(model, xs, ys, "mse")
        shifted = qlstm_shift_grad(model, vqc, xs, ys)
        assert_fresh(model, adjoint, shifted)
        np.testing.assert_allclose(adjoint, shifted, rtol=0.0, atol=1e-10)


@st.composite
def loss_stacks(draw):
    """K lanes of mixed loss kinds over padded predictions [K, W] (or [W]
    for one lane, as a one-model stack binds them) and targets [K, W]: lane
    k counts its first counts[k] rows, and the rows past them hold values
    the loss must ignore.  ``ragged`` draws counts up to W, else every
    count is W, as in every step but an epoch's last."""
    k = draw(st.integers(1, 6))
    width = draw(st.integers(1, 12))
    ragged = draw(st.booleans())
    counts = [draw(st.integers(1, width)) if ragged else width for _ in range(k)]
    kinds = [draw(st.sampled_from(nn.LOSS_KINDS)) for _ in range(k)]
    values = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    preds = np.array(draw(st.lists(values, min_size=k * width, max_size=k * width)))
    targets = np.array(draw(st.lists(values, min_size=k * width, max_size=k * width)))
    preds = preds.reshape(k, width)[0] if k == 1 else preds.reshape(k, width)
    return kinds, counts, targets.reshape(k, width), preds


class TestStackLoss:
    """``models._LaneLosses``, every lane's loss and gradient in one pass,
    against each lane's own ``nn.loss_value`` and ``nn.loss_grad``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(loss_stacks())
    def test_matches_per_lane_losses(self, case):
        kinds, counts, targets, preds = case
        values, d_preds = models._LaneLosses(kinds, counts, targets.shape[-1])(targets, preds)
        assert values.shape == (len(kinds),) and d_preds.shape == preds.shape
        by_lane = d_preds.reshape(len(kinds), -1)
        width = by_lane.shape[1]
        equal = all(n == width for n in counts)
        lanes = zip(kinds, counts, targets, preds.reshape(len(kinds), -1))
        for k, (kind, n, y, p) in enumerate(lanes):
            want_value, want_grad = batch_loss(nn, kind, y[:n], p[:n])
            # every count W: the bits of the per-lane calls; a lane with
            # padding sums its zeros too, which may regroup the sum
            if equal:
                assert values[k] == want_value
            else:
                assert abs(values[k] - want_value) <= 1e-15 * abs(want_value)
            np.testing.assert_array_equal(by_lane[k, :n], want_grad)
            assert np.all(by_lane[k, n:] == 0.0)

    @pytest.mark.parametrize(
        "rows,kind,message",
        [(4, "huber", "unknown loss kind"), (0, "l1", "empty batch")],
        ids=["unknown-kind", "empty-batch"],
    )
    def test_hybrid_backward_rejects_bad_batches(self, rows, kind, message):
        """hybrid_backward scores its batch as a one-lane stack, and refuses
        what ``nn.loss_value`` refuses."""
        model, _ = default_model("ffnn", seed=3, windows=4)
        with pytest.raises(ConfigurationError, match=message):
            models.hybrid_backward(model, np.zeros((rows, 1, 4)), np.zeros(rows), kind)


def mse_of(model, xs, ys):
    """A model's mean squared error on scaled windows and targets, through
    its predict path."""
    return nn.loss_value("mse", model._predictor(len(xs))(xs), ys)


class TestFoldedQLSTMStep:
    """The QLSTM step with its fc_out maps folded into the circuit
    coefficients against central differences: every parameter array (fc_in,
    projection, each fc_out entry's weights and bias, readout and the six
    circuits' angles) of one model and of each model of a 3-model stack."""

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-gate"])
    @pytest.mark.parametrize("stacked", [1, 3], ids=["one-model", "3-model-stack"])
    def test_matches_central_differences(self, shared, stacked):
        ds = tiny_dataset(30, seed=61)
        names = ("pm25", "temp")
        inp, tgt = scalers_for(ds, names)
        x, _, _ = make_windows(ds.select_features(names), 3)
        lanes = []
        for k in range(stacked):
            model = models.QLSTMModel(
                names, inp, tgt, n_qubits=3, n_layers=2, hidden_size=4, window=3,
                shared_fc_out=shared, seed=70 + k,
            )
            xs = model.scale_windows(x[4 * k : 4 * k + 6])
            lanes.append((model, xs, np.linspace(-0.4, 0.6, len(xs)) - 0.1 * k))
        lane_models, xs, ys = zip(*lanes)
        stack = lane_models[0]._stacked(np.stack([m.flat for m in lane_models]))
        loss = partial(models._LaneLosses(["mse"] * stacked, [len(y) for y in ys], 6), np.stack(ys))
        _, grad = stack._loss_and_grad_scaled(np.concatenate(xs), loss)
        for model, lane_xs, lane_ys, row in zip(lane_models, xs, ys, grad.reshape(stacked, -1)):
            theta = model.get_flat().copy()

            def objective(vector):
                model.set_flat(vector)
                return mse_of(model, lane_xs, lane_ys)

            fd = central_difference(objective, theta)
            model.set_flat(theta)
            starts = np.cumsum([0] + [a.size for _, a in model.param_arrays()])
            for (name, _), lo, hi in zip(model.param_arrays(), starts, starts[1:]):
                np.testing.assert_allclose(row[lo:hi], fd[lo:hi], rtol=0.0, atol=1e-8, err_msg=name)


class TestQLSTMLastStepReadout:
    """``sequence_forward`` runs circuit 6 and the readout at a window's
    last step only, and circuit 5 at every other step: its predictions, in
    training and through a predict's forward-only stack, and the training
    step's loss and gradient have the bits of
    ``_oracles.qlstm_every_step_forward``, which runs circuits 5 and 6 and
    the readout at every step through the same folded maps, for one model
    and for a 3-model stack."""

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-gate"])
    @pytest.mark.parametrize("stacked", [1, 3], ids=["one-model", "3-model-stack"])
    def test_matches_every_step_readout(self, shared, stacked):
        ds = tiny_dataset(30, seed=62)
        names = ("pm25", "temp")
        inp, tgt = scalers_for(ds, names)
        x, _, _ = make_windows(ds.select_features(names), 3)
        lane_models = [
            models.QLSTMModel(
                names, inp, tgt, n_qubits=3, n_layers=2, hidden_size=4, window=3,
                shared_fc_out=shared, seed=80 + k,
            )
            for k in range(stacked)
        ]
        xs = np.concatenate(
            [m.scale_windows(x[4 * k : 4 * k + 6]) for k, m in enumerate(lane_models)]
        )
        ys = np.linspace(-0.5, 0.5, 6 * stacked).reshape(stacked, 6)
        stack = lane_models[0]._stacked(np.stack([m.flat for m in lane_models]))
        loss = partial(models._LaneLosses(["mse"] * stacked, [6] * stacked, 6), ys)
        value, grad = stack._loss_and_grad_scaled(xs, loss)
        grad = grad.copy()  # a stack's gradient buffer is reused by the next step

        windows, cell = stack._by_model(xs), stack._cell()
        want_preds, window = qlstm_every_step_forward(stack, nn, vqc, windows, cell)
        want_value, d_preds = loss(want_preds)
        np.testing.assert_array_equal(value, want_value)
        np.testing.assert_array_equal(grad, stack._backward(cell, window, d_preds))
        got = stack.sequence_forward(windows, stack._cell())[0]
        np.testing.assert_array_equal(got, want_preds)


@st.composite
def qlstm_stacks(draw):
    """A stack of K in {1, 3} QLSTMs of one drawn layout, with scaled
    windows [K * B, T, features] and targets [K, B]: B 1-12, T 1-6, hidden
    size 1-6, 2-6 qubits, 1-3 layers, 1-4 features, shared or per-gate
    fc_out maps."""
    k = draw(st.sampled_from([1, 3]))
    batch, steps = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    names = ("pm25", "temp", "hum", "press")[: draw(st.integers(1, 4))]
    options = {
        "n_qubits": draw(st.integers(2, 6)),
        "n_layers": draw(st.integers(1, 3)),
        "hidden_size": draw(st.integers(1, 6)),
        "shared_fc_out": draw(st.booleans()),
    }
    seed = draw(st.integers(0, 2**16))
    inp, tgt = scalers_for(tiny_dataset(), names)
    lanes = [
        models.QLSTMModel(names, inp, tgt, window=steps, seed=seed + j, **options)
        for j in range(k)
    ]
    stack = lanes[0]._stacked(np.stack([m.flat for m in lanes]))
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, (k * batch, steps, len(names)))
    ys = rng.uniform(-1.0, 1.0, (k, batch))
    return stack, xs, ys


class TestFoldedInputMaps:
    """The qlstm step with its fc_in and projection maps folded into the
    circuits' frequencies and its weight gradients taken once per window,
    against ``_oracles.qlstm_per_step``, the cell before either change."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(qlstm_stacks())
    def test_matches_per_step_cell(self, case):
        stack, xs, ys = case
        k, batch = ys.shape
        loss = partial(models._LaneLosses(["mse"] * k, [batch] * k, batch), ys)
        windows = stack._by_model(xs)
        want_preds, want_grad = qlstm_per_step(stack, nn, vqc, windows, loss)
        got_preds, window = stack.sequence_forward(windows, stack._cell())
        np.testing.assert_allclose(got_preds, want_preds, rtol=0.0, atol=1e-12)
        predicted = stack._predict_scaled(windows, stack._cell())
        np.testing.assert_allclose(predicted, want_preds, rtol=0.0, atol=1e-12)
        _, grad = stack._loss_and_grad_scaled(xs, loss)
        np.testing.assert_allclose(grad, want_grad, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n_qubits", range(2, 9))
    def test_ring_rx_frequencies_read_no_arctan(self, n_qubits):
        """The fold's precondition: every ring-RX template a qlstm builds
        has the identity transform, so the arctan rows of its frequency
        table are exactly zero, and the model keeps the other rows twice,
        [Omega, Omega]."""
        inp, tgt = scalers_for(tiny_dataset(), ("pm25",))
        for n_layers in range(1, 8):
            model = models.QLSTMModel(
                ("pm25",), inp, tgt, n_qubits=n_qubits, n_layers=n_layers, hidden_size=2, window=2
            )
            frequencies = vqc._frequencies(model.template).inputs
            assert frequencies.shape[0] == 2 * n_qubits
            assert np.all(frequencies[n_qubits:] == 0.0)
            omega = frequencies[:n_qubits]
            np.testing.assert_array_equal(model.input_frequencies, np.tile(omega, 2))


class TestPhaseParts:
    """The phase oracle's run, its features times the coefficients, and
    the features' input gradient that the per-step qlstm oracle takes."""

    def test_feature_grads_match_central_differences(self):
        rng = np.random.default_rng(67)
        template = vqc.ring_rx_template(3, 2, transform="arctan")
        omega = vqc._frequencies(template).inputs
        inputs = rng.uniform(-1.5, 1.5, (2, 5, 3))
        upstream = rng.normal(size=phase_features(omega, inputs).shape)

        def objective(flat):
            return float(np.sum(upstream * phase_features(omega, flat.reshape(inputs.shape))))

        t = phase_features(omega, inputs)
        got = phase_feature_grads(omega, t, upstream, inputs)
        fd = central_difference(objective, inputs.ravel())
        np.testing.assert_allclose(got.ravel(), fd, rtol=0.0, atol=1e-8)

    def test_run_is_features_times_coefficients(self):
        """The oracle's <Z> is the package's Fourier features
        (``vqc.fourier_features``) of the inputs' frequency angles times the
        coefficients, bit for bit; the features are its record."""
        rng = np.random.default_rng(68)
        template = vqc.ring_rx_template(3, 2)
        params = rng.uniform(0, 2 * np.pi, (4, template.total_params))
        inputs = rng.uniform(-1, 1, (5, 3))
        circuits = vqc.PhaseCircuits(template, params)
        exps, record = phase_run(circuits, inputs)
        source = np.concatenate([inputs, np.arctan(inputs)], axis=-1)
        t = vqc.fourier_features(source @ vqc._frequencies(template).inputs)
        np.testing.assert_array_equal(record, t)
        np.testing.assert_array_equal(exps, t[None] @ circuits.coefficients.swapaxes(-1, -2))


class TestTraining:
    def test_ffnn_descends(self):
        ds = tiny_dataset(40, seed=10)
        cfg = TrainConfig(25, 0.01, "sgd", "l1", batch_size=8, window=1, seed=1)
        model, history = models.fit_model(
            "ffnn", ds, cfg, options={"hidden_sizes": (8,), "features": ("pm25", "temp")}
        )
        assert len(history) == 25
        assert history[-1] < history[0]

    def test_vqr_descends(self):
        ds = tiny_dataset(30, seed=11)
        cfg = TrainConfig(10, 0.1, "adam", "mse", batch_size=10, window=1, seed=2)
        model, history = models.fit_model(
            "vqr", ds, cfg,
            options={"n_qubits": 2, "n_layers": 1, "features": ("pm25", "temp")},
        )
        assert history[-1] < history[0]

    def test_lstm_descends(self):
        ds = tiny_dataset(30, seed=12)
        cfg = TrainConfig(15, 0.01, "rmsprop", "l1", batch_size=8, window=2, seed=3)
        model, history = models.fit_model(
            "lstm", ds, cfg,
            options={"hidden_size": 4, "n_layers": 1, "features": ("pm25",)},
        )
        assert history[-1] < history[0]

    def test_qlstm_descends(self):
        ds = tiny_dataset(26, seed=13)
        cfg = TrainConfig(4, 0.1, "adam", "l1", batch_size=8, window=2, seed=4)
        model, history = models.fit_model(
            "qlstm", ds, cfg,
            options={"n_qubits": 2, "n_layers": 1, "hidden_size": 3, "features": ("pm25",)},
        )
        assert history[-1] < history[0]

    def test_training_is_deterministic(self):
        ds = tiny_dataset(30, seed=14)
        cfg = TrainConfig(6, 0.05, "adam", "mse", batch_size=8, window=1, seed=5)
        opts = {"hidden_sizes": (6,), "features": ("pm25", "hum")}
        m1, h1 = models.fit_model("ffnn", ds, cfg, options=opts)
        m2, h2 = models.fit_model("ffnn", ds, cfg, options=opts)
        assert h1 == h2
        assert np.array_equal(m1.get_flat(), m2.get_flat())

    def test_zero_epochs_leaves_params(self):
        ds = tiny_dataset(20, seed=15)
        names = ("pm25",)
        inp, tgt = scalers_for(ds, names)
        sub = ds.select_features(names)
        x, y, _ = make_windows(sub, 1)
        model = models.FFNNModel(names, inp, tgt, hidden_sizes=(4,), seed=6)
        before = model.get_flat().copy()
        _, history = models.train(
            model, x, y, TrainConfig(0, 0.1, "sgd", "l1", window=1)
        )
        assert history == []
        assert np.array_equal(model.get_flat(), before)

    def test_divergence_raises_with_epoch(self):
        ds = tiny_dataset(24, seed=16)
        names = ("pm25", "temp")
        inp, tgt = scalers_for(ds, names)
        sub = ds.select_features(names)
        x, y, _ = make_windows(sub, 1)
        model = models.FFNNModel(names, inp, tgt, hidden_sizes=(6,), seed=7)
        with pytest.raises(TrainingDivergedError) as err, np.errstate(all="ignore"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                models.train(
                    model, x, y,
                    TrainConfig(60, 1e15, "sgd", "mse", batch_size=6, window=1, seed=8),
                )
        assert 0 <= err.value.epoch < 60

    def test_empty_training_set(self):
        ds = tiny_dataset(20, seed=17)
        names = ("pm25",)
        inp, tgt = scalers_for(ds, names)
        model = models.FFNNModel(names, inp, tgt, hidden_sizes=(3,))
        with pytest.raises(ConfigurationError):
            models.train(
                model, np.zeros((0, 1, 1)), np.zeros(0),
                TrainConfig(1, 0.1, window=1),
            )

    def test_fit_model_rejects_windows_for_pointwise_kinds(self):
        ds = tiny_dataset(20, seed=18)
        cfg = TrainConfig(1, 0.1, window=3)
        with pytest.raises(ConfigurationError):
            models.fit_model("ffnn", ds, cfg)

    def test_fit_model_rejects_oversized_window(self):
        ds = tiny_dataset(4, seed=19)
        cfg = TrainConfig(1, 0.1, "rmsprop", "l1", window=10)
        with pytest.raises(ConfigurationError), pytest.warns(UserWarning):
            models.fit_model("lstm", ds, cfg, options={"features": ("pm25",)})


def crafted_gradient(monkeypatch, at_step: int, lane: int, edit) -> list:
    """Have the ffnn training step ``at_step`` of every lockstep stack hand
    back its gradient with the row of lane ``lane`` changed by ``edit``;
    returns the list of each step's lane count."""
    original = models.FFNNModel._loss_and_grad_scaled
    steps = []

    def crafted(self, x, loss):
        values, grad = original(self, x, loss)
        if len(steps) == at_step:
            edit(grad.reshape(len(values), -1)[lane])
        steps.append(len(values))
        return values, grad

    monkeypatch.setattr(models.FFNNModel, "_loss_and_grad_scaled", crafted)
    return steps


class TestLockstepFiniteness:
    """``train_lockstep`` checks a step's losses and gradients with one
    sum; a sum that is not finite falls back to per-lane masks.  Three ffnn
    lanes of 3 epochs, 4 steps each, one lane's gradient crafted at one
    step."""

    EPOCHS, ROWS, BATCH = 3, 24, 6

    def lanes(self):
        ds = tiny_dataset(self.ROWS, seed=23)
        names = ("pm25", "temp")
        inp, tgt = scalers_for(ds, names)
        x, y, _ = make_windows(ds.select_features(names), 1)
        configs = [
            TrainConfig(self.EPOCHS, 0.05, "sgd", "l1", self.BATCH, 1, seed) for seed in (1, 2, 3)
        ]
        built = [models.FFNNModel(names, inp, tgt, hidden_sizes=(6,), seed=c.seed) for c in configs]
        return built, x, y, configs

    def alone(self, k):
        """Lane k's model trained by itself, unedited."""
        built, x, y, configs = self.lanes()
        return models.train(built[k], x, y, configs[k])

    def test_overflowing_sum_of_finite_values_keeps_every_lane(self, monkeypatch):
        big = 0.75 * np.finfo(float).max

        def edit(row):
            row[:2] = big  # two finite entries whose sum is not
            with np.errstate(over="ignore"):
                assert not math.isfinite(row.sum())

        steps = crafted_gradient(monkeypatch, 5, 0, edit)
        built, x, y, configs = self.lanes()
        with np.errstate(over="ignore"):
            outcomes = models.train_lockstep(built, [x] * 3, [y] * 3, configs)
        assert steps == [3] * (self.EPOCHS * self.ROWS // self.BATCH)
        assert all(isinstance(o, list) and len(o) == self.EPOCHS for o in outcomes)
        assert np.all(np.isfinite(outcomes[0]))
        monkeypatch.undo()
        for k in (1, 2):
            model, history = self.alone(k)
            np.testing.assert_allclose(outcomes[k], history, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(built[k].flat, model.flat, rtol=0.0, atol=1e-12)

    def test_nan_gradient_removes_only_its_lane(self, monkeypatch):
        def edit(row):
            row[0] = np.nan

        steps = crafted_gradient(monkeypatch, 5, 1, edit)
        built, x, y, configs = self.lanes()
        outcomes = models.train_lockstep(built, [x] * 3, [y] * 3, configs)
        assert steps == [3] * 6 + [2] * 6  # the lane leaves at step 5, unstepped
        assert isinstance(outcomes[1], TrainingDivergedError)
        assert outcomes[1].epoch == 5 // (self.ROWS // self.BATCH)
        monkeypatch.undo()
        for k in (0, 2):
            model, history = self.alone(k)
            np.testing.assert_allclose(outcomes[k], history, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(built[k].flat, model.flat, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("epochs,batch", [(1, 24), (2, 6)], ids=["one-step", "last-step"])
    def test_nan_on_the_last_step_ends_the_fit(self, monkeypatch, epochs, batch):
        """Every live lane diverging on the step after which the next would
        leave empties the stack there: a one-model fit whose last step, its
        only one or the last of two epochs, gets a NaN gradient raises the
        epoch it diverged in."""
        def edit(row):
            row[0] = np.nan

        last = epochs * self.ROWS // batch - 1
        steps = crafted_gradient(monkeypatch, last, 0, edit)
        built, x, y, configs = self.lanes()
        config = dataclasses.replace(configs[0], epochs=epochs, batch_size=batch)
        with pytest.raises(TrainingDivergedError) as err:
            models.train(built[0], x, y, config)
        assert steps == [1] * (last + 1)
        assert err.value.epoch == epochs - 1


class TestEvaluationAndPredictions:
    def test_perfect_predictions_zero_losses(self):
        ds = tiny_dataset(20, seed=20)
        names = ("pm25",)
        inp, tgt = scalers_for(ds, names)

        class Oracle(models._ModelBase):
            kind = "oracle"

            def __init__(self):
                self.feature_names = names
                self.window = 1
                self.input_scaler = inp
                self.target_scaler = tgt

            def _predict_scaled(self, xs):
                return xs[:, 0, 0]

        sub = ds.select_features(names)
        x = sub.target[:, None, None]  # feed the target through identity scaling
        oracle = Oracle()
        oracle.input_scaler = tgt
        losses = models.evaluate_losses(oracle, x, sub.target)
        assert losses["l1"] < 1e-12
        assert losses["mse"] < 1e-24
        assert losses["rmse"] < 1e-12

    def test_rmse_is_sqrt_mse(self):
        ds = tiny_dataset(20, seed=21)
        cfg = TrainConfig(3, 0.05, "adam", "mse", window=1, seed=9)
        model, _ = models.fit_model(
            "ffnn", ds, cfg, options={"hidden_sizes": (4,), "features": ("pm25",)}
        )
        sub = ds.select_features(("pm25",))
        x, y, _ = make_windows(sub, 1)
        losses = models.evaluate_losses(model, x, y)
        assert abs(losses["rmse"] - math.sqrt(losses["mse"])) < 1e-12

    def test_predictions_rows_align(self):
        ds = tiny_dataset(12, seed=22)
        cfg = TrainConfig(2, 0.05, "rmsprop", "l1", window=3, seed=10)
        model, _ = models.fit_model(
            "lstm", ds, cfg,
            options={"hidden_size": 3, "n_layers": 1, "features": ("pm25",)},
        )
        rows = models.predictions_rows(model, ds)
        assert len(rows) == 10  # 12 hours, window 3
        assert rows[0]["timestamp"] == int(ds.timestamps[2])
        pm_col = list(ds.feature_names).index("pm25")
        assert rows[0]["raw_pm25"] == pytest.approx(float(ds.features[2, pm_col]))
        assert rows[0]["reference_pm25"] == pytest.approx(float(ds.target[2]))
        preds = model.predict(make_windows(ds.select_features(("pm25",)), 3)[0])
        assert rows[0]["calibrated_pm25"] == pytest.approx(float(preds[0]))


class TestPredictBlocks:
    @pytest.mark.parametrize(
        "kind,options,window",
        [
            ("ffnn", {"hidden_sizes": (5, 3), "features": ("pm25", "temp")}, 1),
            ("lstm", {"hidden_size": 3, "n_layers": 2, "features": ("pm25",)}, 3),
            ("vqr", {"n_qubits": 2, "n_layers": 2, "features": ("pm25", "temp")}, 1),
            (
                "qlstm",
                {"n_qubits": 2, "n_layers": 1, "hidden_size": 3, "features": ("pm25",)},
                2,
            ),
        ],
    )
    def test_blocks_match_row_by_row(self, kind, options, window):
        """predict runs PREDICT_ROWS windows per pass; the rows on both
        sides of a block boundary predict as they do alone."""
        names = tuple(options["features"])
        inp, tgt = scalers_for(tiny_dataset(24, seed=41), names)
        model = models.build_model(kind, names, inp, tgt, options=options, window=window, seed=43)
        rng = np.random.default_rng(47)
        x = rng.uniform(0.0, 30.0, (models.PREDICT_ROWS + 3, window, len(names)))
        preds = model.predict(x)
        single = np.concatenate([model.predict(row[None]) for row in x])
        assert preds.shape == (models.PREDICT_ROWS + 3,)
        np.testing.assert_allclose(preds, single, rtol=1e-12, atol=0.0)
        empty = model.predict(np.zeros((0, window, len(names))))
        assert empty.shape == (0,)

    @staticmethod
    def default_lstm(seed):
        names = models.default_options("lstm")["features"]
        inp, tgt = scalers_for(tiny_dataset(24, seed=41), names)
        window = models.default_config("lstm").window
        return models.build_model("lstm", names, inp, tgt, window=window, seed=seed)

    def test_lstm_workspace_blocks(self):
        """An lstm predict writes every block, two full ones and a ragged
        third, into one workspace: each row predicts as it does alone, and a
        second predict repeats the first bit for bit."""
        model = self.default_lstm(seed=53)
        rows = 2 * models.PREDICT_ROWS + 566
        x = np.random.default_rng(59).uniform(0.0, 30.0, (rows, model.window, 1))
        preds = model.predict(x)
        single = np.concatenate([model.predict(row[None]) for row in x])
        np.testing.assert_allclose(preds, single, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(model.predict(x), preds)

    @pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 2051])
    def test_vqr_workspace_blocks(self, rows):
        """A linear vqr predict writes every block's product states and
        their products with A_0 into one workspace: the predictions match
        the plan's <Z_0> at 1e-12, a second predict repeats the first bit
        for bit, and a ragged last block, run after its workspace was
        filled with NaN, reads only the rows it wrote and predicts the bits
        of a predict of its rows alone."""
        names = models.default_options("vqr")["features"]
        inp, tgt = scalers_for(tiny_dataset(24, seed=41), names)
        model = models.build_model("vqr", names, inp, tgt, seed=71)
        x = np.random.default_rng(rows).uniform(0.0, 30.0, (rows, 1, len(names)))
        preds = model.predict(x)
        angles = vqc._angle_table(model.template, model.flat, model.scale_windows(x)[:, 0])
        want = invert_scaler(tgt, vqc._run_rows(model.template, angles)[0][:, 0])
        np.testing.assert_allclose(preds, want, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(model.predict(x), preds)
        last = (rows - 1) // models.PREDICT_ROWS * models.PREDICT_ROWS
        if 0 < rows - last < models.PREDICT_ROWS and last:
            predict_block = model._predictor(rows)
            x_scaled = model.scale_windows(x)
            for start in range(0, last, models.PREDICT_ROWS):
                predict_block(x_scaled[start : start + models.PREDICT_ROWS])
            for array in predict_block.keywords["workspace"]:
                array.fill(np.nan)
            ragged = invert_scaler(tgt, predict_block(x_scaled[last:]))
            np.testing.assert_array_equal(ragged, preds[last:])
            np.testing.assert_array_equal(ragged, model.predict(x[last:]))

    def test_lstm_predicts_of_different_lengths(self):
        """Two predicts of different lengths on one model each equal a
        predict on a fresh model: nothing of one workspace leaks into the
        next."""
        model = self.default_lstm(seed=61)
        rng = np.random.default_rng(67)
        for rows in (models.PREDICT_ROWS + 5, 7):
            x = rng.uniform(0.0, 30.0, (rows, model.window, 1))
            np.testing.assert_array_equal(model.predict(x), self.default_lstm(seed=61).predict(x))


class TestCheckpoints:
    @pytest.mark.parametrize(
        "kind,options,window",
        [
            ("ffnn", {"hidden_sizes": (5, 3), "features": ("pm25", "temp")}, 1),
            ("vqr", {"n_qubits": 2, "n_layers": 2, "features": ("pm25", "temp")}, 1),
            ("lstm", {"hidden_size": 3, "n_layers": 2, "features": ("pm25",)}, 3),
            (
                "qlstm",
                {"n_qubits": 2, "n_layers": 1, "hidden_size": 3, "features": ("pm25",)},
                2,
            ),
            (
                "qlstm",
                {
                    "n_qubits": 2,
                    "n_layers": 1,
                    "hidden_size": 2,
                    "shared_fc_out": False,
                    "features": ("pm25",),
                },
                2,
            ),
        ],
    )
    def test_round_trip(self, tmp_path, kind, options, window):
        ds = tiny_dataset(24, seed=23)
        names = tuple(options["features"])
        inp, tgt = scalers_for(ds, names)
        model = models.build_model(
            kind, names, inp, tgt, options=options, window=window, seed=31
        )
        path = tmp_path / f"{kind}.json"
        models.save_model(model, path)
        loaded = models.load_model(path)
        assert loaded.kind == kind
        assert loaded.window == window
        assert loaded.feature_names == names
        assert np.array_equal(loaded.get_flat(), model.get_flat())
        sub = ds.select_features(names)
        x, _, _ = make_windows(sub, window)
        assert np.array_equal(loaded.predict(x[:4]), model.predict(x[:4]))

    def test_rejects_unknown_array(self, tmp_path):
        ds = tiny_dataset(20, seed=24)
        names = ("pm25", "temp")
        inp, tgt = scalers_for(ds, names)
        model = models.FFNNModel(names, inp, tgt, hidden_sizes=(3,))
        path = tmp_path / "model.json"
        models.save_model(model, path)
        import json

        payload = json.loads(path.read_text())
        payload["arrays"]["mystery.weights"] = {"shape": [1], "values": [0.0]}
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="mystery.weights"):
            models.load_model(path)

    @pytest.mark.parametrize(
        "kind,forged",
        [
            ("vqr", {"n_layers": 1_000_000_000}),
            ("ffnn", {"hidden_sizes": [100_000]}),
            ("ffnn", {"hidden_sizes": [3] * 1_000}),
            # the length and each entry are under the 701 stored values, but
            # 700 layers of 700 units would hold 343 million weights
            ("ffnn", {"hidden_sizes": [700] * 700}),
            ("qlstm", {"hidden_size": 10**12}),
            # widths that add up to the 701 stored values, 124,951 weights
            ("ffnn", {"hidden_sizes": [350, 350]}),
            # a trillion layers, which only a closed-form count reads in time
            ("lstm", {"n_layers": 10**12}),
        ],
        ids=[
            "vqr-layers", "ffnn-width", "ffnn-depth", "ffnn-width-and-depth", "qlstm-hidden",
            "ffnn-half-widths", "lstm-layers",
        ],
    )
    def test_forged_sizes_fail_before_building(self, tmp_path, monkeypatch, kind, forged):
        """Size options that name more parameters than the arrays store
        are refused before any model is built, so nothing is allocated
        from them."""
        ds = tiny_dataset(20, seed=24)
        names = models.default_options(kind)["features"]
        inp, tgt = scalers_for(ds, names)
        path = tmp_path / "model.json"
        models.save_model(models.build_model(kind, names, inp, tgt), path)
        path.write_text(edited(path.read_text(), lambda p: p["options"].update(forged)))

        def refuse(*args, **kwargs):
            raise AssertionError("build_model ran on forged sizes")

        monkeypatch.setattr(models, "build_model", refuse)
        with pytest.raises(DataError, match=r"model\.json: its options name \d+ .* more than"):
            models.load_model(path)

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda text: text[: len(text) // 2], "model.json"),
            (lambda text: "[1, 2, 3]\n", "model.json"),
            (lambda text: text.replace('"window"', '"windwo"'), "model.json"),
            (
                lambda text: text.replace('"schema_version": 1', '"schema_version": 99'),
                "model.json",
            ),
            (
                lambda text: edited(text, lambda p: p["arrays"].pop("dense0.bias")),
                r"model\.json .*dense0\.bias",
            ),
            (
                lambda text: edited(
                    text,
                    lambda p: p["arrays"].update(
                        {"dense0.bias": {"shape": [1], "values": [0.0]}}
                    ),
                ),
                r"model\.json.* dense0\.bias has shape \[1\]",
            ),
            (
                lambda text: edited(
                    text, lambda p: p["arrays"]["dense1.weights"]["values"].pop()
                ),
                r"model\.json.* dense1\.weights holds values",
            ),
            (
                lambda text: edited(text, lambda p: p["input_scaler"].pop("minimum")),
                r"model\.json.* input_scaler lacks minimum",
            ),
            (
                lambda text: edited(text, lambda p: p.update(window=3)),
                r"model\.json describes no model: ffnn uses single-hour inputs",
            ),
            (
                lambda text: edited(text, lambda p: p.update(window=None)),
                r"model\.json: window is null",
            ),
            (
                lambda text: edited(
                    text,
                    lambda p: p.update(
                        feature_names=[], input_scaler={"minimum": [], "maximum": []}
                    ),
                ),
                r"model\.json describes no model: ffnn needs at least one feature",
            ),
        ],
        ids=[
            "truncated", "not-an-object", "missing-window", "schema-99",
            "missing-array", "array-shape", "values-misfit-shape", "scaler-minimum",
            "ffnn-window-3", "window-null", "no-features",
        ],
    )
    def test_rejects_corrupt_checkpoint(self, tmp_path, corrupt, message):
        ds = tiny_dataset(20, seed=24)
        names = ("pm25", "temp")
        inp, tgt = scalers_for(ds, names)
        path = tmp_path / "model.json"
        models.save_model(models.FFNNModel(names, inp, tgt, hidden_sizes=(3,)), path)
        path.write_text(corrupt(path.read_text()))
        with pytest.raises(DataError, match=message):
            models.load_model(path)


CHECKPOINTS = Path(__file__).parent / "checkpoints"


class TestCheckpointCompatibility:
    """Checkpoints written by qscale 0.1.0 with that version's flat
    parameters and predictions on stored windows (``expected.json``): lstm
    and qlstm at commit ccdaf75, when an LSTM layer kept its gates as eight
    arrays and a QLSTM its fc_out maps as a list; ffnn and vqr, the pinned
    models of ``pins.py``, at commit 26f68e8, before a vqr predict ran its
    ansatz as one matrix."""

    @pytest.mark.parametrize("name", ["lstm", "qlstm-shared", "qlstm-per-gate", "ffnn", "vqr"])
    def test_earlier_checkpoint_loads(self, name):
        expected = json.loads((CHECKPOINTS / "expected.json").read_text())[name]
        model = models.load_model(CHECKPOINTS / f"{name}.json")
        assert [n for n, _ in model.param_arrays()] == expected["names"]
        np.testing.assert_array_equal(model.get_flat(), expected["flat"])
        preds = model.predict(np.array(expected["windows"]))
        np.testing.assert_allclose(preds, expected["predictions"], rtol=0.0, atol=1e-12)


# Pin tolerances, fixed from the largest gap a reordering of floating-point
# sums has made so far (4.9e-16 in the lstm weights when its gates became
# slabs), with a margin of about 2,000: weights absolute, losses and
# predictions relative to their ug/m3 values.
PIN_FLAT_ATOL = 1e-12
PIN_RTOL = 1e-12


class TestTrainingPins:
    """Two epochs of each kind at the fixed configs of ``pins.py`` reproduce
    the loss history, trained parameters and held-out predictions stored in
    ``checkpoints/pins.json`` at commit 26f68e8."""

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_training_outputs_hold(self, kind):
        want = json.loads(pins.PINS.read_text())[kind]
        model, history, _, preds = pins.fit_pin(kind)
        np.testing.assert_allclose(history, want["history"], rtol=PIN_RTOL, atol=0.0)
        np.testing.assert_allclose(model.get_flat(), want["flat"], rtol=0.0, atol=PIN_FLAT_ATOL)
        np.testing.assert_allclose(preds, want["predictions"], rtol=PIN_RTOL, atol=0.0)
