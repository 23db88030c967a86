"""Protocol tests: fold schemes, cross-validation, benchmarks, grid search."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from qscale import experiments, models, nn
from qscale.data import CalibrationDataset, chronological_split, make_windows
from qscale.errors import ConfigurationError, DataError
from qscale.experiments import (
    FoldSpec,
    MetricsReport,
    benchmark_uncalibrated,
    cross_validate,
    emit_report,
    grid_search,
    make_folds,
    protocol_fold_spec,
    score_holdout,
)
from qscale.models import TrainConfig

HOUR = 3600


def affine_dataset(n=60, seed=0, noise=0.2, names=("pm25", "temp")):
    rng = np.random.default_rng(seed)
    ts = np.arange(n, dtype=np.int64) * HOUR
    pm = 12.0 + 6.0 * np.sin(np.arange(n) / 4.0) + rng.normal(0.0, 0.4, n)
    cols = {
        "pm25": pm,
        "temp": 20.0 + 3.0 * np.cos(np.arange(n) / 7.0),
        "hum": 55.0 + 10.0 * np.sin(np.arange(n) / 9.0),
        "press": 1010.0 + rng.normal(0.0, 1.0, n),
    }
    features = np.column_stack([cols[k] for k in names])
    target = 0.7 * pm - 2.0 + rng.normal(0.0, noise, n)
    return CalibrationDataset(ts, tuple(names), features, target)


def perfect_dataset(n=60, seed=1):
    """Sensor identical to the reference: the benchmark loss is exactly zero."""
    rng = np.random.default_rng(seed)
    ts = np.arange(n, dtype=np.int64) * HOUR
    pm = 12.0 + 6.0 * np.sin(np.arange(n) / 4.0) + rng.normal(0.0, 0.4, n)
    return CalibrationDataset(ts, ("pm25",), pm[:, None], pm.copy())


class TestMakeFolds:
    def test_contiguous_ten_by_five(self):
        folds = make_folds(10, FoldSpec(5, "contiguous"))
        expected = [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]
        assert [f.tolist() for f in folds] == expected

    def test_shuffled_sizes_ten_by_four(self):
        folds = make_folds(10, FoldSpec(4, "shuffled", seed=3))
        assert sorted(f.size for f in folds) == [2, 2, 3, 3]
        assert [f.size for f in folds] == [3, 3, 2, 2]  # extras go first

    def test_shuffled_is_partition(self):
        folds = make_folds(10, FoldSpec(4, "shuffled", seed=3))
        merged = np.concatenate(folds)
        assert sorted(merged.tolist()) == list(range(10))

    def test_shuffled_deterministic(self):
        a = make_folds(50, FoldSpec(4, "shuffled", seed=9))
        b = make_folds(50, FoldSpec(4, "shuffled", seed=9))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_shuffled_seed_changes_partition(self):
        a = make_folds(50, FoldSpec(4, "shuffled", seed=1))
        b = make_folds(50, FoldSpec(4, "shuffled", seed=2))
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_shuffled_differs_from_contiguous(self):
        shuffled = make_folds(40, FoldSpec(4, "shuffled", seed=0))
        contiguous = make_folds(40, FoldSpec(4, "contiguous"))
        assert any(
            not np.array_equal(s, c) for s, c in zip(shuffled, contiguous)
        )

    def test_contiguous_blocks_are_consecutive(self):
        folds = make_folds(23, FoldSpec(5, "contiguous"))
        start = 0
        for fold in folds:
            assert np.array_equal(fold, np.arange(start, start + fold.size))
            start += fold.size
        assert start == 23

    def test_exhaustive_partition_small(self):
        for n in range(1, 41):
            for k in range(1, n + 1):
                for mode in ("shuffled", "contiguous"):
                    folds = make_folds(n, FoldSpec(k, mode, seed=n * 31 + k))
                    sizes = [f.size for f in folds]
                    assert len(folds) == k
                    assert max(sizes) - min(sizes) <= 1
                    merged = sorted(np.concatenate(folds).tolist())
                    assert merged == list(range(n))

    def test_k_larger_than_n(self):
        with pytest.raises(ConfigurationError):
            make_folds(3, FoldSpec(4, "contiguous"))

    def test_bad_spec(self):
        with pytest.raises(ConfigurationError):
            FoldSpec(0, "shuffled")
        with pytest.raises(ConfigurationError):
            FoldSpec(3, "sorted")
        with pytest.raises(ConfigurationError):
            make_folds(0, FoldSpec(1, "contiguous"))

    def test_protocol_specs(self):
        assert protocol_fold_spec("ffnn").k == 4
        assert protocol_fold_spec("ffnn").mode == "shuffled"
        assert protocol_fold_spec("vqr").k == 4
        assert protocol_fold_spec("lstm").k == 5
        assert protocol_fold_spec("lstm").mode == "contiguous"
        assert protocol_fold_spec("qlstm", seed=7).seed == 7
        with pytest.raises(ConfigurationError):
            protocol_fold_spec("cnn")


class TestCrossValidate:
    def test_ffnn_three_folds(self):
        ds = affine_dataset(48, seed=2)
        cfg = TrainConfig(8, 0.05, "adam", "mse", batch_size=8, window=1, seed=5)
        report = cross_validate(
            "ffnn", ds, cfg, FoldSpec(3, "shuffled", seed=1),
            options={"hidden_sizes": (5,), "features": ("pm25", "temp")},
        )
        assert len(report.folds) == 3
        for i, fold in enumerate(report.folds):
            assert fold["fold"] == i
            assert fold["seed"] == 5 + i
            assert set(("l1", "mse", "rmse")) <= set(fold)
            assert abs(fold["rmse"] - math.sqrt(fold["mse"])) < 1e-12
        for key in ("l1", "mse", "rmse"):
            mean = np.mean([f[key] for f in report.folds])
            assert abs(report.fold_average[key] - mean) < 1e-12
        assert report.param_count == (2 * 5 + 5) + (5 + 1)
        assert report.fold_spec == {"k": 3, "mode": "shuffled", "seed": 1}

    def test_series_covers_all_hours_sorted(self):
        ds = affine_dataset(30, seed=3)
        cfg = TrainConfig(2, 0.05, "adam", "mse", batch_size=8, window=1, seed=0)
        report = cross_validate(
            "ffnn", ds, cfg, FoldSpec(3, "shuffled", seed=2),
            options={"hidden_sizes": (3,), "features": ("pm25", "temp")},
        )
        stamps = [row["timestamp"] for row in report.series]
        assert stamps == sorted(stamps)
        assert sorted(stamps) == ds.timestamps.tolist()

    def test_sequence_models_need_contiguous_folds(self):
        ds = affine_dataset(40, seed=4)
        cfg = TrainConfig(2, 0.05, "rmsprop", "l1", window=3, seed=0)
        with pytest.raises(ConfigurationError):
            cross_validate(
                "lstm", ds, cfg, FoldSpec(4, "shuffled"),
                options={"hidden_size": 3, "n_layers": 1, "features": ("pm25",)},
            )

    def test_lstm_contiguous_folds(self):
        ds = affine_dataset(45, seed=5)
        cfg = TrainConfig(3, 0.02, "rmsprop", "l1", batch_size=8, window=3, seed=2)
        report = cross_validate(
            "lstm", ds, cfg, FoldSpec(3, "contiguous"),
            options={"hidden_size": 3, "n_layers": 1, "features": ("pm25",)},
        )
        assert len(report.folds) == 3
        assert report.fold_average is not None
        # each contiguous 15-hour fold yields 15-3+1 = 13 test windows
        assert all(f["test_hours"] == 15 for f in report.folds)

    def test_fold_without_window_refused_before_training(self, monkeypatch):
        """5 contiguous folds of 12 hours hold 3, 3, 2, 2 and 2 hours: fold 2
        is the first with no 3-hour window, and no fold trains.  The error
        says what ``make_windows``' warning would, so no warning is shown."""
        trained = []
        lockstep = models.train_lockstep
        monkeypatch.setattr(
            models, "train_lockstep", lambda *args: trained.append(args) or lockstep(*args)
        )
        cfg = TrainConfig(1, 0.02, "rmsprop", "l1", batch_size=8, window=3, seed=0)
        message = r"^fold 2: the 2 held-out hours hold no 3-hour window$"
        with pytest.raises(DataError, match=message), warnings.catch_warnings():
            warnings.simplefilter("error")
            cross_validate(
                "lstm", affine_dataset(12, seed=5), cfg, FoldSpec(5, "contiguous"),
                options={"hidden_size": 3, "n_layers": 1, "features": ("pm25",)},
            )
        assert trained == []

    def test_no_training_window_crosses_fold_join(self):
        ds = affine_dataset(30, seed=6)
        window = 4
        folds = make_folds(len(ds), FoldSpec(3, "contiguous"))
        held_out = folds[1]
        mask = np.ones(len(ds), dtype=bool)
        mask[held_out] = False
        train_set = ds.subset(np.nonzero(mask)[0])
        x, _, ends = make_windows(train_set.select_features(("pm25",)), window)
        held_stamps = set(ds.timestamps[held_out].tolist())
        for end in ends:
            hours = {int(end) - HOUR * d for d in range(window)}
            assert not hours & held_stamps
        # both surviving runs are 10 hours -> 7 windows each
        assert x.shape[0] == 14

    def test_divergent_fold_recorded_not_fatal(self):
        ds = affine_dataset(36, seed=7)
        cfg = TrainConfig(30, 1e15, "sgd", "mse", batch_size=6, window=1, seed=3)
        with np.errstate(all="ignore"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                report = cross_validate(
                    "ffnn", ds, cfg, FoldSpec(3, "shuffled", seed=1),
                    options={"hidden_sizes": (4,), "features": ("pm25", "temp")},
                )
        assert all("error" in f for f in report.folds)
        assert all("diverged" in f["error"] for f in report.folds)
        assert report.fold_average is None
        assert report.param_count == 17  # (2 * 4 + 4) + (4 * 1 + 1), as if a fold had trained
        assert report.options == {
            "hidden_sizes": [4], "activation": "tanh", "features": ["pm25", "temp"]
        }

    def test_one_model_per_fold(self, monkeypatch):
        built = []
        build = models.build_model

        def counting_build(*args, **kwargs):
            built.append(args[0])
            return build(*args, **kwargs)

        monkeypatch.setattr(models, "build_model", counting_build)
        ds = affine_dataset(36, seed=8)
        cfg = TrainConfig(1, 0.05, "adam", "mse", batch_size=8, window=1, seed=4)
        report = cross_validate(
            "ffnn", ds, cfg, FoldSpec(4, "shuffled", seed=3),
            options={"hidden_sizes": (4,), "features": ("pm25", "temp")},
        )
        assert built == ["ffnn"] * 4
        assert report.param_count == (2 * 4 + 4) + (4 + 1)

    def test_threaded_matches_sequential(self):
        ds = affine_dataset(36, seed=8)
        cfg = TrainConfig(3, 0.05, "adam", "mse", batch_size=8, window=1, seed=4)
        opts = {"hidden_sizes": (4,), "features": ("pm25", "temp")}
        spec = FoldSpec(4, "shuffled", seed=3)
        seq = cross_validate("ffnn", ds, cfg, spec, options=opts)
        par = cross_validate(
            "ffnn", ds, cfg, spec, options=opts, n_threads=4
        )
        assert json.dumps(seq.to_dict(), sort_keys=True) == json.dumps(
            par.to_dict(), sort_keys=True
        )

    def test_perfect_data_trains_to_near_zero(self):
        ds = perfect_dataset(60)
        cfg = TrainConfig(60, 0.05, "adam", "mse", batch_size=16, window=1, seed=6)
        report = cross_validate(
            "ffnn", ds, cfg, FoldSpec(3, "shuffled", seed=5),
            options={"hidden_sizes": (8,), "features": ("pm25",)},
        )
        assert report.fold_average["l1"] < 0.3


# small options per kind, so that every kind's folds train in well under a second
SMALL = {
    "ffnn": {"hidden_sizes": (4, 3), "features": ("pm25", "temp")},
    "lstm": {"hidden_size": 3, "n_layers": 2, "features": ("pm25",)},
    "vqr": {"n_qubits": 2, "n_layers": 2, "features": ("pm25", "temp")},
    "qlstm": {"n_qubits": 2, "n_layers": 1, "hidden_size": 3, "features": ("pm25",)},
}


def assert_same(got, want, where="report"):
    """``got`` equals ``want`` field by field, floats to 1e-12 relative to
    their size (absolute below 1), everything else exactly."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for k, (a, b) in enumerate(zip(got, want)):
            assert_same(a, b, f"{where}[{k}]")
    elif isinstance(want, float):
        assert got == want or abs(got - want) <= 1e-12 * max(1.0, abs(want)), (where, got, want)
    else:
        assert got == want, (where, got, want)


def record_lockstep(monkeypatch) -> tuple[list, dict]:
    """Spy on the models that ``prepare_fit`` builds, in call order, and on
    the outcome ``train_lockstep`` gives each, by model id."""
    built, outcomes = [], {}
    prepare, lockstep = models.prepare_fit, models.train_lockstep

    def spy_prepare(*args, **kwargs):
        fit = prepare(*args, **kwargs)
        built.append(fit[0])
        return fit

    def spy_lockstep(stacked, *args):
        result = lockstep(stacked, *args)
        outcomes.update((id(model), outcome) for model, outcome in zip(stacked, result))
        return result

    monkeypatch.setattr(models, "prepare_fit", spy_prepare)
    monkeypatch.setattr(models, "train_lockstep", spy_lockstep)
    return built, outcomes


def assert_matches_serial(lockstep_models, outcomes, serial_fits):
    """Each model trained in lockstep has the history and weights of its
    serial twin; a diverged one diverged in the same epoch."""
    assert len(lockstep_models) == len(serial_fits)
    for model, fit in zip(lockstep_models, serial_fits):
        outcome = outcomes[id(model)]
        if fit is None:
            assert isinstance(outcome, experiments.TrainingDivergedError)
            continue
        serial_model, history = fit
        assert_same(outcome, history, "history")
        np.testing.assert_allclose(model.flat, serial_model.flat, rtol=0.0, atol=1e-12)


def quiet(run):
    """Run ``run()`` with the overflow warnings of a diverging model off."""
    import warnings

    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run()


class TestLockstepMatchesSerial:
    """Lockstep cross-validation and grid search against the serial loops of
    ``_oracles``: histories, weights, predictions and every report field to
    1e-12.  Fold counts that do not divide the hours, and contiguous folds
    of windowed kinds, give the folds unequal window counts and ragged last
    minibatches."""

    @pytest.mark.parametrize(
        "kind,config,spec",
        [
            ("ffnn", TrainConfig(3, 0.05, "adam", "l1", 7, 1, 2), FoldSpec(4, "shuffled", 1)),
            ("lstm", TrainConfig(2, 0.02, "rmsprop", "l1", 6, 3, 4), FoldSpec(3, "contiguous")),
            ("vqr", TrainConfig(2, 0.05, "adam", "mse", 6, 1, 1), FoldSpec(3, "shuffled", 5)),
            ("qlstm", TrainConfig(1, 0.05, "adam", "l1", 8, 2, 3), FoldSpec(3, "contiguous")),
        ],
        ids=["ffnn", "lstm", "vqr", "qlstm"],
    )
    def test_cross_validate(self, monkeypatch, kind, config, spec):
        ds = affine_dataset(44, seed=30)
        built, outcomes = record_lockstep(monkeypatch)
        report = cross_validate(kind, ds, config, spec, options=SMALL[kind])
        lockstep_models = list(built)
        want, fits = oracle.serial_cross_validate(
            models, experiments, kind, ds, config, spec, SMALL[kind]
        )
        assert_same(report.to_dict(), want.to_dict())
        assert_same(report.series, want.series, "series")
        assert_matches_serial(lockstep_models, outcomes, fits)

    def test_grid_search(self, monkeypatch):
        """Mixed optimizers, losses, learning rates, batch sizes, epochs and
        hidden sizes (two layouts), a bad optimizer and a point forced to
        diverge."""
        ds = affine_dataset(40, seed=31)
        grid = {
            "optimizer": ["sgd", "adam", "rmsprop", "newton"],
            "loss": ["l1", "mse"],
            "learning_rate": [0.01, 1e15],
            "batch_size": [4, 7],
            "hidden_sizes": [(3,), (5,)],
        }
        kwargs = dict(
            base_config=TrainConfig(2, 0.05, "adam", "mse", window=1, seed=6),
            options={"features": ("pm25", "temp")},
        )
        built, outcomes = record_lockstep(monkeypatch)
        result = quiet(lambda: grid_search("ffnn", ds, grid, **kwargs))
        lockstep_models = list(built)
        want, fits = quiet(lambda: oracle.serial_grid_search(models, experiments, "ffnn", ds, grid, **kwargs))
        assert_same(result.to_dict(), want.to_dict())
        errors = {e.get("error", "").split(":")[0] for e in result.entries}
        assert {"ConfigurationError", "TrainingDivergedError", ""} <= errors
        prepared = [fit for fit, e in zip(fits, want.entries) if "newton" not in str(e["params"])]
        assert_matches_serial(lockstep_models, outcomes, prepared)


def lstm_dataset(n, seed):
    return affine_dataset(n, seed=seed, names=("pm25",))


class TestLockstepProperties:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        k=st.integers(1, 6),
        mode=st.sampled_from(["shuffled", "contiguous"]),
        hours=st.integers(30, 60),
        batch=st.integers(2, 9),
        epochs=st.integers(1, 3),
        seed=st.integers(0, 50),
    )
    def test_ffnn_folds_match_serial(self, k, mode, hours, batch, epochs, seed):
        """One fold leaves no training hours, which both loops refuse alike."""
        ds = affine_dataset(hours, seed=seed)
        config = TrainConfig(epochs, 0.05, "adam", "mse", batch, 1, seed)
        spec = FoldSpec(k, mode, seed)
        if k == 1:
            with pytest.raises(ConfigurationError) as serial:
                oracle.serial_cross_validate(models, experiments, "ffnn", ds, config, spec, SMALL["ffnn"])
            with pytest.raises(ConfigurationError, match=str(serial.value)):
                cross_validate("ffnn", ds, config, spec, options=SMALL["ffnn"])
            return
        with pytest.MonkeyPatch.context() as mp:
            built, outcomes = record_lockstep(mp)
            report = cross_validate("ffnn", ds, config, spec, options=SMALL["ffnn"])
            lockstep_models = list(built)
        want, fits = oracle.serial_cross_validate(
            models, experiments, "ffnn", ds, config, spec, SMALL["ffnn"]
        )
        assert_same(report.to_dict(), want.to_dict())
        assert_same(report.series, want.series, "series")
        assert_matches_serial(lockstep_models, outcomes, fits)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        k=st.integers(2, 6),
        window=st.integers(2, 4),
        hours=st.integers(36, 70),
        batch=st.integers(3, 9),
        seed=st.integers(0, 50),
    )
    def test_contiguous_lstm_folds_match_serial(self, k, window, hours, batch, seed):
        """Contiguous lstm folds: the edge folds keep one training run and
        the inner folds two, so their window counts and last minibatches
        differ."""
        ds = lstm_dataset(hours, seed)
        config = TrainConfig(2, 0.02, "rmsprop", "l1", batch, window, seed)
        spec = FoldSpec(k, "contiguous")
        with pytest.MonkeyPatch.context() as mp:
            built, outcomes = record_lockstep(mp)
            report = cross_validate("lstm", ds, config, spec, options=SMALL["lstm"])
            lockstep_models = list(built)
        counts = {x.shape[0] for x in (make_windows_of(m, ds, spec, window) for m in range(k))}
        want, fits = oracle.serial_cross_validate(
            models, experiments, "lstm", ds, config, spec, SMALL["lstm"]
        )
        assert_same(report.to_dict(), want.to_dict())
        assert_same(report.series, want.series, "series")
        assert_matches_serial(lockstep_models, outcomes, fits)
        if k >= 3:
            assert len(counts) > 1  # the case this test exists for

    def test_mixed_grid_with_divergence(self):
        """sgd, adam and rmsprop, l1 and mse, and batch sizes that end their
        epochs on different steps: every point equals its serial twin.  With
        one learning rate of 1e15, the points that diverge carry the serial
        error text and the others still equal their twins."""
        ds = affine_dataset(46, seed=32)
        grid = {
            "optimizer": ["sgd", "adam", "rmsprop"],
            "loss": ["l1", "mse"],
            "learning_rate": [0.011, 0.013],
            "batch_size": [3, 8, 16],
        }
        kwargs = dict(
            base_config=TrainConfig(2, 0.05, "adam", "mse", window=1, seed=9),
            options={"hidden_sizes": (3,), "features": ("pm25", "temp")},
        )
        for rates in ([0.011, 0.013], [0.011, 1e15]):
            points = {**grid, "learning_rate": rates}
            got = quiet(lambda: grid_search("ffnn", ds, points, **kwargs))
            want, _ = quiet(
                lambda: oracle.serial_grid_search(models, experiments, "ffnn", ds, points, **kwargs)
            )
            assert_same(got.to_dict(), want.to_dict())
        diverged = [e for e in got.entries if "error" in e]
        assert diverged and all(e["params"]["learning_rate"] == 1e15 for e in diverged)
        assert all(e["error"].startswith("TrainingDivergedError: training diverged at") for e in diverged)

    def test_adam_counts_only_its_own_steps(self, monkeypatch):
        """Three adam models whose batch sizes give them 24, 10 and 6 steps
        train beside an sgd model of 48: the step count of the state that
        holds each adam model's learning rate ends at that model's number
        of steps."""
        ds = affine_dataset(48, seed=33)
        names = ("pm25", "temp")
        x, y, _ = make_windows(ds.select_features(names), 1)
        stacked, configs = [], []
        for rate, optimizer, batch in [(0.011, "adam", 4), (0.013, "adam", 10), (0.017, "adam", 16), (0.019, "sgd", 2)]:
            config = TrainConfig(2, rate, optimizer, "l1", batch, 1, 3)
            stacked.append(models.prepare_fit("ffnn", ds, config, SMALL["ffnn"])[0])
            configs.append(config)
        steps = {}
        optimizer_step = nn.optimizer_step

        def counting_step(state, params, grads):
            optimizer_step(state, params, grads)
            for rate in state.learning_rate.ravel():
                steps[float(rate)] = state.step

        monkeypatch.setattr(nn, "optimizer_step", counting_step)
        models.train_lockstep(stacked, [x] * 4, [y] * 4, configs)
        assert steps == {0.011: 24, 0.013: 10, 0.017: 6, 0.019: 48}


def make_windows_of(fold, ds, spec, window):
    """The training windows of fold ``fold``'s complement."""
    test = make_folds(len(ds), spec)[fold]
    mask = np.ones(len(ds), dtype=bool)
    mask[test] = False
    return make_windows(ds.subset(np.nonzero(mask)[0]).select_features(("pm25",)), window)[0]


class TestBenchmark:
    def test_perfect_sensor_all_zero(self):
        ds = perfect_dataset(50)
        result = benchmark_uncalibrated(ds, "l1", sample_size=10, n_draws=25, seed=1)
        assert np.all(result.draws == 0.0)
        assert result.full_loss == 0.0

    def test_deterministic(self):
        ds = affine_dataset(50, seed=9)
        a = benchmark_uncalibrated(ds, "l1", sample_size=12, n_draws=40, seed=4)
        b = benchmark_uncalibrated(ds, "l1", sample_size=12, n_draws=40, seed=4)
        assert np.array_equal(a.draws, b.draws)

    def test_seed_changes_draws(self):
        ds = affine_dataset(50, seed=9)
        a = benchmark_uncalibrated(ds, "l1", sample_size=12, n_draws=40, seed=4)
        b = benchmark_uncalibrated(ds, "l1", sample_size=12, n_draws=40, seed=5)
        assert not np.array_equal(a.draws, b.draws)

    def test_full_loss_matches_direct(self):
        ds = affine_dataset(40, seed=10)
        raw = ds.features[:, 0]
        result = benchmark_uncalibrated(ds, "l1", n_draws=5, seed=0)
        assert result.full_loss == pytest.approx(np.mean(np.abs(raw - ds.target)))
        rm = benchmark_uncalibrated(ds, "rmse", n_draws=5, seed=0)
        assert rm.full_loss == pytest.approx(
            math.sqrt(np.mean((raw - ds.target) ** 2))
        )

    def test_summary_ordering(self):
        ds = affine_dataset(60, seed=11)
        result = benchmark_uncalibrated(ds, "mse", sample_size=15, n_draws=100, seed=2)
        s = result.summary()
        assert s["min"] <= s["q25"] <= s["median"] <= s["q75"] <= s["max"]
        assert s["n_draws"] == 100
        assert s["sample_size"] == 15
        assert s["full_loss"] == result.full_loss

    def test_default_sample_size_is_whole_set(self):
        ds = affine_dataset(30, seed=12)
        result = benchmark_uncalibrated(ds, "l1", n_draws=3, seed=0)
        assert result.sample_size == 30
        # sampling the whole set without replacement is the full set
        assert np.allclose(result.draws, result.full_loss)

    def test_validation(self):
        ds = affine_dataset(20, seed=13)
        with pytest.raises(ConfigurationError):
            benchmark_uncalibrated(ds, "l1", sample_size=21)
        with pytest.raises(ConfigurationError):
            benchmark_uncalibrated(ds, "l1", sample_size=0)
        with pytest.raises(ConfigurationError):
            benchmark_uncalibrated(ds, "huber")
        no_pm = CalibrationDataset(
            ds.timestamps, ("temp",), ds.features[:, 1:2], ds.target
        )
        with pytest.raises(ConfigurationError):
            benchmark_uncalibrated(no_pm, "l1")


class TestGridSearch:
    def test_single_point(self):
        ds = affine_dataset(40, seed=14)
        result = grid_search(
            "ffnn", ds, {"epochs": [3]},
            base_config=TrainConfig(1, 0.05, "adam", "mse", window=1, seed=1),
            options={"hidden_sizes": (3,), "features": ("pm25", "temp")},
        )
        assert result.grid_size == 1
        assert len(result.entries) == 1
        assert result.best["params"] == {"epochs": 3}
        assert "l1" in result.best

    def test_trained_beats_untrained(self):
        ds = affine_dataset(50, seed=15)
        result = grid_search(
            "ffnn", ds, {"epochs": [0, 25]},
            base_config=TrainConfig(1, 0.05, "adam", "mse", window=1, seed=2),
            options={"hidden_sizes": (6,), "features": ("pm25", "temp")},
        )
        assert result.best["params"]["epochs"] == 25

    def test_mixed_config_and_model_axes(self):
        ds = affine_dataset(40, seed=16)
        result = grid_search(
            "ffnn", ds, {"learning_rate": [0.01, 0.05], "hidden_sizes": [(3,), (5,)]},
            base_config=TrainConfig(3, 0.05, "adam", "mse", window=1, seed=3),
            options={"features": ("pm25", "temp")},
        )
        assert result.grid_size == 4
        assert len(result.entries) == 4
        seen = {
            (e["params"]["learning_rate"], tuple(e["params"]["hidden_sizes"]))
            for e in result.entries
        }
        assert seen == {(0.01, (3,)), (0.01, (5,)), (0.05, (3,)), (0.05, (5,))}

    @pytest.mark.parametrize(
        "axis,good,bad",
        [("optimizer", "adam", "newton"), ("epochs", 2, 1.5), ("hidden_sizes", [3], [2.7])],
        ids=["optimizer", "epochs", "hidden_sizes"],
    )
    def test_failures_recorded_and_skipped_in_ranking(self, axis, good, bad):
        ds = affine_dataset(40, seed=17)
        result = grid_search(
            "ffnn", ds, {axis: [good, bad]},
            base_config=TrainConfig(2, 0.05, "adam", "mse", window=1, seed=4),
            options={"hidden_sizes": (3,), "features": ("pm25", "temp")},
        )
        failed = [e for e in result.entries if "error" in e]
        assert len(failed) == 1
        assert failed[0]["params"][axis] == bad
        assert "ConfigurationError" in failed[0]["error"]
        assert len(result.ranking) == 1

    def test_all_failures_no_best(self):
        ds = affine_dataset(30, seed=18)
        result = grid_search(
            "ffnn", ds, {"optimizer": ["newton"]},
            base_config=TrainConfig(1, 0.05, "adam", "mse", window=1),
            options={"hidden_sizes": (3,), "features": ("pm25", "temp")},
        )
        assert result.best is None
        assert result.ranking == []

    def test_window_axis_for_lstm(self):
        ds = affine_dataset(40, seed=20)
        result = grid_search(
            "lstm", ds, {"window": [2, 3]},
            base_config=TrainConfig(2, 0.02, "rmsprop", "l1", window=2, seed=6),
            options={"hidden_size": 3, "n_layers": 1, "features": ("pm25",)},
        )
        assert {e["params"]["window"] for e in result.entries} == {2, 3}
        assert all("error" not in e for e in result.entries)

    def test_seed_axis_seeds_each_point(self):
        """A grid ``seed`` axis replaces ``base_config.seed`` like any other
        field: each point scores what ``fit_model`` trains under its seed."""
        ds = affine_dataset(40, seed=19)
        base = TrainConfig(2, 0.05, "adam", "mse", window=1, seed=7)
        options = {"hidden_sizes": (3,), "features": ("pm25", "temp")}
        result = grid_search("ffnn", ds, {"seed": [1, 2]}, base_config=base, options=options)
        train_set, test_set = chronological_split(ds, 0.75)
        for entry in result.entries:
            config = replace(base, seed=entry["params"]["seed"])
            model, history = models.fit_model("ffnn", train_set, config, options)
            want = {**score_holdout(model, test_set)[0], "final_train_loss": history[-1]}
            assert_same({key: entry[key] for key in want}, want)
        assert result.entries[0]["l1"] != result.entries[1]["l1"]
        assert result.seed == 7

    def test_validation(self):
        ds = affine_dataset(30, seed=21)
        with pytest.raises(ConfigurationError):
            grid_search("ffnn", ds, {})
        with pytest.raises(ConfigurationError):
            grid_search("ffnn", ds, {"epochs": []})
        with pytest.raises(ConfigurationError):
            grid_search("ffnn", ds, {"epochs": [1]}, rank_loss="huber")


class TestReports:
    def make_report(self):
        ds = affine_dataset(30, seed=22)
        cfg = TrainConfig(2, 0.05, "adam", "mse", batch_size=8, window=1, seed=1)
        return cross_validate(
            "ffnn", ds, cfg, FoldSpec(3, "shuffled", seed=1),
            options={"hidden_sizes": (3,), "features": ("pm25", "temp")},
        )

    def test_emit_writes_json_and_series(self, tmp_path):
        report = self.make_report()
        written = emit_report(report, tmp_path / "out")
        assert written["report"].exists()
        assert written["series"].exists()
        payload = json.loads(written["report"].read_text())
        assert payload == json.loads(json.dumps(report.to_dict()))
        assert payload["schema_version"] == 1
        lines = written["series"].read_text().strip().split("\n")
        assert lines[0] == "timestamp,raw_pm25,calibrated_pm25,reference_pm25"
        assert len(lines) == 1 + len(report.series)

    def test_emit_is_byte_deterministic(self, tmp_path):
        report = self.make_report()
        a = emit_report(report, tmp_path / "a")
        b = emit_report(report, tmp_path / "b")
        assert a["report"].read_bytes() == b["report"].read_bytes()
        assert a["series"].read_bytes() == b["series"].read_bytes()

    def test_round_trip_numbers_exact(self, tmp_path):
        report = self.make_report()
        written = emit_report(report, tmp_path / "out")
        payload = json.loads(written["report"].read_text())
        for loaded, original in zip(payload["folds"], report.folds):
            for key in ("l1", "mse", "rmse"):
                assert loaded[key] == original[key]

    def test_empty_report_refused(self, tmp_path):
        report = MetricsReport(
            model_kind="ffnn", config={}, options={}, seed=0
        )
        target = tmp_path / "nothing"
        with pytest.raises(ConfigurationError):
            emit_report(report, target)
        assert not target.exists()
