"""End-to-end command-line tests, run in-process through cli.main."""

import argparse
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qscale import cli, data, experiments, models, nn


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def campaign(tmp_path, capsys, monkeypatch):
    """A small distorted campaign prepared into dataset.csv."""
    monkeypatch.delenv("QSCALE_SEED", raising=False)
    out = tmp_path / "camp"
    profile = tmp_path / "profile.json"
    profile.write_text(
        json.dumps({"gain": 1.3, "offset": 3.0, "humidity_coeff": 0.05, "noise_std": 1.0})
    )
    code = cli.main(
        [
            "synth",
            "--seed", "11",
            "--hours", "60",
            "--profile", str(profile),
            "--out", str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    return out / "dataset.csv"


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys, *[])
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "calibrate")
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "train", "--model", "ffnn")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "benchmark", "--data", "x.csv", "--bogus")
        assert code == 2

    @pytest.mark.parametrize(
        "command",
        [
            None, "prepare", "synth", "train", "predict",
            "cross-validate", "benchmark", "grid-search", "report",
        ],
    )
    def test_help_exits_zero(self, capsys, command):
        argv = ["--help"] if command is None else [command, "--help"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "usage" in out.lower()

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert "qscale" in out

    def test_training_choices_are_nn_kinds(self):
        """Every command that trains offers exactly the optimizers and
        losses that ``nn`` implements."""
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        trainers = []
        for name, command in commands.choices.items():
            choices = {flag: a.choices for a in command._actions for flag in a.option_strings}
            if "--optimizer" in choices:
                trainers.append(name)
                assert tuple(choices["--optimizer"]) == nn.OPTIMIZER_KINDS
                assert tuple(choices["--loss"]) == nn.LOSS_KINDS
        assert {"train", "cross-validate", "grid-search"} <= set(trainers)


class TestSynthAndPrepare:
    def test_synth_writes_campaign_and_dataset(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("QSCALE_SEED", raising=False)
        out = tmp_path / "synthdir"
        code, _, err = run(
            capsys, "synth", "--seed", "5", "--hours", "48", "--out", str(out)
        )
        assert code == 0
        for name in ("sensors.csv", "reference.csv", "dataset.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 5
        assert "wall_time_s" in manifest
        assert manifest["versions"]["qscale"]

    def test_synth_dataset_runs_through_prepare(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("QSCALE_SEED", raising=False)
        synth_dir = tmp_path / "raw"
        code, _, _ = run(
            capsys, "synth", "--seed", "2", "--hours", "48", "--out", str(synth_dir)
        )
        assert code == 0
        prep_dir = tmp_path / "prep"
        code, _, _ = run(
            capsys,
            "prepare",
            "--sensors", str(synth_dir / "sensors.csv"),
            "--reference", str(synth_dir / "reference.csv"),
            "--out", str(prep_dir),
        )
        assert code == 0
        direct = (synth_dir / "dataset.csv").read_bytes()
        via_prepare = (prep_dir / "dataset.csv").read_bytes()
        assert direct == via_prepare

    def test_seed_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QSCALE_SEED", "123")
        out = tmp_path / "envseed"
        code, _, _ = run(capsys, "synth", "--hours", "48", "--out", str(out))
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 123

    def test_bad_environment_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QSCALE_SEED", "twelve")
        code, _, err = run(
            capsys, "synth", "--hours", "48", "--out", str(tmp_path / "x")
        )
        assert code == 1
        assert "config error" in err

    def test_negative_seed_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("QSCALE_SEED", raising=False)
        code, _, err = run(
            capsys, "synth", "--seed", "-1", "--hours", "48", "--out", str(tmp_path / "n")
        )
        assert code == 1
        assert "config error: --seed must be non-negative" in err

    def test_bad_profile_field(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("QSCALE_SEED", raising=False)
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps({"gian": 1.5}))
        code, _, err = run(
            capsys,
            "synth", "--hours", "48", "--profile", str(profile),
            "--out", str(tmp_path / "y"),
        )
        assert code == 1
        assert "config error" in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_pm_sensors", 0),
            ("n_pm_sensors", 2.0),
            ("n_pm_sensors", 10**6),
            ("n_env_sensors", -1),
            ("n_env_sensors", True),
            ("n_env_sensors", "2"),
            ("sample_period_s", 0),
            ("sample_period_s", -60),
            ("sample_period_s", "abc"),
            ("sample_period_s", 120.0),
            ("gain", "x"),
            ("offset", None),
            ("humidity_coeff", [0.1]),
            ("humidity_knee", float("nan")),
            ("sensor_spread", float("inf")),
            ("gain", 10**400),
            ("noise_std", -1),
        ],
    )
    def test_bad_profile_value(self, tmp_path, capsys, monkeypatch, field, value):
        """A profile value of the wrong type or out of range is a config
        error naming its field, not a traceback or a silent default."""
        monkeypatch.delenv("QSCALE_SEED", raising=False)
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps({field: value}))
        code, _, err = run(
            capsys,
            "synth", "--hours", "48", "--profile", str(profile),
            "--out", str(tmp_path / "y"),
        )
        assert code == 1
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"config error: profile field {field} ")


    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_reference_hour_is_dropped(
        self, tmp_path, capsys, monkeypatch, bad
    ):
        monkeypatch.delenv("QSCALE_SEED", raising=False)
        raw = tmp_path / "raw"
        code, _, _ = run(capsys, "synth", "--seed", "3", "--hours", "72", "--out", str(raw))
        assert code == 0
        lines = (raw / "reference.csv").read_text().splitlines()
        stamp = lines[30].split(",")[0]
        lines[30] = f"{stamp},{bad}"
        reference = tmp_path / "reference.csv"
        reference.write_text("\n".join(lines) + "\n")

        def prepare(reference_path, out):
            code, _, err = run(
                capsys,
                "prepare",
                "--sensors", str(raw / "sensors.csv"),
                "--reference", str(reference_path),
                "--out", str(out),
            )
            assert code == 0, err
            return json.loads((out / "manifest.json").read_text())["settings"]

        clean = prepare(raw / "reference.csv", tmp_path / "clean")
        holed = prepare(reference, tmp_path / "holed")
        assert holed["n_hours"] == clean["n_hours"] - 1
        assert holed["dropped_rows"] == clean["dropped_rows"] + 1
        assert stamp in (tmp_path / "clean" / "dataset.csv").read_text()
        assert stamp not in (tmp_path / "holed" / "dataset.csv").read_text()


class TestTrainPredict:
    def test_train_smoke(self, tmp_path, capsys, campaign):
        out = tmp_path / "run"
        code, stdout, _ = run(
            capsys,
            "train",
            "--model", "ffnn",
            "--data", str(campaign),
            "--epochs", "3",
            "--learning-rate", "0.01",
            "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        for name in ("model.json", "report.json", "series.csv", "manifest.json"):
            assert (out / name).exists()
        losses = json.loads(stdout)
        assert set(losses) == {"l1", "mse", "rmse"}
        report = json.loads((out / "report.json").read_text())
        assert report["model_kind"] == "ffnn"
        assert report["test_losses"]["l1"] == losses["l1"]
        assert len(report["train_history"]) == 3

    def test_train_missing_dataset(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("QSCALE_SEED", raising=False)
        code, _, err = run(
            capsys,
            "train",
            "--model", "ffnn",
            "--data", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert "data error" in err

    def test_config_file_with_flag_override(self, tmp_path, capsys, campaign):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "epochs": 1,
                    "learning_rate": 0.02,
                    "optimizer": "adam",
                    "loss": "mse",
                    "hidden_sizes": [4],
                    "features": ["pm25", "temp"],
                }
            )
        )
        out = tmp_path / "cfgrun"
        code, _, _ = run(
            capsys,
            "train",
            "--model", "ffnn",
            "--data", str(campaign),
            "--config", str(cfg),
            "--epochs", "4",
            "--seed", "0",
            "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["epochs"] == 4  # flag wins
        assert report["config"]["learning_rate"] == 0.02
        assert report["options"]["hidden_sizes"] == [4]
        assert report["options"]["features"] == ["pm25", "temp"]

    @pytest.mark.parametrize(
        "settings,named",
        [
            ({"hiden_sizes": [3]}, "hiden_sizes"),
            ({"epoch": 3}, "epoch"),
            ({"features": 5}, "features"),
        ],
    )
    def test_bad_option_in_config_is_config_error(
        self, tmp_path, capsys, campaign, settings, named
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        code, _, err = run(
            capsys,
            "train",
            "--model", "ffnn",
            "--data", str(campaign),
            "--config", str(cfg),
            "--epochs", "1",
            "--out", str(tmp_path / "bad"),
        )
        assert code == 1
        assert err.splitlines()[-1].startswith("config error:")
        assert named in err

    @pytest.mark.parametrize(
        "kind,settings",
        [
            ("ffnn", {"hidden_sizes": [10**10, 10**10]}),
            ("lstm", {"n_layers": 2**62}),
            ("vqr", {"n_layers": 2**62}),
            ("qlstm", {"n_layers": 2**62}),
        ],
    )
    def test_oversized_model_is_config_error(self, tmp_path, capsys, campaign, kind, settings):
        """Each of these models has more than 2**63 bytes of parameters,
        which NumPy refuses without allocating anything."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        code, _, err = run(
            capsys,
            "train",
            "--model", kind,
            "--data", str(campaign),
            "--config", str(cfg),
            "--out", str(tmp_path / "big"),
        )
        assert code == 1
        last = err.splitlines()[-1]
        assert last.startswith(f"config error: {kind} model with ")
        assert str(models.count_params(kind, models.resolve_options(kind, settings))) in last

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("train", "--config"),
            ("grid-search", "--grid"),
            ("synth", "--profile"),
            ("report", "--report-file"),
        ],
    )
    def test_json_file_not_utf8_is_config_error(
        self, tmp_path, capsys, campaign, command, flag
    ):
        settings = tmp_path / "settings.json"
        settings.write_bytes(b'{"epochs": "\xff"}')
        out = ["--out", str(tmp_path / "o")]
        argv = {
            "train": ["--model", "ffnn", "--data", str(campaign), *out],
            "grid-search": ["--model", "ffnn", "--data", str(campaign), *out],
            "synth": out,
            "report": [],
        }[command]
        code, _, err = run(capsys, command, flag, str(settings), *argv)
        assert code == 1
        assert err.startswith("config error:")
        assert "not valid JSON" in err

    def test_predict_round_trip(self, tmp_path, capsys, campaign):
        train_dir = tmp_path / "trained"
        code, _, _ = run(
            capsys,
            "train",
            "--model", "ffnn",
            "--data", str(campaign),
            "--epochs", "2",
            "--seed", "3",
            "--out", str(train_dir),
        )
        assert code == 0
        pred_dir = tmp_path / "preds"
        code, _, _ = run(
            capsys,
            "predict",
            "--model-file", str(train_dir / "model.json"),
            "--data", str(campaign),
            "--out", str(pred_dir),
        )
        assert code == 0
        lines = (pred_dir / "predictions.csv").read_text().strip().split("\n")
        assert lines[0] == "timestamp,raw_pm25,calibrated_pm25,reference_pm25"
        assert len(lines) == 61  # header + one row per hour (window 1)

    def test_predict_missing_model(self, tmp_path, capsys, campaign):
        code, _, err = run(
            capsys,
            "predict",
            "--model-file", str(tmp_path / "ghost.json"),
            "--data", str(campaign),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert "data error" in err

    def test_predict_old_checkpoint_is_data_error(self, tmp_path, capsys, campaign):
        train_dir = tmp_path / "trained"
        code, _, _ = run(
            capsys,
            "train",
            "--model", "ffnn",
            "--data", str(campaign),
            "--epochs", "1",
            "--out", str(train_dir),
        )
        assert code == 0
        checkpoint = train_dir / "model.json"
        payload = json.loads(checkpoint.read_text())
        payload["schema_version"] = 99
        checkpoint.write_text(json.dumps(payload))
        code, _, err = run(
            capsys,
            "predict",
            "--model-file", str(checkpoint),
            "--data", str(campaign),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert err.startswith("data error:")
        assert "Traceback" not in err

    def test_predict_checkpoint_without_array_is_data_error(self, tmp_path, capsys, campaign):
        train_dir = tmp_path / "trained"
        code, _, _ = run(
            capsys,
            "train",
            "--model", "ffnn",
            "--data", str(campaign),
            "--epochs", "1",
            "--out", str(train_dir),
        )
        assert code == 0
        checkpoint = train_dir / "model.json"
        payload = json.loads(checkpoint.read_text())
        del payload["arrays"]["dense1.bias"]
        checkpoint.write_text(json.dumps(payload))
        code, _, err = run(
            capsys,
            "predict",
            "--model-file", str(checkpoint),
            "--data", str(campaign),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert err.startswith("data error:")
        assert "dense1.bias" in err
        assert "Traceback" not in err

    def test_train_divergence_reports_numeric_error(self, tmp_path, capsys, campaign):
        with np.errstate(all="ignore"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                code, _, err = run(
                    capsys,
                    "train",
                    "--model", "ffnn",
                    "--data", str(campaign),
                    "--epochs", "40",
                    "--learning-rate", "1e15",
                    "--loss", "mse",
                    "--seed", "1",
                    "--out", str(tmp_path / "div"),
                )
        assert code == 1
        assert "numeric error" in err
        assert "diverged" in err

    def test_python_warning_prints_as_one_line(self, tmp_path, capsys, campaign):
        """A window longer than the campaign warns on the way to its config
        error: the warning is one ``warning:`` line without the source path
        and line Python shows by default, and the typed error stays last."""
        code, _, err = run(
            capsys,
            "train",
            "--model", "lstm",
            "--epochs", "1",
            "--window", "100",
            "--data", str(campaign),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1
        lines = err.splitlines()
        assert "warning: no contiguous run is 100 hours long; no windows emitted" in lines
        assert lines[-1].startswith("config error:")
        assert ".py:" not in err


    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_learning_rate_is_config_error(self, tmp_path, capsys, campaign, rate):
        code, _, err = run(
            capsys,
            "train",
            "--model", "ffnn",
            "--data", str(campaign),
            "--epochs", "2",
            "--learning-rate", rate,
            "--out", str(tmp_path / "bad"),
        )
        assert code == 1
        assert err.startswith("config error:")
        assert "learning rate" in err
        assert "Traceback" not in err


# wrong-typed settings, each with the model kind that has the setting
BAD_SETTINGS = [
    ("qlstm", {"shared_fc_out": "false"}, "shared_fc_out"),
    ("vqr", {"n_layers": 1.9}, "n_layers"),
    ("ffnn", {"hidden_sizes": [2.7]}, "hidden_sizes"),
    ("ffnn", {"hidden_sizes": 5}, "hidden_sizes"),
    ("ffnn", {"hidden_sizes": [-1]}, "hidden_sizes"),
    ("ffnn", {"hidden_sizes": [0]}, "hidden_sizes"),
    ("lstm", {"n_layers": 0}, "n_layers"),
    ("ffnn", {"epochs": "a"}, "epochs"),
    ("ffnn", {"epochs": 1.5}, "epochs"),
    ("ffnn", {"batch_size": 2.5}, "batch_size"),
    ("ffnn", {"learning_rate": "0.1"}, "learning rate"),
    ("ffnn", {"seed": 1.9}, "seed"),
]
# small options per kind, so that a checkpoint or a fuzzed run stays cheap
SMALL_OPTIONS = {
    "ffnn": ({"hidden_sizes": [3, 2]}, 1),
    "lstm": ({"hidden_size": 2, "n_layers": 2}, 3),
    "vqr": ({"n_qubits": 4, "n_layers": 1}, 1),
    "qlstm": ({"n_qubits": 2, "n_layers": 1, "hidden_size": 2}, 2),
}


def save_untrained(campaign, kind, options, window, path):
    """Write the checkpoint of an untrained model scaled to the campaign."""
    sub = data.dataset_from_csv(campaign).select_features(
        models.default_options(kind)["features"]
    )
    model = models.build_model(
        kind,
        sub.feature_names,
        data.fit_scaler(sub.features, names=sub.feature_names),
        data.fit_scaler(sub.target, names=("ref_pm25",)),
        options=options,
        window=window,
    )
    models.save_model(model, path)


class TestSettingTypes:
    @pytest.mark.parametrize("kind,settings,named", BAD_SETTINGS)
    def test_wrong_type_in_config_is_config_error(
        self, tmp_path, capsys, campaign, kind, settings, named
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        code, _, err = run(
            capsys,
            "train",
            "--model", kind,
            "--data", str(campaign),
            "--config", str(cfg),
            "--out", str(tmp_path / "bad"),
        )
        assert code == 1
        assert err.splitlines()[-1].startswith("config error:")
        assert named in err

    @pytest.mark.parametrize("kind,settings,named", BAD_SETTINGS)
    def test_wrong_type_in_checkpoint_is_data_error(
        self, tmp_path, capsys, campaign, kind, settings, named
    ):
        checkpoint = tmp_path / "model.json"
        save_untrained(campaign, kind, *SMALL_OPTIONS[kind], checkpoint)
        payload = json.loads(checkpoint.read_text())
        payload["options"].update(settings)
        checkpoint.write_text(json.dumps(payload))
        code, _, err = run(
            capsys,
            "predict",
            "--model-file", str(checkpoint),
            "--data", str(campaign),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert err.startswith(f"data error: checkpoint {checkpoint} describes no model")
        assert named.split()[0] in err

    @pytest.mark.parametrize("command,predicts", [("train", 1), ("cross-validate", 4)])
    def test_held_out_hours_predicted_once(
        self, tmp_path, capsys, campaign, monkeypatch, command, predicts
    ):
        calls = []
        predict = models._ModelBase.predict

        def counting_predict(self, x):
            calls.append(len(x))
            return predict(self, x)

        monkeypatch.setattr(models._ModelBase, "predict", counting_predict)
        extra = ["--folds", "4", "--benchmark-draws", "0"] if command == "cross-validate" else []
        code, _, _ = run(
            capsys,
            command,
            "--model", "ffnn",
            "--data", str(campaign),
            "--epochs", "1",
            *extra,
            "--out", str(tmp_path / "o"),
        )
        assert code == 0
        assert len(calls) == predicts


ERROR_PREFIXES = ("config error:", "data error:", "numeric error:", "io error:")
DELETE = object()
# small numbers only: options size the model before its arrays are checked
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.integers(10**4, 10**12)  # sizes no checkpoint may allocate
    | st.floats(-40.0, 40.0)
    | st.sampled_from([float("nan"), float("inf")])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


def json_paths(node, prefix=()):
    """Paths to every member of a JSON tree; a list contributes its first item."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from json_paths(value, prefix + (key,))
    elif isinstance(node, list) and node:
        yield from json_paths(node[0], prefix + (0,))


class TestCheckpointFuzz:
    @pytest.mark.parametrize(
        "kind,options,window",
        [
            ("ffnn", {"hidden_sizes": (3, 2)}, 1),
            ("lstm", {"hidden_size": 2, "n_layers": 2}, 3),
            ("vqr", {"n_qubits": 4, "n_layers": 1}, 1),
            ("qlstm", {"n_qubits": 2, "n_layers": 1, "hidden_size": 2}, 2),
        ],
    )
    def test_mutated_checkpoint_never_tracebacks(
        self, tmp_path, capsys, campaign, kind, options, window
    ):
        """Deleting or replacing any member of a valid model.json ends
        predict with exit 0, or exit 1 and a typed error prefix."""
        checkpoint = tmp_path / "model.json"
        save_untrained(campaign, kind, options, window, checkpoint)
        valid = json.loads(checkpoint.read_text())
        paths = [path for path in json_paths(valid) if path]

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(st.sampled_from(paths), st.one_of(st.just(DELETE), JSON_VALUES))
        def mutate_and_predict(path, value):
            payload = json.loads(json.dumps(valid))
            *parents, last = path
            node = payload
            for key in parents:
                node = node[key]
            if value is DELETE:
                del node[last]
            else:
                node[last] = value
            checkpoint.write_text(json.dumps(payload))
            code, _, err = run(
                capsys,
                "predict",
                "--model-file", str(checkpoint),
                "--data", str(campaign),
                "--out", str(tmp_path / "o"),
            )
            assert "Traceback" not in err
            assert code in (0, 1)
            if code == 1:
                assert err.splitlines()[-1].startswith(ERROR_PREFIXES)

        mutate_and_predict()


SETTING_VALUES = st.one_of(
    st.integers(-3, 5),
    st.floats(-3.0, 5.0) | st.sampled_from([float("nan"), float("inf")]),
    st.text(max_size=4) | st.sampled_from(["pm25", "temp", "adam", "mse", "relu", "nonlinear"]),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-1, 4) | st.sampled_from(["pm25", "temp", "x"]), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)


class TestConfigFuzz:
    def test_fuzzed_config_never_tracebacks(self, tmp_path, capsys, campaign):
        """One training field or model option of a --config file set to a
        value of any JSON type ends train with exit 0, or exit 1 and a typed
        error prefix."""
        fields = sorted(models.TrainConfig.__dataclass_fields__)
        setting = st.sampled_from(models.MODEL_KINDS).flatmap(
            lambda kind: st.tuples(
                st.just(kind), st.sampled_from(fields + sorted(models.default_options(kind)))
            )
        )
        cfg = tmp_path / "cfg.json"

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(setting, SETTING_VALUES)
        def train_with(kind_and_name, value):
            kind, name = kind_and_name
            options, window = SMALL_OPTIONS[kind]
            cfg.write_text(json.dumps({"epochs": 1, "window": window, **options, name: value}))
            code, _, err = run(
                capsys,
                "train",
                "--model", kind,
                "--data", str(campaign),
                "--config", str(cfg),
                "--out", str(tmp_path / "o"),
            )
            assert "Traceback" not in err
            assert code in (0, 1)
            if code == 1:
                assert err.splitlines()[-1].startswith(ERROR_PREFIXES)

        train_with()


def profile_value_fits(field, value) -> bool:
    """Whether ``synth`` must accept ``value`` for the ``SynthProfile`` field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if field in ("n_pm_sensors", "n_env_sensors"):
        low = 1 if field == "n_pm_sensors" else 0
        return isinstance(value, int) and low <= value <= data.MAX_SENSORS
    if field == "sample_period_s":
        return isinstance(value, int) and value >= 1
    return math.isfinite(value) and (field != "noise_std" or value >= 0)


class TestProfileFuzz:
    def test_fuzzed_profile_never_tracebacks(self, tmp_path, capsys, monkeypatch):
        """One field of a --profile file set to a value of any JSON type ends
        synth with exit 0 when the value fits the field, and otherwise with
        exit 1 and a config error naming the field."""
        monkeypatch.delenv("QSCALE_SEED", raising=False)
        profile = tmp_path / "p.json"

        # JSON_VALUES draws mostly lists and objects; plain numbers are drawn
        # as often again, so that the range checks meet values on both sides
        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(
            st.sampled_from(sorted(data.SynthProfile.__dataclass_fields__)),
            st.integers(-3, 40) | st.floats(-40.0, 40.0) | JSON_VALUES,
        )
        def synth_with(field, value):
            profile.write_text(json.dumps({field: value}))
            code, _, err = run(
                capsys,
                "synth", "--hours", "48", "--profile", str(profile),
                "--out", str(tmp_path / "o"),
            )
            assert "Traceback" not in err
            assert code == (0 if profile_value_fits(field, value) else 1)
            if code == 1:
                assert err.splitlines()[-1].startswith(f"config error: profile field {field} ")

        synth_with()


SENSOR_MUTATIONS = ("empty", "text", "nan", "stamp", "short", "wide", "quantity", "bytes")
# cell mutations: (fixed column or None for the drawn one, new cell text)
SENSOR_CELL_MUTATIONS = {
    "empty": (None, ""),
    "text": (None, "abc"),
    "nan": (3, "nan"),
    "stamp": (0, "2023-13-45T99:00:00Z"),
    "quantity": (2, "co2"),
}


class TestRawLogFuzz:
    def test_mutated_sensor_log_never_tracebacks(self, tmp_path, capsys, monkeypatch):
        """Mutating rows of a valid sensors.csv ends prepare with exit 0, or
        exit 1 and a typed error prefix."""
        monkeypatch.delenv("QSCALE_SEED", raising=False)
        raw = tmp_path / "raw"
        code, _, _ = run(capsys, "synth", "--seed", "6", "--hours", "48", "--out", str(raw))
        assert code == 0
        header, *valid = (raw / "sensors.csv").read_text().splitlines()
        sensors = tmp_path / "sensors.csv"
        mutation = st.tuples(
            st.sampled_from(SENSOR_MUTATIONS), st.integers(0, len(valid) - 1), st.integers(0, 3)
        )

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(st.lists(mutation, min_size=1, max_size=3))
        @example([("short", 0, 0), ("empty", 0, 1)])
        def mutate_and_prepare(mutations):
            cells = [line.split(",") for line in valid]
            suffix = b""
            for kind, row, column in mutations:
                if kind in SENSOR_CELL_MUTATIONS:
                    fixed, text = SENSOR_CELL_MUTATIONS[kind]
                    column = column if fixed is None else fixed
                    if column < len(cells[row]):  # a "short" mutation may have cut it off
                        cells[row][column] = text
                elif kind == "short":
                    cells[row] = cells[row][: column or 1]
                elif kind == "wide":
                    cells[row] = cells[row][:4] + ["1.0"]
                else:
                    suffix = b"\xff"
            body = "\n".join([header, *(",".join(c) for c in cells)]) + "\n"
            sensors.write_bytes(body.encode() + suffix)
            code, _, err = run(
                capsys,
                "prepare",
                "--sensors", str(sensors),
                "--reference", str(raw / "reference.csv"),
                "--out", str(tmp_path / "o"),
            )
            assert "Traceback" not in err
            assert code in (0, 1)
            if code == 1:
                assert err.splitlines()[-1].startswith(ERROR_PREFIXES)

        mutate_and_prepare()


REFERENCE_MUTATIONS = ("empty", "text", "nan", "repeat-hour", "off-hour", "columns")


class TestReferenceFuzz:
    def test_mutated_reference_never_tracebacks(self, tmp_path, capsys, monkeypatch):
        """Mutating cells of a valid reference.csv ends prepare with exit 0,
        or exit 1 and a typed error prefix."""
        monkeypatch.delenv("QSCALE_SEED", raising=False)
        raw = tmp_path / "raw"
        code, _, _ = run(capsys, "synth", "--seed", "4", "--hours", "48", "--out", str(raw))
        assert code == 0
        header, *valid = (raw / "reference.csv").read_text().splitlines()
        reference = tmp_path / "reference.csv"
        rows = st.integers(0, len(valid) - 1)
        mutation = st.tuples(
            st.sampled_from(REFERENCE_MUTATIONS), rows, st.integers(0, 1), rows
        )

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(st.lists(mutation, min_size=1, max_size=3))
        def mutate_and_prepare(mutations):
            cells = [line.split(",") for line in valid]
            widths = [2] * len(cells)
            for kind, row, column, other in mutations:
                if kind == "empty":
                    cells[row][column] = ""
                elif kind == "text":
                    cells[row][column] = "abc"
                elif kind == "nan":
                    cells[row][1] = "nan"
                elif kind == "repeat-hour":
                    cells[row][0] = cells[other][0]
                elif kind == "off-hour":
                    stamp = data.parse_timestamp(valid[row].split(",")[0])
                    cells[row][0] = data.format_timestamp(stamp + 60 * (other + 1))
                else:
                    widths[row] = 3 if column else 1
            body = [",".join((row + ["1.0"])[:w]) for row, w in zip(cells, widths)]
            reference.write_text("\n".join([header, *body]) + "\n")
            code, _, err = run(
                capsys,
                "prepare",
                "--sensors", str(raw / "sensors.csv"),
                "--reference", str(reference),
                "--out", str(tmp_path / "o"),
            )
            assert "Traceback" not in err
            assert code in (0, 1)
            if code == 1:
                assert err.splitlines()[-1].startswith(ERROR_PREFIXES)

        mutate_and_prepare()


class TestDatasetDefects:
    @pytest.mark.parametrize("command", ["train", "benchmark"])
    @pytest.mark.parametrize(
        "defect,stamp",
        [
            ("swap", "2023-01-01T03:00:00Z"),
            ("repeat", "2023-01-01T03:00:00Z"),
            ("off-grid", "2023-01-01T04:30:00Z"),
        ],
    )
    def test_dataset_stamp_defect_names_line_and_stamp(
        self, tmp_path, capsys, campaign, command, defect, stamp
    ):
        header, *rows = campaign.read_text().splitlines()
        cells = [row.split(",") for row in rows]
        if defect == "swap":
            cells[3], cells[4] = cells[4], cells[3]
        elif defect == "repeat":
            cells[4][0] = cells[3][0]
        else:
            cells[4][0] = stamp
        bad = tmp_path / "dataset.csv"
        bad.write_text("\n".join([header, *(",".join(c) for c in cells)]) + "\n")
        argv = ["--model", "ffnn", "--epochs", "1"] if command == "train" else []
        code, _, err = run(
            capsys, command, "--data", str(bad), *argv, "--out", str(tmp_path / "o")
        )
        assert code == 1
        assert err.splitlines()[-1].startswith(f"data error: {bad}:6: timestamp {stamp}")

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    @pytest.mark.parametrize("column,cell", [(2, "nan"), (5, "-inf")])
    def test_non_finite_cell_names_line(self, tmp_path, capsys, campaign, command, column, cell):
        header, *rows = campaign.read_text().splitlines()
        cells = [row.split(",") for row in rows]
        cells[4][column] = cell
        bad = tmp_path / "dataset.csv"
        bad.write_text("\n".join([header, *(",".join(c) for c in cells)]) + "\n")
        argv = ["--model", "ffnn", "--epochs", "1"] if command == "train" else []
        code, _, err = run(
            capsys, command, "--data", str(bad), *argv, "--out", str(tmp_path / "o")
        )
        assert code == 1
        name = header.split(",")[column]
        assert err.splitlines()[-1] == f"data error: {bad}:6: {name} value '{cell}' is not finite"
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "predict", "cross-validate", "benchmark"])
    def test_blank_pm25_column_is_data_error(self, tmp_path, capsys, campaign, command):
        """Every series row reads the raw pm25 column, so a dataset without
        one is rejected when read, before any model trains or predicts."""
        header, *rows = campaign.read_text().splitlines()
        cells = [row.split(",") for row in rows]
        bad = tmp_path / "dataset.csv"
        bad.write_text("\n".join([header, *(",".join([c[0], "", *c[2:]]) for c in cells)]) + "\n")
        fit = ["--model", "ffnn", "--epochs", "1", "--features", "temp,hum,press"]
        argv = {"train": fit, "cross-validate": [*fit, "--folds", "2"], "benchmark": []}
        if command == "predict":
            model_dir = tmp_path / "m"
            code, _, _ = run(capsys, "train", "--data", str(campaign), *fit, "--out", str(model_dir))
            assert code == 0
            argv["predict"] = ["--model-file", str(model_dir / "model.json")]
        code, _, err = run(
            capsys, command, "--data", str(bad), *argv[command], "--out", str(tmp_path / "o")
        )
        assert code == 1
        assert err.startswith(f"data error: {bad}: ")
        assert "Traceback" not in err

    def test_dataset_not_utf8_is_data_error(self, tmp_path, capsys, campaign):
        bad = tmp_path / "dataset.csv"
        bad.write_bytes(campaign.read_bytes() + b"\xff\n")
        code, _, err = run(capsys, "benchmark", "--data", str(bad))
        assert code == 1
        assert err.startswith(f"data error: cannot read {bad}")


DATASET_MUTATIONS = (
    "empty", "text", "nan", "inf", "huge", "repeat-hour", "off-hour", "swap", "columns", "bytes"
)


class TestDatasetFuzz:
    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_mutated_dataset_never_tracebacks(self, tmp_path, capsys, campaign, command):
        """Mutating cells of a valid dataset.csv ends train and benchmark
        with exit 0, or exit 1 and a typed error prefix."""
        header, *valid = campaign.read_text().splitlines()
        dataset = tmp_path / "dataset.csv"
        rows = st.integers(0, len(valid) - 1)
        mutation = st.tuples(
            st.sampled_from(DATASET_MUTATIONS), rows, st.integers(0, 5), rows
        )
        argv = ["--model", "ffnn", "--epochs", "1"] if command == "train" else ["--draws", "5"]

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(st.lists(mutation, min_size=1, max_size=3))
        def mutate_and_run(mutations):
            cells = [line.split(",") for line in valid]
            suffix = b""
            for kind, row, column, other in mutations:
                if kind == "empty":
                    cells[row][column] = ""
                elif kind == "text":
                    cells[row][column] = "abc"
                elif kind in ("nan", "inf", "huge"):
                    cells[row][max(column, 1)] = {"nan": "nan", "inf": "-inf", "huge": "1e308"}[kind]
                elif kind == "repeat-hour":
                    cells[row][0] = cells[other][0]
                elif kind == "off-hour":
                    stamp = data.parse_timestamp(valid[row].split(",")[0])
                    cells[row][0] = data.format_timestamp(stamp + 60 * (column + 1))
                elif kind == "swap":
                    cells[row], cells[other] = cells[other], cells[row]
                elif kind == "columns":
                    cells[row] = cells[row][:column] or ["x"]
                else:
                    suffix = b"\xff\n"
            body = "\n".join([header, *(",".join(c) for c in cells)]) + "\n"
            dataset.write_bytes(body.encode() + suffix)
            code, _, err = run(
                capsys, command, "--data", str(dataset), *argv, "--out", str(tmp_path / "o")
            )
            assert "Traceback" not in err
            assert code in (0, 1)
            if code == 1:
                assert err.splitlines()[-1].startswith(ERROR_PREFIXES)

        mutate_and_run()


class TestBenchmark:
    def test_perfect_campaign_prints_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("QSCALE_SEED", raising=False)
        out = tmp_path / "perfect"
        code, _, _ = run(
            capsys, "synth", "--seed", "7", "--hours", "48", "--out", str(out)
        )
        assert code == 0
        code, stdout, _ = run(
            capsys,
            "benchmark",
            "--data", str(out / "dataset.csv"),
            "--loss", "l1",
            "--draws", "20",
        )
        assert code == 0
        assert stdout.strip() == "0.0"

    def test_distorted_campaign_positive(self, tmp_path, capsys, campaign):
        code, stdout, _ = run(
            capsys, "benchmark", "--data", str(campaign), "--loss", "rmse",
            "--draws", "10", "--seed", "2",
        )
        assert code == 0
        assert float(stdout.strip()) > 1.0

    def test_benchmark_report_output(self, tmp_path, capsys, campaign):
        out = tmp_path / "benchout"
        code, _, _ = run(
            capsys,
            "benchmark",
            "--data", str(campaign),
            "--loss", "l1",
            "--sample-size", "15",
            "--draws", "30",
            "--seed", "4",
            "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["benchmark"]["sample_size"] == 15
        assert report["benchmark"]["n_draws"] == 30
        assert report["model_kind"] == "uncalibrated"


class TestForgedCheckpoint:
    def test_forged_widths_are_data_error_before_building(
        self, tmp_path, capsys, campaign, monkeypatch
    ):
        """Hidden widths [350, 350] add up to the 701 values a default ffnn
        checkpoint stores but name 124,951 parameters: predict ends with a
        data error before any model is built."""
        checkpoint = tmp_path / "model.json"
        save_untrained(campaign, "ffnn", {}, 1, checkpoint)
        payload = json.loads(checkpoint.read_text())
        payload["options"]["hidden_sizes"] = [350, 350]
        checkpoint.write_text(json.dumps(payload))

        def refuse(*args, **kwargs):
            raise AssertionError("build_model ran on forged sizes")

        monkeypatch.setattr(models, "build_model", refuse)
        code, _, err = run(
            capsys,
            "predict",
            "--model-file", str(checkpoint),
            "--data", str(campaign),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert err.startswith("data error:")
        assert "its options name 124951 parameters, more than the 701 values" in err

    def test_forged_window_is_data_error(self, tmp_path, capsys, campaign):
        """An lstm's parameters do not depend on its window, so a checkpoint
        window of 10**12 hours loads; predict finds no window that fits and
        ends with a data error instead of allocating for it."""
        checkpoint = tmp_path / "model.json"
        save_untrained(campaign, "lstm", *SMALL_OPTIONS["lstm"], checkpoint)
        payload = json.loads(checkpoint.read_text())
        payload["window"] = 10**12
        checkpoint.write_text(json.dumps(payload))
        out = tmp_path / "o"
        code, _, err = run(
            capsys, "predict", "--model-file", str(checkpoint), "--data", str(campaign),
            "--out", str(out),
        )
        assert code == 1
        assert err.splitlines()[-1] == "data error: no prediction windows fit in the dataset"
        assert not (out / "predictions.csv").exists()


class TestNegativeSeeds:
    """A negative seed reaching numpy's SeedSequence would raise ValueError;
    each entry point rejects it first."""

    def test_negative_environment_seed_in_benchmark(self, capsys, campaign, monkeypatch):
        monkeypatch.setenv("QSCALE_SEED", "-2")
        code, _, err = run(capsys, "benchmark", "--data", str(campaign), "--draws", "5")
        assert code == 1
        assert "config error: QSCALE_SEED must be non-negative" in err

    def test_negative_fold_seed_in_cross_validate(self, tmp_path, capsys, campaign):
        code, _, err = run(
            capsys,
            "cross-validate",
            "--model", "ffnn",
            "--data", str(campaign),
            "--epochs", "1",
            "--fold-seed", "-1",
            "--out", str(tmp_path / "cv"),
        )
        assert code == 1
        assert "config error: fold seed must be non-negative" in err


class TestNegativeDrawCounts:
    @pytest.mark.parametrize(
        "command,flag", [("benchmark", "--draws"), ("cross-validate", "--benchmark-draws")]
    )
    def test_negative_draw_count_is_config_error(
        self, tmp_path, capsys, campaign, command, flag
    ):
        extra = ["--model", "ffnn", "--epochs", "1", "--folds", "2"]
        if command == "benchmark":
            extra = []
        out = tmp_path / "o"
        code, _, err = run(
            capsys, command, *extra, "--data", str(campaign), flag, "-5", "--out", str(out)
        )
        assert code == 1
        assert err.splitlines()[-1].startswith("config error:")
        assert "non-negative" in err
        assert not (out / "report.json").exists()


class TestOversizedRequests:
    """A count too large to allocate is a config error naming it, not a
    NumPy ``MemoryError`` traceback."""

    @pytest.mark.parametrize(
        "command,argv",
        [
            ("synth", ["--hours", str(10**15)]),
            ("benchmark", ["--draws", str(10**15)]),
            ("cross-validate", ["--model", "ffnn", "--epochs", "1", "--folds", "2",
                                "--benchmark-draws", str(10**15)]),
        ],
        ids=["synth-hours", "benchmark-draws", "cross-validate-benchmark-draws"],
    )
    def test_oversized_count_is_config_error(
        self, tmp_path, capsys, monkeypatch, campaign, command, argv
    ):
        # cross-validate refuses the draw count before it trains any fold
        folds_run = []
        monkeypatch.setattr(
            experiments, "cross_validate", lambda *args, **kwargs: folds_run.append(args)
        )
        extra = [] if command == "synth" else ["--data", str(campaign)]
        out = tmp_path / "o"
        code, stdout, err = run(capsys, command, *argv, *extra, "--out", str(out))
        assert folds_run == []
        assert code == 1
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("config error:")
        assert f"{10**15} " in err
        assert stdout == ""
        assert not (out / "manifest.json").exists()


class TestCrossValidateCommand:
    def test_cross_validate_writes_report(self, tmp_path, capsys, campaign):
        out = tmp_path / "cv"
        code, stdout, _ = run(
            capsys,
            "cross-validate",
            "--model", "ffnn",
            "--data", str(campaign),
            "--epochs", "2",
            "--learning-rate", "0.02",
            "--optimizer", "adam",
            "--folds", "3",
            "--benchmark-draws", "40",
            "--seed", "9",
            "--threads", "2",
            "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["folds"]) == 3
        assert report["fold_spec"]["mode"] == "shuffled"
        assert report["benchmark"]["sample_size"] == 60 // 3
        averages = json.loads(stdout)
        assert averages == report["fold_average"]

    def test_default_protocol_folds(self, tmp_path, capsys, campaign):
        out = tmp_path / "cvdefault"
        code, _, _ = run(
            capsys,
            "cross-validate",
            "--model", "ffnn",
            "--data", str(campaign),
            "--epochs", "1",
            "--benchmark-draws", "0",
            "--seed", "0",
            "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["fold_spec"] == {"k": 4, "mode": "shuffled", "seed": 0}
        assert report["benchmark"] is None

    def test_rerun_is_byte_identical(self, tmp_path, capsys, campaign):
        argv = [
            "cross-validate",
            "--model", "ffnn",
            "--data", str(campaign),
            "--epochs", "2",
            "--learning-rate", "0.02",
            "--optimizer", "adam",
            "--folds", "3",
            "--benchmark-draws", "25",
            "--seed", "4",
        ]
        a, b = tmp_path / "runA", tmp_path / "runB"
        assert cli.main(argv + ["--out", str(a), "--threads", "1"]) == 0
        assert cli.main(argv + ["--out", str(b), "--threads", "4"]) == 0
        capsys.readouterr()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()


class TestGridSearchCommand:
    def test_grid_search_ranks_and_persists(self, tmp_path, capsys, campaign):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"epochs": [0, 3]}))
        out = tmp_path / "gs"
        code, stdout, err = run(
            capsys,
            "grid-search",
            "--model", "ffnn",
            "--data", str(campaign),
            "--grid", str(grid),
            "--learning-rate", "0.02",
            "--optimizer", "adam",
            "--loss", "mse",
            "--seed", "6",
            "--threads", "2",
            "--out", str(out),
        )
        assert code == 0
        assert "2 configurations" in err
        payload = json.loads((out / "grid.json").read_text())
        assert payload["grid_size"] == 2
        assert len(payload["entries"]) == 2
        best = json.loads(stdout)
        assert best["params"]["epochs"] == 3

    def test_oversized_point_is_recorded_as_failed(self, tmp_path, capsys, campaign):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"hidden_sizes": [[10**10, 10**10], [3]], "epochs": [1]}))
        out = tmp_path / "gs"
        code, stdout, _ = run(
            capsys,
            "grid-search",
            "--model", "ffnn",
            "--data", str(campaign),
            "--grid", str(grid),
            "--out", str(out),
        )
        assert code == 0
        failed, trained = json.loads((out / "grid.json").read_text())["entries"]
        assert failed["error"].startswith("ConfigurationError: ffnn model with ")
        assert "error" not in trained
        assert json.loads(stdout)["index"] == 1

    def test_grid_axis_must_be_list(self, tmp_path, capsys, campaign):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"epochs": 3}))
        code, _, err = run(
            capsys,
            "grid-search",
            "--model", "ffnn",
            "--data", str(campaign),
            "--grid", str(grid),
            "--out", str(tmp_path / "gs2"),
        )
        assert code == 1
        assert "config error" in err


@pytest.fixture()
def cv_report(tmp_path, capsys, campaign):
    """report.json of a 2-fold ffnn cross-validation of the campaign."""
    out = tmp_path / "cv"
    code, _, _ = run(
        capsys,
        "cross-validate",
        "--model", "ffnn",
        "--data", str(campaign),
        "--epochs", "1",
        "--folds", "2",
        "--benchmark-draws", "5",
        "--out", str(out),
    )
    assert code == 0
    return out / "report.json"


class TestReportCommand:
    def test_report_prints_summary(self, tmp_path, capsys, campaign):
        out = tmp_path / "cv"
        code, _, _ = run(
            capsys,
            "cross-validate",
            "--model", "ffnn",
            "--data", str(campaign),
            "--epochs", "1",
            "--folds", "3",
            "--benchmark-draws", "10",
            "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        code, stdout, _ = run(
            capsys, "report", "--report-file", str(out / "report.json")
        )
        assert code == 0
        assert "model: ffnn" in stdout
        assert "fold 0:" in stdout
        assert "fold average:" in stdout
        assert "benchmark (l1):" in stdout

    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda report: report.clear(), "model_kind"),
            (lambda report: report.pop("benchmark"), "benchmark"),
            (lambda report: report["folds"][1].pop("l1"), "l1"),
            (lambda report: report["fold_average"].update(mse="x"), "mse"),
        ],
        ids=["empty", "no-benchmark", "fold-without-l1", "text-mse"],
    )
    def test_report_bad_field_is_data_error(self, capsys, cv_report, edit, named):
        report = json.loads(cv_report.read_text())
        edit(report)
        cv_report.write_text(json.dumps(report))
        code, stdout, err = run(capsys, "report", "--report-file", str(cv_report))
        assert code == 1
        assert stdout == ""
        assert err.startswith("data error:")
        assert named in err

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("folds", "x", "folds must be a list or null, not a string"),
            ("folds", [3], "folds[0] must be an object or null, not a number"),
            ("fold_average", ["l1"], "fold_average must be an object or null, not a list"),
            ("test_losses", 2.5, "test_losses must be an object or null, not a number"),
            ("benchmark", True, "benchmark must be an object or null, not true or false"),
        ],
        ids=["folds-text", "fold-number", "fold-average-list", "test-losses-number", "benchmark-bool"],
    )
    def test_report_wrong_type_names_field(self, capsys, cv_report, field, value, message):
        """A field of the wrong JSON type is a data error that names the
        field and the type it needs, not Python's indexing message."""
        report = json.loads(cv_report.read_text())
        report[field] = value
        cv_report.write_text(json.dumps(report))
        code, stdout, err = run(capsys, "report", "--report-file", str(cv_report))
        assert (code, stdout) == (1, "")
        assert err.strip() == f"data error: report {cv_report} has a malformed field: {message}"

    def test_mutated_report_never_tracebacks(self, capsys, cv_report):
        """Deleting or replacing any member of a valid report.json ends
        report with exit 0, or exit 1 and a typed error prefix."""
        valid = json.loads(cv_report.read_text())
        valid["test_losses"] = dict(valid["fold_average"])
        valid["folds"].append({"fold": 2, "error": "training diverged at epoch 0"})
        paths = [path for path in json_paths(valid) if path]

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(st.sampled_from(paths), st.one_of(st.just(DELETE), JSON_VALUES))
        def mutate_and_report(path, value):
            payload = json.loads(json.dumps(valid))
            *parents, last = path
            node = payload
            for key in parents:
                node = node[key]
            if value is DELETE:
                del node[last]
            else:
                node[last] = value
            cv_report.write_text(json.dumps(payload))
            code, _, err = run(capsys, "report", "--report-file", str(cv_report))
            assert "Traceback" not in err
            assert code in (0, 1)
            if code == 1:
                assert err.splitlines()[-1].startswith(ERROR_PREFIXES)

        mutate_and_report()

    def test_report_missing_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "report", "--report-file", str(tmp_path / "none.json")
        )
        assert code == 1
        assert "data error" in err


CONFIG_KEYS = {"batch_size", "epochs", "learning_rate", "loss", "optimizer", "seed", "window"}
# the settings keys of each command's manifest.json
MANIFEST_SETTINGS = {
    "prepare": {
        "sensors", "reference", "granularity", "n_hours",
        "interpolated_cells", "dropped_rows", "malformed_rows", "malformed_by_reason",
    },
    "synth": {"hours", "profile"},
    "train": CONFIG_KEYS
    | {"activation", "features", "hidden_sizes", "data", "model", "train_fraction"},
    "predict": {"model_file", "data", "rows"},
    "cross-validate": CONFIG_KEYS
    | {"activation", "features", "hidden_sizes", "data", "model", "fold_spec", "benchmark_draws"},
    "grid-search": CONFIG_KEYS
    | {"activation", "features", "hidden_sizes", "data", "model", "grid", "train_fraction",
       "rank_loss"},
    "benchmark": {"data", "loss", "sample_size", "draws"},
}


def run_to_out(capsys, command, tmp_path, campaign, missing_input=False):
    """Run a small ``command`` into tmp_path / "out", with seed 3 where it
    takes one; ``missing_input`` swaps the file it reads first for a path
    that does not exist.  Returns (code, stdout, stderr, out)."""
    raw = campaign.parent
    missing = tmp_path / "missing.csv" if missing_input else None
    dataset = str(missing or campaign)
    model = tmp_path / "model.json"
    if command == "predict":
        save_untrained(campaign, "ffnn", *SMALL_OPTIONS["ffnn"], model)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"epochs": [0, 1]}))
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"gain": 1.1}))
    argv = {
        "prepare": ["--sensors", str(missing or raw / "sensors.csv"),
                    "--reference", str(raw / "reference.csv")],
        "synth": ["--hours", "48", "--seed", "3", "--profile", str(missing or profile)],
        "train": ["--model", "ffnn", "--epochs", "1", "--seed", "3", "--data", dataset],
        "predict": ["--model-file", str(model), "--data", dataset],
        "cross-validate": ["--model", "ffnn", "--epochs", "1", "--folds", "2",
                           "--benchmark-draws", "5", "--seed", "3", "--data", dataset],
        "grid-search": ["--model", "ffnn", "--grid", str(grid), "--seed", "3", "--data", dataset],
        "benchmark": ["--draws", "5", "--seed", "3", "--data", dataset],
    }[command]
    out = tmp_path / "out"
    code, stdout, err = run(capsys, command, *argv, "--out", str(out))
    return code, stdout, err, out


class TestManifests:
    @pytest.mark.parametrize("command", sorted(MANIFEST_SETTINGS))
    def test_each_command_writes_its_manifest(self, tmp_path, capsys, campaign, command):
        code, _, err, out = run_to_out(capsys, command, tmp_path, campaign)
        assert code == 0, err
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"command", "settings", "seed", "versions", "wall_time_s"}
        assert manifest["command"] == command
        assert set(manifest["settings"]) == MANIFEST_SETTINGS[command]
        assert manifest["seed"] == (0 if command in ("prepare", "predict") else 3)

    def test_prepare_counts_malformed_rows_by_reason(self, tmp_path, capsys, campaign):
        """A sensor log with one row of each of three faults: the manifest
        names the count of every reason of ``data.MALFORMED_REASONS`` beside
        their total."""
        raw = campaign.parent
        header, *rows = (raw / "sensors.csv").read_text().splitlines()
        stamp, sensor, _, value = rows[0].split(",")
        faults = [
            f"{stamp},{sensor},co2,{value}", f"{stamp},{sensor},pm25,abc", f"{stamp},{sensor}"
        ]
        sensors = tmp_path / "sensors.csv"
        sensors.write_text("\n".join([header, *rows, *faults]) + "\n")
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "prepare", "--sensors", str(sensors), "--reference", str(raw / "reference.csv"),
            "--out", str(out),
        )
        assert code == 0, err
        settings = json.loads((out / "manifest.json").read_text())["settings"]
        want = {"unknown_quantity": 1, "non_numeric_value": 1, "wrong_column_count": 1}
        assert settings["malformed_by_reason"] == {
            reason: want.get(reason, 0) for reason in data.MALFORMED_REASONS
        }
        assert settings["malformed_rows"] == 3

    @pytest.mark.parametrize("command", sorted(MANIFEST_SETTINGS))
    def test_failed_command_writes_no_manifest(self, tmp_path, capsys, campaign, command):
        code, _, err, out = run_to_out(capsys, command, tmp_path, campaign, missing_input=True)
        assert code == 1
        assert err.splitlines()[-1].startswith("data error:")
        assert not (out / "manifest.json").exists()

    def test_report_and_benchmark_without_out_write_no_manifest(
        self, tmp_path, capsys, campaign, cv_report, monkeypatch
    ):
        before = sorted(tmp_path.rglob("manifest.json"))
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "benchmark", "--data", str(campaign), "--draws", "5")
        assert code == 0
        code, _, _ = run(capsys, "report", "--report-file", str(cv_report))
        assert code == 0
        assert sorted(tmp_path.rglob("manifest.json")) == before

    @pytest.mark.parametrize("command", ["cross-validate", "grid-search"])
    def test_training_manifest_echoes_resolved_settings(
        self, tmp_path, capsys, campaign, command
    ):
        """The manifest holds the flags given and every default they left:
        the kind's config fields and its options."""
        extra = ["--folds", "2", "--benchmark-draws", "0"]
        if command == "grid-search":
            grid = tmp_path / "grid.json"
            grid.write_text(json.dumps({"learning_rate": [0.01]}))
            extra = ["--grid", str(grid)]
        out = tmp_path / "out"
        code, _, err = run(
            capsys, command, "--model", "ffnn", "--data", str(campaign), "--epochs", "2",
            "--features", "pm25,temp", *extra, "--out", str(out),
        )
        assert code == 0, err
        settings = json.loads((out / "manifest.json").read_text())["settings"]
        assert settings["epochs"] == 2
        assert settings["features"] == ["pm25", "temp"]
        assert settings["hidden_sizes"] == [30, 15, 5]
        assert settings["activation"] == "tanh"
        assert settings["optimizer"] == "sgd"

    def test_config_file_merges_over_kind_defaults(self, tmp_path, capsys, campaign):
        """Fields a config file leaves out take the model kind's defaults,
        not ``TrainConfig``'s."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "n_layers": 1}))
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "train", "--model", "vqr", "--data", str(campaign),
            "--config", str(cfg), "--out", str(out),
        )
        assert code == 0, err
        want = {**asdict(models.default_config("vqr")), "epochs": 1}
        assert json.loads((out / "report.json").read_text())["config"] == want
        settings = json.loads((out / "manifest.json").read_text())["settings"]
        assert {key: settings[key] for key in want} == want
        assert (settings["n_qubits"], settings["n_layers"]) == (4, 1)

    @pytest.mark.parametrize("command", ["train", "cross-validate", "grid-search"])
    def test_unknown_config_field_is_config_error(self, tmp_path, capsys, campaign, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "momentum": 0.9}))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"learning_rate": [0.01]}))
        extra = {"train": [], "cross-validate": ["--folds", "2"], "grid-search": ["--grid", str(grid)]}
        out = tmp_path / "out"
        code, stdout, err = run(
            capsys, command, "--model", "ffnn", "--data", str(campaign), "--config", str(cfg),
            *extra[command], "--out", str(out),
        )
        assert code == 1
        assert err.splitlines()[-1] == "config error: unknown ffnn options ['momentum']"
        assert stdout == ""
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["train", "cross-validate", "grid-search"])
    def test_result_printed_only_after_manifest(self, tmp_path, capsys, campaign, command):
        """A directory where manifest.json goes makes its write fail: the
        command exits 1 with an io error and prints no result."""
        (tmp_path / "out" / "manifest.json").mkdir(parents=True)
        code, stdout, err, _ = run_to_out(capsys, command, tmp_path, campaign)
        assert code == 1
        assert err.splitlines()[-1].startswith("io error:")
        assert stdout == ""

    def test_failed_benchmark_prints_no_result(self, tmp_path, capsys, campaign):
        """A directory where report.json goes makes the report's write
        fail: benchmark exits 1 with an io error, prints no result and
        writes no manifest."""
        (tmp_path / "out" / "report.json").mkdir(parents=True)
        code, stdout, err, out = run_to_out(capsys, "benchmark", tmp_path, campaign)
        assert code == 1
        assert err.splitlines()[-1].startswith("io error:")
        assert stdout == ""
        assert not (out / "manifest.json").exists()

    def test_benchmark_with_empty_out_writes_nothing(self, tmp_path, capsys, campaign, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, stdout, _ = run(
            capsys, "benchmark", "--data", str(campaign), "--draws", "5", "--out", ""
        )
        assert code == 0
        assert float(stdout)
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "manifest.json").exists()
