"""The benchmark workloads, driven through qscale's public library calls.

Each workload is a closed loop: one caller on one process runs an
operation, waits for it, checks its output and starts the next.  A
workload class provides

* ``setup(seed, workdir)``: makes the inputs from the seed and writes them
  to ``workdir``; the runner calls it ``setup_repeats`` times, each in a
  fresh child process, so its memory and warm caches stay out of the
  measured process;
* ``__init__(seed, workdir, n_threads)``: loads those inputs the way the
  CLI stages do;
* ``parts`` and ``items``: the timed parts of one operation (one per
  model kind, or a single stage) and the work items each part handles;
  ``part_metrics`` names each part's items-per-second metric;
* ``threads(part)``: the threads a part runs on;
* ``reference_kind``: the reference loop whose speed normalises the
  part times, the one closest to the workload's own work;
* ``run(part)``: the library calls of one part, timed by the runner;
* ``check(part, result)``: raises ``CheckFailed`` when the part's output
  is wrong; not timed;
* ``finish()``: output checks made once after measuring, returning the
  number of checks attempted and the messages of those that failed.

Every campaign uses the distorted sensor profile of acceptance criterion 5
(gain, offset, humidity term, noise), so the models have something to
learn and calibration changes the numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from qscale import data, experiments, models, nn

PROFILE = data.SynthProfile(gain=1.45, offset=4.0, humidity_coeff=0.12, noise_std=1.5)
KINDS = models.MODEL_KINDS
YEAR_HOURS = 8760
MONTH_HOURS = 720


class CheckFailed(Exception):
    """An output of the program is not what the workload expects."""


def _config(kind: str, epochs: int, seed: int) -> models.TrainConfig:
    return replace(models.default_config(kind), epochs=epochs, seed=seed)


def _windows(dataset, kind: str, window: int):
    features = models.default_options(kind)["features"]
    return data.make_windows(dataset.select_features(features), window)


def _write_month(seed: int, workdir: Path) -> None:
    """synth -> prepare -> dataset.csv, as ``qscale synth`` does."""
    campaign = data.synthesize(seed, MONTH_HOURS, PROFILE)
    paths = data.write_campaign(campaign, workdir)
    dataset, _, _ = data.prepare_dataset([paths["sensors"]], paths["reference"])
    data.dataset_to_csv(dataset, workdir / "dataset.csv")


# ---------------------------------------------------------------------------
# ingest-year


MALFORMED_REASONS = (
    "bad_timestamp", "non_numeric_value", "unknown_quantity",
    "wrong_column_count", "non_finite_value",
)


def _bad_row(rng: np.random.Generator, valid: str, reason: str) -> str:
    """A malformed variant of a valid raw row that ``ingest`` rejects for ``reason``."""
    stamp, sensor, quantity, value = valid.split(",")
    variants = {
        "bad_timestamp": [f"{bad},{sensor},{quantity},{value}"
                          for bad in ("2023-02-30T10:00:00Z", "not-a-time", "")],
        "non_numeric_value": [f"{stamp},{sensor},{quantity},{bad}" for bad in ("n/a", "12.5.1", "")],
        "unknown_quantity": [f"{stamp},{sensor},{bad},{value}" for bad in ("pm10", "co2")],
        "wrong_column_count": [f"{stamp},{sensor},{quantity}", f"{valid},1"],
        "non_finite_value": [f"{stamp},{sensor},{quantity},{bad}" for bad in ("nan", "inf", "-inf")],
    }[reason]
    return variants[rng.integers(len(variants))]


class IngestYear:
    """``qscale prepare`` on a sensor-year of raw logs with realistic defects."""

    name = "ingest-year"
    setup_repeats = 2
    parts = ("prepare",)
    reference_kind = "python"
    part_metrics = {"prepare": "prepare_samples_per_s"}
    LOG_FILES = 2
    # a raw sample every 10 minutes (263 k rows) keeps one prepare near 3 s,
    # so that a run holds several and the reference loop timed around each
    # one tracks the machine's speed while it ran
    PROFILE = replace(PROFILE, sample_period_s=600)
    # outages start on a 48-hour grid so no two of them touch; 1-2 hours
    # are interpolated, longer ones cannot be repaired and are dropped
    OUTAGE_GRID = 48

    @classmethod
    def setup(cls, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7031]))
        campaign = data.synthesize(seed, YEAR_HOURS, cls.PROFILE)
        slots = np.arange(cls.OUTAGE_GRID // 2, YEAR_HOURS - cls.OUTAGE_GRID, cls.OUTAGE_GRID)
        n_short, n_long = int(rng.integers(20, 41)), int(rng.integers(10, 21))
        starts = rng.choice(slots, n_short + n_long, replace=False)
        lengths = np.concatenate([rng.integers(1, 3, n_short), rng.integers(3, 7, n_long)])
        quantities = rng.choice(len(data.QUANTITIES), n_short + n_long)
        t0 = int(campaign.reference.timestamps[0])
        silent = {
            (data.QUANTITIES[q], t0 + data.HOUR * (int(start) + k))
            for start, length, q in zip(starts, lengths, quantities)
            for k in range(int(length))
        }
        # the raw-log schema of write_campaign, written here because the logs
        # need outages, malformed rows and a split; formatting each distinct
        # timestamp once also makes this set-up four times faster
        samples = [
            s for s in campaign.samples
            if (s.quantity, s.timestamp - s.timestamp % data.HOUR) not in silent
        ]
        stamps = {t: data.format_timestamp(t) for t in {s.timestamp for s in samples}}
        body = [f"{stamps[s.timestamp]},{s.sensor_id},{s.quantity},{s.value!r}" for s in samples]
        reference = workdir / "reference.csv"
        reference.write_text("\n".join(
            [",".join(data.REFERENCE_HEADER)]
            + [f"{data.format_timestamp(t)},{float(v)!r}"
               for t, v in zip(campaign.reference.timestamps, campaign.reference.values)]
        ) + "\n")

        inserts: list[tuple[int, str]] = []
        malformed: dict[str, int] = {}
        for reason in MALFORMED_REASONS:
            malformed[reason] = int(rng.integers(5, 16))
            for _ in range(malformed[reason]):
                at = int(rng.integers(len(body)))
                inserts.append((at, _bad_row(rng, body[at], reason)))
        inserts.sort(key=lambda item: item[0])
        rows: list[str] = []
        cursor = 0
        for at, line in inserts:
            rows.extend(body[cursor:at])
            rows.append(line)
            cursor = at
        rows.extend(body[cursor:])

        files = []
        bounds = np.linspace(0, len(rows), cls.LOG_FILES + 1).astype(int)
        for part in range(cls.LOG_FILES):
            path = workdir / f"sensors-{part + 1}.csv"
            lines = [",".join(data.RAW_HEADER), *rows[bounds[part]:bounds[part + 1]]]
            path.write_text("\n".join(lines) + "\n")
            files.append(path.name)
        short = lengths < 3
        expected = {
            "files": files,
            "reference": reference.name,
            "raw_rows": len(rows),
            "malformed": sum(malformed.values()),
            "malformed_by_reason": malformed,
            "interpolated_cells": int(lengths[short].sum()),
            "dropped_rows": int(lengths[~short].sum()),
            "n_hours": YEAR_HOURS - int(lengths[~short].sum()),
        }
        (workdir / "expected.json").write_text(json.dumps(expected, indent=2))

    def __init__(self, seed: int, workdir: Path, n_threads: int):
        self.expected = json.loads((workdir / "expected.json").read_text())
        self.sensors = [workdir / name for name in self.expected["files"]]
        self.reference = workdir / self.expected["reference"]
        self.dataset_csv = workdir / "dataset.csv"
        self.items = {"prepare": self.expected["raw_rows"]}

    def sizes(self) -> dict:
        return {"hours": YEAR_HOURS, **{k: v for k, v in self.expected.items() if k != "files"},
                "log_files": len(self.sensors), "sample_period_s": self.PROFILE.sample_period_s}

    def threads(self, part: str) -> int:
        return 1

    def run(self, part: str):
        dataset, report, malformed = data.prepare_dataset(self.sensors, self.reference)
        data.dataset_to_csv(dataset, self.dataset_csv)
        return dataset, report, malformed, data.dataset_from_csv(self.dataset_csv)

    def check(self, part: str, result) -> None:
        dataset, report, malformed, reread = result
        got = {
            "malformed": malformed,
            "interpolated_cells": report.interpolated_cells,
            "dropped_rows": report.dropped_rows,
            "n_hours": len(dataset),
        }
        want = {key: self.expected[key] for key in got}
        if got != want:
            raise CheckFailed(f"prepare counted {got}, the input holds {want}")
        same = (
            reread.feature_names == dataset.feature_names
            and np.array_equal(reread.timestamps, dataset.timestamps)
            and np.array_equal(reread.features, dataset.features)
            and np.array_equal(reread.target, dataset.target)
        )
        if not same:
            raise CheckFailed("dataset.csv does not read back to the prepared dataset")

    def finish(self) -> tuple[int, list[str]]:
        return 0, []


# ---------------------------------------------------------------------------
# train-month


class TrainMonth:
    """``fit_model`` for every kind at a fixed budget on a 720-hour campaign,
    then ``cross_validate`` with the vqr protocol on a pool of ``nproc``
    threads, the only part of any workload that runs the fold pool."""

    name = "train-month"
    setup_repeats = 2
    parts = (*KINDS, "cv")
    reference_kind = "numpy"
    part_metrics = {**{k: f"train_windows_per_s.{k}" for k in KINDS}, "cv": "cv_folds_per_s"}
    # epochs per fit, sized so that each kind takes 0.5-1.5 s here
    EPOCHS = {"ffnn": 16, "lstm": 2, "vqr": 1, "qlstm": 1}
    # qlstm trains at about 7 windows/s, so it fits one minibatch (10
    # windows of 5 hours) and is checked on a short slice of the test split
    QLSTM_TRAIN_HOURS = 14
    QLSTM_TEST_HOURS = 16
    CV_EPOCHS = 1

    setup = staticmethod(_write_month)

    def __init__(self, seed: int, workdir: Path, n_threads: int):
        self.workdir = workdir
        dataset = data.dataset_from_csv(workdir / "dataset.csv")
        train_set, test_set = data.chronological_split(dataset, 0.75)
        self.train_sets, self.configs, self.items, self.tests = {}, {}, {}, {}
        for kind in KINDS:
            config = _config(kind, self.EPOCHS[kind], seed)
            train_k, test_k = train_set, test_set
            if kind == "qlstm":
                train_k = train_set.subset(np.arange(self.QLSTM_TRAIN_HOURS))
                test_k = test_set.subset(np.arange(self.QLSTM_TEST_HOURS))
            x, _, _ = _windows(train_k, kind, config.window)
            x_test, y_test, _ = _windows(test_k, kind, config.window)
            self.train_sets[kind], self.configs[kind] = train_k, config
            self.items[kind] = config.epochs * x.shape[0]
            self.tests[kind] = (x_test, y_test)
        self.histories: dict[str, list[float]] = {}
        self.trained: dict[str, object] = {}
        self.test_l1: dict[str, float] = {}
        self.dataset = dataset
        self.cv_config = _config("vqr", self.CV_EPOCHS, seed)
        self.cv_spec = experiments.protocol_fold_spec("vqr", seed)
        # the runner sets this to 1 for the single-threaded baseline
        self.n_threads = min(n_threads, self.cv_spec.k)
        self.items["cv"] = self.cv_spec.k
        self.average: dict | None = None

    def sizes(self) -> dict:
        return {
            "hours": MONTH_HOURS,
            "train_hours": len(self.train_sets["ffnn"]),
            "epochs": self.EPOCHS,
            "windows_per_fit": self.items,
            "test_windows": {k: int(v[1].size) for k, v in self.tests.items()},
            "cv": {"folds": self.cv_spec.k, "fold_mode": self.cv_spec.mode,
                   "epochs": self.CV_EPOCHS, "threads": self.n_threads},
        }

    def threads(self, part: str) -> int:
        return self.n_threads if part == "cv" else 1

    def run(self, part: str):
        if part == "cv":
            return experiments.cross_validate(
                "vqr", self.dataset, self.cv_config, self.cv_spec, n_threads=self.n_threads
            )
        return models.fit_model(part, self.train_sets[part], self.configs[part])

    def check(self, kind: str, result) -> None:
        if kind == "cv":
            self._check_cv(result)
            return
        model, history = result
        if len(history) != self.configs[kind].epochs or not np.all(np.isfinite(history)):
            raise CheckFailed(f"{kind} history is not finite: {history}")
        if self.histories.setdefault(kind, history) != history:
            raise CheckFailed(f"{kind} history differs between identical fits")
        self.trained[kind] = model

    def _check_cv(self, report) -> None:
        k = self.cv_spec.k
        if len(report.folds) != k or any("error" in f for f in report.folds):
            raise CheckFailed(f"expected {k} good folds, got {report.folds}")
        average = report.fold_average
        if average is None or not all(math.isfinite(v) for v in average.values()):
            raise CheckFailed(f"fold average is not finite: {average}")
        if (self.average or average) != average:
            raise CheckFailed("fold average differs between identical runs")
        self.average = average

    def finish(self) -> tuple[int, list[str]]:
        failures = []
        for kind, model in self.trained.items():
            x, y = self.tests[kind]
            losses = models.evaluate_losses(model, x, y)
            path = self.workdir / f"model-{kind}.json"
            models.save_model(model, path)
            reloaded = models.load_model(path).predict(x)
            preds = model.predict(x)
            self.test_l1[kind] = losses["l1"]
            if not np.array_equal(preds, reloaded):
                failures.append(f"{kind}: reloaded checkpoint predicts differently")
            if not (np.all(np.isfinite(preds)) and losses["l1"] == nn.loss_value("l1", preds, y)):
                failures.append(f"{kind}: test losses disagree with the predictions")
        return len(self.trained), failures


# ---------------------------------------------------------------------------
# predict-year


class PredictYear:
    """Forward-only ``model.predict`` over a sensor-year of hourly rows."""

    name = "predict-year"
    setup_repeats = 2
    parts = KINDS
    reference_kind = "numpy"
    part_metrics = {k: f"predict_rows_per_s.{k}" for k in KINDS}
    # one raw sample per sensor and hour keeps the year's set-up cheap
    HOURLY = replace(PROFILE, sample_period_s=data.HOUR)
    BRIEF_TRAIN_HOURS = {"ffnn": 96, "lstm": 96, "vqr": 96, "qlstm": 6}
    # qlstm calibrates about 17 rows/s, so it predicts a leading slice
    QLSTM_ROWS = 24

    @classmethod
    def setup(cls, seed: int, workdir: Path) -> None:
        campaign = data.synthesize(seed, YEAR_HOURS, cls.HOURLY)
        paths = data.write_campaign(campaign, workdir)
        dataset, _, _ = data.prepare_dataset([paths["sensors"]], paths["reference"])
        data.dataset_to_csv(dataset, workdir / "dataset.csv")
        for kind in KINDS:
            brief = dataset.subset(np.arange(cls.BRIEF_TRAIN_HOURS[kind]))
            model, _ = models.fit_model(kind, brief, _config(kind, 1, seed))
            models.save_model(model, workdir / f"model-{kind}.json")

    def __init__(self, seed: int, workdir: Path, n_threads: int):
        dataset = data.dataset_from_csv(workdir / "dataset.csv")
        self.models, self.inputs, self.items = {}, {}, {}
        for kind in KINDS:
            model = models.load_model(workdir / f"model-{kind}.json")
            x, _, _ = _windows(dataset, kind, model.window)
            if kind == "qlstm":
                x = x[: self.QLSTM_ROWS]
            self.models[kind], self.inputs[kind] = model, x
            self.items[kind] = x.shape[0]
        self.first: dict[str, np.ndarray] = {}

    def sizes(self) -> dict:
        return {"hours": YEAR_HOURS, "rows": self.items, "brief_train_hours": self.BRIEF_TRAIN_HOURS}

    def threads(self, part: str) -> int:
        return 1

    def run(self, kind: str):
        return self.models[kind].predict(self.inputs[kind])

    def check(self, kind: str, preds) -> None:
        if preds.shape != (self.items[kind],) or not np.all(np.isfinite(preds)):
            raise CheckFailed(f"{kind} predictions are not finite")
        if not np.array_equal(self.first.setdefault(kind, preds), preds):
            raise CheckFailed(f"{kind} predictions differ between identical calls")

    def finish(self) -> tuple[int, list[str]]:
        return 0, []


WORKLOADS = {w.name: w for w in (IngestYear, TrainMonth, PredictYear)}
