"""Evaluation protocol: k-fold schemes, benchmarks, grid search, reports.

Two cross-validation flavours are supported.  Point models (single-hour
inputs) may use shuffled folds; sequence models require contiguous folds
so that every training window spans real consecutive hours.  When the
k-1 training folds are joined, the hour gap left by the held-out fold
splits the series into separate runs, so no window ever crosses a fold
boundary.

The uncalibrated benchmark is the loss between the raw fused sensor and
the reference, evaluated both on seeded random subsets matching the fold
size (a distribution) and once on the full set (deterministic).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import models
from .data import CalibrationDataset, chronological_split, make_windows, predictions_to_csv
from .errors import ConfigurationError, DataError, TrainingDivergedError
from .models import TrainConfig

FOLD_MODES = ("shuffled", "contiguous")

REPORT_SCHEMA_VERSION = 1

# fold counts used for the published cross-validation tables
PROTOCOL_FOLDS = {
    "ffnn": ("shuffled", 4),
    "vqr": ("shuffled", 4),
    "lstm": ("contiguous", 5),
    "qlstm": ("contiguous", 5),
}


@dataclass(frozen=True)
class FoldSpec:
    k: int
    mode: str = "shuffled"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError("fold count must be at least 1")
        if self.mode not in FOLD_MODES:
            raise ConfigurationError(
                f"fold mode must be one of {FOLD_MODES}, got {self.mode!r}"
            )
        if self.seed < 0:
            raise ConfigurationError(f"fold seed must be non-negative, got {self.seed}")


def protocol_fold_spec(kind: str, seed: int = 0) -> FoldSpec:
    """The published scheme: 4 shuffled folds pointwise, 5 contiguous recurrent."""
    if kind not in PROTOCOL_FOLDS:
        raise ConfigurationError(f"unknown model kind {kind!r}")
    mode, k = PROTOCOL_FOLDS[kind]
    return FoldSpec(k, mode, seed)


def _fold_sizes(n: int, k: int) -> list[int]:
    base, extra = divmod(n, k)
    return [base + 1 if i < extra else base for i in range(k)]


def make_folds(n: int, spec: FoldSpec) -> list[np.ndarray]:
    """Partition range(n) into k test-index sets, each sorted ascending."""
    if n < 1:
        raise ConfigurationError("cannot fold an empty dataset")
    if spec.k > n:
        raise ConfigurationError(f"cannot split {n} rows into {spec.k} folds")
    if spec.mode == "contiguous":
        order = np.arange(n)
    else:
        rng = np.random.default_rng(np.random.SeedSequence([int(spec.seed), 41]))
        order = rng.permutation(n)
    folds = []
    start = 0
    for size in _fold_sizes(n, spec.k):
        folds.append(np.sort(order[start : start + size]))
        start += size
    return folds


# ---------------------------------------------------------------------------
# cross-validation


def score_holdout(
    model, test_set: CalibrationDataset
) -> tuple[dict[str, float], list[dict]]:
    """L1/MSE/RMSE of a fitted model on the windows of held-out hours, and
    the series rows of those windows, from one prediction pass."""
    x, y, ends = make_windows(test_set.select_features(model.feature_names), model.window)
    if y.size == 0:
        raise DataError(
            f"the {len(test_set)} held-out hours hold no {model.window}-hour window"
        )
    preds = model.predict(x)
    return models.prediction_losses(preds, y), models.series_rows(test_set, preds, y, ends)


def _evaluate_on_fold(
    kind: str,
    dataset: CalibrationDataset,
    config: TrainConfig,
    options: Optional[dict],
    fold_index: int,
    test_indices: np.ndarray,
) -> dict:
    n = len(dataset)
    mask = np.ones(n, dtype=bool)
    mask[test_indices] = False
    train_set = dataset.subset(np.nonzero(mask)[0])
    test_set = dataset.subset(test_indices)
    fold_seed = int(config.seed) + fold_index
    fold_config = replace(config, seed=fold_seed)
    entry: dict = {
        "fold": fold_index,
        "seed": fold_seed,
        "train_hours": int(len(train_set)),
        "test_hours": int(len(test_set)),
    }
    try:
        model, history = models.fit_model(kind, train_set, fold_config, options)
    except TrainingDivergedError as err:
        entry["error"] = str(err)
        return entry
    losses, entry["series"] = score_holdout(model, test_set)
    entry.update(losses)
    entry["final_train_loss"] = history[-1] if history else None
    entry["model"] = model
    return entry


def cross_validate(
    kind: str,
    dataset: CalibrationDataset,
    config: TrainConfig,
    spec: FoldSpec,
    options: Optional[dict] = None,
    n_threads: int = 1,
) -> "MetricsReport":
    """Train/evaluate on every fold; divergent folds are recorded, not fatal.

    Folds run one after another in the calling thread.  ``n_threads`` is
    accepted and unused: a thread pool only slowed the small GIL-bound NumPy
    calls training makes.  ``options`` and ``param_count`` come from the first
    fold that trained; when every fold diverged, ``param_count`` is None and
    ``options`` are the caller's merged over the kind's defaults.
    """
    if config.window > 1 and spec.mode != "contiguous":
        raise ConfigurationError(
            "sequence models need contiguous folds; shuffled folds would "
            "leave no intact training windows"
        )
    entries: list[dict] = []
    series: list[dict] = []
    trained = None
    for i, test_indices in enumerate(make_folds(len(dataset), spec)):
        entry = _evaluate_on_fold(kind, dataset, config, options, i, test_indices)
        series.extend(entry.pop("series", []))
        model = entry.pop("model", None)
        if trained is None:
            trained = model
        entries.append(entry)
    series.sort(key=lambda row: row["timestamp"])

    good = [e for e in entries if "error" not in e]
    average = None
    if good:
        average = {
            key: float(np.mean([e[key] for e in good])) for key in models.METRICS
        }
    report_options = trained.options if trained else models.resolve_options(kind, options)
    return MetricsReport(
        model_kind=kind,
        config=asdict(config),
        options=models._jsonable(report_options),
        seed=config.seed,
        param_count=None if trained is None else trained.param_count(),
        fold_spec={"k": spec.k, "mode": spec.mode, "seed": spec.seed},
        folds=entries,
        fold_average=average,
        series=series,
    )


# ---------------------------------------------------------------------------
# uncalibrated benchmark


@dataclass(frozen=True)
class BenchmarkResult:
    loss_kind: str
    sample_size: int
    seed: int
    draws: np.ndarray  # one loss per random subset
    full_loss: float  # deterministic loss on the whole set

    def summary(self) -> dict:
        qs = np.quantile(self.draws, [0.0, 0.25, 0.5, 0.75, 1.0])
        return {
            "loss_kind": self.loss_kind,
            "sample_size": self.sample_size,
            "n_draws": int(self.draws.size),
            "seed": self.seed,
            "mean": float(self.draws.mean()),
            "std": float(self.draws.std()),
            "min": float(qs[0]),
            "q25": float(qs[1]),
            "median": float(qs[2]),
            "q75": float(qs[3]),
            "max": float(qs[4]),
            "full_loss": self.full_loss,
        }


def benchmark_uncalibrated(
    dataset: CalibrationDataset,
    loss_kind: str = "l1",
    sample_size: Optional[int] = None,
    n_draws: int = 1000,
    seed: int = 0,
) -> BenchmarkResult:
    """Loss of the raw fused sensor against the reference, no model at all."""
    if loss_kind not in models.METRICS:
        raise ConfigurationError(f"unknown benchmark loss {loss_kind!r}")
    if "pm25" not in dataset.feature_names:
        raise ConfigurationError("benchmark needs the raw pm25 feature")
    n = len(dataset)
    if sample_size is None:
        sample_size = n
    if not 1 <= sample_size <= n:
        raise ConfigurationError(
            f"benchmark sample size {sample_size} outside 1..{n}"
        )
    if n_draws < 0:
        raise ConfigurationError("draw count must be non-negative")
    raw = dataset.features[:, dataset.feature_names.index("pm25")]
    ref = dataset.target
    metric = models.METRICS[loss_kind]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 57]))
    draws = np.empty(n_draws)
    for d in range(n_draws):
        idx = rng.choice(n, size=sample_size, replace=False)
        draws[d] = metric(raw[idx], ref[idx])
    return BenchmarkResult(
        loss_kind=loss_kind,
        sample_size=int(sample_size),
        seed=int(seed),
        draws=draws,
        full_loss=metric(raw, ref),
    )


# ---------------------------------------------------------------------------
# grid search


def grid_size(grid: dict[str, Sequence]) -> int:
    if not grid:
        raise ConfigurationError("hyperparameter grid is empty")
    size = 1
    for axis, values in grid.items():
        if len(values) == 0:
            raise ConfigurationError(f"grid axis {axis!r} has no candidate values")
        size *= len(values)
    return size


def grid_points(grid: dict[str, Sequence]) -> list[dict]:
    """Cartesian product in deterministic (sorted-axis) order."""
    axes = sorted(grid)
    return [
        dict(zip(axes, combo))
        for combo in itertools.product(*(grid[a] for a in axes))
    ]


def grid_search(
    kind: str,
    dataset: CalibrationDataset,
    grid: dict[str, Sequence],
    base_config: Optional[TrainConfig] = None,
    options: Optional[dict] = None,
    train_fraction: float = 0.75,
    rank_loss: str = "l1",
    seed: int = 0,
    n_threads: int = 1,
) -> "GridSearchResult":
    """Train every grid point on one fixed chronological split and rank.

    Points run one after another in the calling thread; ``n_threads`` is
    accepted and unused, as in ``cross_validate``.
    """
    total = grid_size(grid)
    if rank_loss not in models.METRICS:
        raise ConfigurationError(f"unknown ranking loss {rank_loss!r}")
    base = base_config or models.default_config(kind)
    train_set, test_set = chronological_split(dataset, train_fraction)
    entries: list[dict] = []
    for index, overrides in enumerate(grid_points(grid)):
        entry: dict = {"index": index, "params": models._jsonable(overrides)}
        config_fields, option_fields = models.split_settings(overrides)
        try:
            config = replace(base, **{**config_fields, "seed": int(seed)})
            model, history = models.fit_model(
                kind, train_set, config, {**(options or {}), **option_fields}
            )
            entry.update(score_holdout(model, test_set)[0])
            entry["final_train_loss"] = history[-1] if history else None
        except (ConfigurationError, DataError, TrainingDivergedError) as err:
            entry["error"] = f"{type(err).__name__}: {err}"
        entries.append(entry)

    ranked = sorted(
        (e for e in entries if "error" not in e), key=lambda e: (e[rank_loss], e["index"])
    )
    return GridSearchResult(
        model_kind=kind,
        rank_loss=rank_loss,
        grid_size=total,
        train_fraction=train_fraction,
        seed=int(seed),
        entries=entries,
        ranking=[e["index"] for e in ranked],
    )


@dataclass(frozen=True)
class GridSearchResult:
    model_kind: str
    rank_loss: str
    grid_size: int
    train_fraction: float
    seed: int
    entries: list[dict]
    ranking: list[int]  # entry indices, best first

    @property
    def best(self) -> Optional[dict]:
        return self.entries[self.ranking[0]] if self.ranking else None

    def to_dict(self) -> dict:
        return {"schema_version": REPORT_SCHEMA_VERSION, **asdict(self)}


# ---------------------------------------------------------------------------
# metrics report


@dataclass
class MetricsReport:
    """Everything a run measured; serialized deterministically by emit_report."""

    model_kind: str
    config: dict
    options: dict
    seed: int
    param_count: Optional[int] = None
    fold_spec: Optional[dict] = None
    folds: list[dict] = field(default_factory=list)
    fold_average: Optional[dict] = None
    test_losses: Optional[dict] = None
    benchmark: Optional[dict] = None
    series: list[dict] = field(default_factory=list)
    train_history: Optional[list[float]] = None

    def to_dict(self) -> dict:
        """Every field but the series, which series.csv holds; its row count."""
        payload = {"schema_version": REPORT_SCHEMA_VERSION}
        payload.update(
            (f.name, getattr(self, f.name)) for f in fields(self) if f.name != "series"
        )
        payload["n_series_rows"] = len(self.series)
        return payload

    def is_empty(self) -> bool:
        return not (
            self.folds or self.test_losses or self.benchmark or self.series
        )


def write_json(path: Path, payload: dict) -> Path:
    """Write ``payload`` as key-sorted, two-space-indented JSON and a final
    newline: the one format of report.json, grid.json and manifest.json."""
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def emit_report(report: MetricsReport, directory: str | Path) -> dict[str, Path]:
    """Write report.json (+ series.csv when predictions exist); deterministic."""
    if report.is_empty():
        raise ConfigurationError("refusing to write an empty report")
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {"report": write_json(out_dir / "report.json", report.to_dict())}
    if report.series:
        series_path = out_dir / "series.csv"
        predictions_to_csv(report.series, series_path)
        written["series"] = series_path
    return written
