"""Command-line pipeline: prepare, synth, train, predict, cross-validate,
benchmark, grid-search, report.

Exit codes: 0 success, 1 runtime failure (config / data / numeric / io,
stated in the message), 2 usage error.  Results go to files and stdout;
progress lines go to stderr.  ``main`` runs every command the same way:
it starts the clock, creates ``--out`` when the command has one, calls the
handler, writes ``manifest.json`` (config echo, seed, versions, wall time)
into ``--out`` from the settings and seed the handler returns, and only
then prints the handler's stdout result, so a failed command prints none.
Python warnings raised on the way print as one ``warning:`` line each.
``QSCALE_SEED`` supplies the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from dataclasses import asdict, replace
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import __version__, data, experiments, models, nn
from .errors import ConfigurationError, DataError, TrainingDivergedError


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A Python warning as one ``warning:`` line on stderr, without the
    source file and line that the default display adds."""
    _log(f"warning: {message}")


def _read_json(path_str: str, what: str) -> dict:
    path = Path(path_str)
    if not path.exists():
        raise DataError(f"{what} file not found: {path}")
    try:
        payload = json.loads(path.read_text())
    except ValueError as err:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigurationError(f"{what} file {path} is not valid JSON: {err}")
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{what} file {path} must hold a JSON object")
    return payload


def _optional_dir(text: str) -> Optional[Path]:
    """An optional ``--out``: the empty string names no directory."""
    return Path(text) if text else None


def _load_dataset(path_str: str) -> data.CalibrationDataset:
    path = Path(path_str)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    return data.dataset_from_csv(path)


def _resolve_seed(args, config: dict) -> int:
    """--seed, else the settings file's seed (which ``TrainConfig`` then
    checks), else QSCALE_SEED (unset or empty reads as 0)."""
    if getattr(args, "seed", None) is not None:
        seed, what = args.seed, "--seed"
    elif "seed" in config:
        return config["seed"]
    else:
        raw, what = os.environ.get("QSCALE_SEED") or "0", "QSCALE_SEED"
        try:
            seed = int(raw)
        except ValueError:
            raise ConfigurationError(f"QSCALE_SEED must be an integer, got {raw!r}")
    if seed < 0:
        raise ConfigurationError(f"{what} must be non-negative, got {seed}")
    return seed


def _training_settings(args) -> tuple[models.TrainConfig, dict, int, dict]:
    """The ``TrainConfig``, model options and seed of a training command (the
    config file, then command-line overrides), and the settings its manifest
    records: the config, the options resolved, the model kind and dataset."""
    payload = _read_json(args.config, "config") if args.config else {}
    fields, options = models.split_settings(payload)
    for field in ("epochs", "learning_rate", "optimizer", "loss", "batch_size", "window"):
        value = getattr(args, field)
        if value is not None:
            fields[field] = value
    if args.features:
        options["features"] = tuple(
            name.strip() for name in args.features.split(",") if name.strip()
        )
    seed = _resolve_seed(args, fields)
    config = replace(models.default_config(args.model), **{**fields, "seed": seed})
    settings = asdict(config)
    settings.update(models.resolve_options(args.model, options))
    settings.update(model=args.model, data=args.data)
    return config, options, seed, settings


def _write_manifest(
    out_dir: Path, command: str, settings: dict, seed: int, started: float
) -> Path:
    manifest = {
        "command": command,
        "settings": models._jsonable(settings),
        "seed": seed,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "qscale": __version__,
        },
        "wall_time_s": time.monotonic() - started,
    }
    return experiments.write_json(out_dir / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# command handlers


class Recorded(NamedTuple):
    """What a handler hands back to ``main``: the settings and seed the
    manifest records when the command has an ``--out``, and the result line
    ``main`` prints once the manifest is written.  A handler that writes no
    manifest and prints its own result returns None."""

    settings: dict
    seed: int
    result: Optional[str] = None


def _cmd_prepare(args) -> Recorded:
    dataset, report, malformed = data.prepare_dataset(
        args.sensors, args.reference, granularity=args.granularity
    )
    data.dataset_to_csv(dataset, args.out / "dataset.csv")
    _log(
        f"prepared {report.n_hours} hours "
        f"({report.interpolated_cells} interpolated cells, "
        f"{report.dropped_rows} dropped rows, {malformed} malformed input rows)"
    )
    settings = {
        "sensors": list(args.sensors),
        "reference": args.reference,
        "granularity": args.granularity,
        "n_hours": report.n_hours,
        "interpolated_cells": report.interpolated_cells,
        "dropped_rows": report.dropped_rows,
        "malformed_rows": malformed,
        "malformed_by_reason": report.malformed_by_reason,
    }
    return Recorded(settings, 0)


def _cmd_synth(args) -> Recorded:
    out = args.out
    seed = _resolve_seed(args, {})
    profile_payload = (
        _read_json(args.profile, "profile") if args.profile else {}
    )
    try:
        profile = data.SynthProfile(**profile_payload)
    except TypeError as err:
        raise ConfigurationError(f"bad profile field: {err}")
    campaign = data.synthesize(seed, args.hours, profile)
    paths = data.write_campaign(campaign, out)
    dataset, report, _ = data.prepare_dataset(
        [paths["sensors"]], paths["reference"]
    )
    data.dataset_to_csv(dataset, out / "dataset.csv")
    _log(
        f"synthesized {args.hours} hours -> {out} "
        f"({report.n_hours} prepared rows)"
    )
    return Recorded({"hours": args.hours, "profile": models._jsonable(profile_payload)}, seed)


def _cmd_train(args) -> Recorded:
    dataset = _load_dataset(args.data)
    config, options, seed, settings = _training_settings(args)
    train_set, test_set = data.chronological_split(dataset, args.train_fraction)
    _log(
        f"training {args.model} on {len(train_set)} hours "
        f"({config.epochs} epochs), testing on {len(test_set)} hours"
    )
    model, history = models.fit_model(args.model, train_set, config, options)
    losses, series = experiments.score_holdout(model, test_set)
    models.save_model(model, args.out / "model.json")
    report = experiments.MetricsReport(
        model_kind=args.model,
        config=asdict(config),
        options=models._jsonable(model.options),
        seed=seed,
        param_count=model.param_count(),
        test_losses=losses,
        series=series,
        train_history=history,
    )
    experiments.emit_report(report, args.out)
    settings["train_fraction"] = args.train_fraction
    return Recorded(settings, seed, json.dumps(losses, sort_keys=True))


def _cmd_predict(args) -> Recorded:
    model_path = Path(args.model_file)
    if not model_path.exists():
        raise DataError(f"model checkpoint not found: {model_path}")
    model = models.load_model(model_path)
    dataset = _load_dataset(args.data)
    rows = models.predictions_rows(model, dataset)
    if not rows:
        raise DataError("no prediction windows fit in the dataset")
    path = args.out / "predictions.csv"
    data.predictions_to_csv(rows, path)
    _log(f"wrote {len(rows)} predictions to {path}")
    return Recorded({"model_file": str(model_path), "data": args.data, "rows": len(rows)}, 0)


def _cmd_cross_validate(args) -> Recorded:
    dataset = _load_dataset(args.data)
    config, options, seed, settings = _training_settings(args)
    if args.benchmark_draws < 0:
        raise ConfigurationError(
            f"--benchmark-draws must be non-negative, got {args.benchmark_draws}"
        )
    default_spec = experiments.protocol_fold_spec(args.model, seed)
    spec = experiments.FoldSpec(
        args.folds if args.folds is not None else default_spec.k,
        args.fold_mode if args.fold_mode is not None else default_spec.mode,
        args.fold_seed if args.fold_seed is not None else seed,
    )
    _log(
        f"cross-validating {args.model}: {spec.k} {spec.mode} folds over "
        f"{len(dataset)} hours"
    )
    # the benchmark draws from its own stream, so running it first refuses a
    # bad draw count, sample size or dataset before any fold trains
    bench = None
    if args.benchmark_draws > 0:
        bench = experiments.benchmark_uncalibrated(
            dataset,
            config.loss,
            sample_size=len(dataset) // spec.k,
            n_draws=args.benchmark_draws,
            seed=seed,
        )
    report = experiments.cross_validate(args.model, dataset, config, spec, options=options)
    if bench is not None:
        report.benchmark = bench.summary()
    experiments.emit_report(report, args.out)
    settings.update(fold_spec=report.fold_spec, benchmark_draws=args.benchmark_draws)
    average = report.fold_average
    return Recorded(
        settings,
        seed,
        json.dumps(average if average is not None else {"error": "all folds failed"},
                   sort_keys=True),
    )


def _cmd_benchmark(args) -> Recorded:
    dataset = _load_dataset(args.data)
    seed = _resolve_seed(args, {})
    result = experiments.benchmark_uncalibrated(
        dataset,
        args.loss,
        sample_size=args.sample_size,
        n_draws=args.draws,
        seed=seed,
    )
    if args.out is not None:
        report = experiments.MetricsReport(
            model_kind="uncalibrated",
            config={"loss": args.loss},
            options={},
            seed=seed,
            benchmark=result.summary(),
        )
        experiments.emit_report(report, args.out)
    settings = {
        "data": args.data,
        "loss": args.loss,
        "sample_size": result.sample_size,
        "draws": args.draws,
    }
    return Recorded(settings, seed, repr(result.full_loss))


def _cmd_grid_search(args) -> Recorded:
    dataset = _load_dataset(args.data)
    grid = _read_json(args.grid, "grid")
    for axis, values in grid.items():
        if not isinstance(values, list):
            raise ConfigurationError(f"grid axis {axis!r} must be a JSON list")
    base_config, options, seed, settings = _training_settings(args)
    _log(f"grid search over {experiments.grid_size(grid)} configurations")
    result = experiments.grid_search(
        args.model,
        dataset,
        grid,
        base_config=base_config,
        options=options,
        train_fraction=args.train_fraction,
        rank_loss=args.rank_loss,
    )
    experiments.write_json(args.out / "grid.json", result.to_dict())
    settings.update(grid=grid, train_fraction=args.train_fraction, rank_loss=args.rank_loss)
    best = result.best
    return Recorded(
        settings,
        seed,
        json.dumps(best if best is not None else {"error": "no config succeeded"},
                   sort_keys=True),
    )


def _number(entry: dict, key: str) -> float:
    if not isinstance(entry[key], (int, float)):
        raise TypeError(f"{key} holds {entry[key]!r}, not a number")
    return entry[key]


def _losses_text(losses: dict) -> str:
    return " ".join(f"{key}={_number(losses, key):.6g}" for key in models.METRICS)


def _report_lines(payload: dict) -> list[str]:
    """The summary of a report.json; a field qscale always writes that is
    missing raises KeyError, one of the wrong type TypeError or ValueError."""
    lines = [
        f"model: {payload['model_kind']}",
        f"schema: {payload['schema_version']}",
        f"seed: {payload['seed']}",
        f"trainable parameters: {payload['param_count']}",
    ]
    for fold in payload["folds"] or []:
        if "error" in fold:
            lines.append(f"fold {fold['fold']}: FAILED ({fold['error']})")
        else:
            lines.append(f"fold {fold['fold']}: {_losses_text(fold)}")
    if payload["fold_average"]:
        lines.append(f"fold average: {_losses_text(payload['fold_average'])}")
    if payload["test_losses"]:
        lines.append(f"test: {_losses_text(payload['test_losses'])}")
    bench = payload["benchmark"]
    if bench:
        lines.append(
            f"benchmark ({bench['loss_kind']}): mean={_number(bench, 'mean'):.6g} "
            f"std={_number(bench, 'std'):.6g} full={_number(bench, 'full_loss'):.6g}"
        )
    return lines


def _cmd_report(args) -> None:
    payload = _read_json(args.report_file, "report")
    try:
        lines = _report_lines(payload)
    except KeyError as err:
        raise DataError(f"report {args.report_file} lacks field {err}") from err
    except (TypeError, ValueError, OverflowError) as err:
        raise DataError(f"report {args.report_file} has a malformed field: {err}") from err
    print("\n".join(lines))
    return None


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qscale",
        description="PM2.5 sensor calibration with classical and quantum models.",
    )
    parser.add_argument("--version", action="version", version=f"qscale {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="ingest raw sensor/reference CSVs")
    p.add_argument("--sensors", nargs="+", required=True, help="raw sample CSV paths")
    p.add_argument("--reference", required=True, help="reference instrument CSV")
    p.add_argument("--granularity", choices=("hour", "minute"), default="hour")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.set_defaults(handler=_cmd_prepare)

    p = sub.add_parser("synth", help="generate a synthetic campaign")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--hours", type=int, default=720)
    p.add_argument("--profile", default=None, help="JSON file of distortion fields")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(handler=_cmd_synth)

    def add_train_flags(p):
        p.add_argument("--model", required=True, choices=models.MODEL_KINDS)
        p.add_argument("--data", required=True, help="prepared dataset CSV")
        p.add_argument("--config", default=None, help="JSON settings file")
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
        p.add_argument("--optimizer", choices=nn.OPTIMIZER_KINDS, default=None)
        p.add_argument("--loss", choices=nn.LOSS_KINDS, default=None)
        p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
        p.add_argument("--window", type=int, default=None)
        p.add_argument("--features", default=None, help="comma-separated feature names")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("train", help="train one model on a chronological split")
    add_train_flags(p)
    p.add_argument("--train-fraction", type=float, default=0.75)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("predict", help="run a saved model over a dataset")
    p.add_argument("--model-file", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("cross-validate", help="k-fold evaluation protocol")
    add_train_flags(p)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--fold-mode", choices=experiments.FOLD_MODES, default=None)
    p.add_argument("--fold-seed", type=int, default=None)
    p.add_argument("--benchmark-draws", type=int, default=1000)
    p.add_argument("--threads", type=int, default=1, help="unused; folds train in lockstep")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(handler=_cmd_cross_validate)

    p = sub.add_parser("benchmark", help="uncalibrated sensor-vs-reference loss")
    p.add_argument("--data", required=True)
    p.add_argument("--loss", choices=tuple(models.METRICS), default="l1")
    p.add_argument("--sample-size", dest="sample_size", type=int, default=None)
    p.add_argument("--draws", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--out", type=_optional_dir, default=None, help="output directory; none if empty"
    )
    p.set_defaults(handler=_cmd_benchmark)

    p = sub.add_parser("grid-search", help="exhaustive hyperparameter search")
    add_train_flags(p)
    p.add_argument("--grid", required=True, help="JSON file: axis -> value list")
    p.add_argument("--train-fraction", type=float, default=0.75)
    p.add_argument("--rank-loss", choices=tuple(models.METRICS), default="l1")
    p.add_argument("--threads", type=int, default=1, help="unused; points train in lockstep")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(handler=_cmd_grid_search)

    p = sub.add_parser("report", help="print a saved report")
    p.add_argument("--report-file", required=True)
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:  # --help (0) or usage error (2)
        return int(exit_request.code or 0)
    started = time.monotonic()
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            out = getattr(args, "out", None)
            if out is not None:
                out.mkdir(parents=True, exist_ok=True)
            recorded = args.handler(args)
            if recorded is not None:
                if out is not None:
                    _write_manifest(out, args.command, recorded.settings, recorded.seed, started)
                if recorded.result is not None:
                    print(recorded.result)
            return 0
        except ConfigurationError as err:
            _log(f"config error: {err}")
            return 1
        except DataError as err:
            _log(f"data error: {err}")
            return 1
        except TrainingDivergedError as err:
            _log(f"numeric error: {err}")
            return 1
        except OSError as err:
            _log(f"io error: {err}")
            return 1


if __name__ == "__main__":
    sys.exit(main())
