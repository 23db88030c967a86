"""From raw sensor streams to a calibrated PM2.5 model.

Generates a synthetic measurement campaign whose low-cost sensors carry
gain, offset, and humidity-dependent bias, runs the full preparation
pipeline (ingest -> hourly aggregation -> median fusion -> alignment),
and trains a feed-forward calibration model against the uncalibrated
benchmark.

Run with: python demos/03_synthetic_campaign.py
"""

import tempfile
from pathlib import Path

from qscale import data, experiments, models


def main() -> None:
    profile = data.SynthProfile(
        gain=1.4, offset=3.5, humidity_coeff=0.1, noise_std=1.2
    )
    campaign = data.synthesize(seed=42, n_hours=240, profile=profile)
    print(f"campaign: {len(campaign.columns)} raw samples from "
          f"{profile.n_pm_sensors} PM sensors + {profile.n_env_sensors} "
          f"environmental sensors")

    with tempfile.TemporaryDirectory() as tmp:
        paths = data.write_campaign(campaign, Path(tmp))
        dataset, clean, malformed = data.prepare_dataset(
            [paths["sensors"]], paths["reference"]
        )
    print(f"prepared {clean.n_hours} aligned hours "
          f"({clean.interpolated_cells} interpolated, "
          f"{clean.dropped_rows} dropped, {malformed} malformed)")

    train_set, test_set = data.chronological_split(dataset, 0.75)
    bench = experiments.benchmark_uncalibrated(test_set, "l1", n_draws=200, seed=0)
    print(f"uncalibrated test L1: {bench.full_loss:.3f} ug/m3 "
          f"(random-subset mean {bench.summary()['mean']:.3f})")

    config = models.TrainConfig(
        epochs=60, learning_rate=1e-3, optimizer="adam", loss="l1",
        batch_size=10, window=1, seed=0,
    )
    model, history = models.fit_model("ffnn", train_set, config)
    print(f"trained ffnn ({model.param_count()} parameters): "
          f"train L1 {history[0]:.3f} -> {history[-1]:.3f}")

    sub = test_set.select_features(model.feature_names)
    x, y, _ = data.make_windows(sub, config.window)
    losses = models.evaluate_losses(model, x, y)
    print(f"calibrated test L1: {losses['l1']:.3f} ug/m3 "
          f"({100 * (1 - losses['l1'] / bench.full_loss):.0f}% below benchmark)")


if __name__ == "__main__":
    main()
