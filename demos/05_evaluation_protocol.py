"""The evaluation protocol: folds, cross-validation, grid search, reports.

Run with: python demos/05_evaluation_protocol.py
"""

import json
import tempfile
from pathlib import Path

from qscale import data, experiments, models


def main() -> None:
    profile = data.SynthProfile(gain=1.35, offset=3.0, noise_std=1.0)
    campaign = data.synthesize(seed=4, n_hours=120, profile=profile)
    with tempfile.TemporaryDirectory() as tmp:
        paths = data.write_campaign(campaign, Path(tmp))
        dataset, _, _ = data.prepare_dataset([paths["sensors"]], paths["reference"])

    print("== fold schemes ==")
    shuffled = experiments.make_folds(12, experiments.FoldSpec(4, "shuffled", seed=0))
    contiguous = experiments.make_folds(12, experiments.FoldSpec(4, "contiguous"))
    print(f"shuffled   k=4 over 12 rows: {[f.tolist() for f in shuffled]}")
    print(f"contiguous k=4 over 12 rows: {[f.tolist() for f in contiguous]}")
    print(f"pointwise models default to {experiments.protocol_fold_spec('ffnn').k} "
          f"{experiments.protocol_fold_spec('ffnn').mode} folds, sequence models to "
          f"{experiments.protocol_fold_spec('lstm').k} "
          f"{experiments.protocol_fold_spec('lstm').mode} folds")

    print()
    print("== cross-validation ==")
    config = models.TrainConfig(
        epochs=25, learning_rate=1e-3, optimizer="adam", loss="l1",
        batch_size=10, window=1, seed=0,
    )
    report = experiments.cross_validate(
        "ffnn", dataset, config, experiments.FoldSpec(4, "shuffled", seed=0),
        options={"hidden_sizes": (10, 5)},
    )
    for fold in report.folds:
        print(f"fold {fold['fold']}: test L1 {fold['l1']:.3f} "
              f"(RMSE {fold['rmse']:.3f}) on {fold['test_hours']} hours")
    print(f"average: L1 {report.fold_average['l1']:.3f}")

    bench = experiments.benchmark_uncalibrated(
        dataset, "l1", sample_size=len(dataset) // 4, n_draws=500, seed=0
    )
    s = bench.summary()
    print(f"uncalibrated on fold-sized subsets: "
          f"mean {s['mean']:.3f} +/- {s['std']:.3f} "
          f"(median {s['median']:.3f})")

    print()
    print("== grid search over a fixed chronological split ==")
    result = experiments.grid_search(
        "ffnn", dataset,
        grid={"learning_rate": [1e-4, 1e-3, 1e-2], "hidden_sizes": [(6,), (10, 5)]},
        base_config=models.TrainConfig(
            epochs=20, learning_rate=1e-3, optimizer="adam", loss="l1", window=1, seed=0
        ),
    )
    print(f"{result.grid_size} configurations, ranked by test {result.rank_loss}:")
    for index in result.ranking[:3]:
        entry = result.entries[index]
        print(f"  l1={entry['l1']:.3f}  {entry['params']}")

    print()
    print("== deterministic report files ==")
    with tempfile.TemporaryDirectory() as tmp:
        written = experiments.emit_report(report, tmp)
        payload = json.loads(written["report"].read_text())
        print(f"report.json keys: {sorted(payload)}")
        n_lines = len(written["series"].read_text().strip().split("\n"))
        print(f"series.csv: {n_lines - 1} prediction rows (+ header)")


if __name__ == "__main__":
    main()
