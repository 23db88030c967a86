"""Training outputs pinned across commits.

Each model kind trains for two epochs at a small fixed config on the stored
96-hour campaign ``checkpoints/campaign.csv`` (``synth --seed 7`` with the
distorted sensor profile of acceptance criterion 5, prepared hourly).  The
pins in ``checkpoints/pins.json`` are its loss history, its trained
``get_flat()`` and its predictions on the held-out quarter.  The configs
reach two of the three circuit classes of ``qscale.vqc``: the vqr (3
qubits) trains on minibatches of 10 rows and predicts 24 held-out rows
through the ansatz matrix, as every linear vqr does, and the qlstm (4
qubits, window 4) trains and predicts through phase polynomials, 10 x 4
circuit rows per training step.  The fused plan, which only the
re-uploading vqr takes, is checked against the dense-matrix oracle and
parameter shift in ``test_vqc.py`` instead.

The vqr trains with plain SGD.  The last RZ on each qubit of a strongly
entangling ansatz commutes with the Z readout, so its gradient is zero up to
rounding (about 1e-17), and an adaptive step g / (sqrt(v) + eps) would turn
that rounding into steps of about 1e-11 that no output sees but that move
with any reordering of floating-point sums.

Regenerate the pins with ``PYTHONPATH=src python tests/pins.py`` only for a
change that is meant to move them, and state the gaps it made.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from qscale import data, models

CHECKPOINTS = Path(__file__).parent / "checkpoints"
CAMPAIGN = CHECKPOINTS / "campaign.csv"
PINS = CHECKPOINTS / "pins.json"
PROFILE = data.SynthProfile(gain=1.45, offset=4.0, humidity_coeff=0.12, noise_std=1.5)

# (training settings, model options) per kind
CONFIGS = {
    "ffnn": (
        models.TrainConfig(2, 1e-2, "sgd", "l1", 10, 1, seed=3),
        {"hidden_sizes": (5, 3), "features": ("pm25", "temp")},
    ),
    "lstm": (
        models.TrainConfig(2, 1e-2, "rmsprop", "l1", 10, 3, seed=3),
        {"hidden_size": 3, "n_layers": 2, "features": ("pm25", "temp")},
    ),
    "vqr": (
        models.TrainConfig(2, 1e-2, "sgd", "mse", 10, 1, seed=3),
        {"n_qubits": 3, "n_layers": 2, "features": ("pm25", "temp", "hum")},
    ),
    "qlstm": (
        models.TrainConfig(2, 1e-2, "adam", "l1", 10, 4, seed=3),
        {"n_qubits": 4, "n_layers": 2, "hidden_size": 4, "features": ("pm25",)},
    ),
}


def fit_pin(kind: str):
    """Train ``kind`` at its pinned config; returns the model, its loss
    history, and its held-out windows and predictions."""
    config, options = CONFIGS[kind]
    train_set, test_set = data.chronological_split(data.dataset_from_csv(CAMPAIGN), 0.75)
    model, history = models.fit_model(kind, train_set, config, options)
    x, _, _ = data.make_windows(test_set.select_features(model.feature_names), model.window)
    return model, history, x, model.predict(x)


def _write() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = data.write_campaign(data.synthesize(7, 96, PROFILE), tmp)
        dataset, _, _ = data.prepare_dataset([paths["sensors"]], paths["reference"])
    data.dataset_to_csv(dataset, CAMPAIGN)
    pins = {}
    for kind in CONFIGS:
        model, history, _, preds = fit_pin(kind)
        pins[kind] = {
            "history": history,
            "flat": model.get_flat().tolist(),
            "predictions": preds.tolist(),
        }
    PINS.write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    _write()
