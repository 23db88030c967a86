"""Hybrid quantum-classical toolkit for low-cost PM2.5 sensor calibration.

Four model families (feed-forward, LSTM, variational quantum regressor,
quantum LSTM) share one data pipeline, training loop, and evaluation
protocol.  The quantum parts run on the built-in statevector simulator
with exact gradients: adjoint differentiation for training, and the
parameter-shift rule as the hardware-realistic public API.
"""

from .errors import ConfigurationError, DataError, TrainingDivergedError
from .sim import GateSpec, StateVector, apply_circuit, apply_gate, expectation_z
from .vqc import (
    CircuitTemplate,
    evaluate,
    linear_vqr_template,
    nonlinear_vqr_template,
    parameter_shift_grad,
    ring_rx_template,
)
from .data import (
    CalibrationDataset,
    RangeScaler,
    SynthProfile,
    chronological_split,
    make_windows,
    prepare_dataset,
    synthesize,
)
from .models import (
    FFNNModel,
    LSTMModel,
    QLSTMModel,
    TrainConfig,
    VQRModel,
    build_model,
    evaluate_losses,
    fit_model,
    load_model,
    save_model,
    train,
)
from .experiments import (
    FoldSpec,
    MetricsReport,
    benchmark_uncalibrated,
    cross_validate,
    emit_report,
    grid_search,
    make_folds,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DataError",
    "TrainingDivergedError",
    "GateSpec",
    "StateVector",
    "apply_circuit",
    "apply_gate",
    "expectation_z",
    "CircuitTemplate",
    "evaluate",
    "linear_vqr_template",
    "nonlinear_vqr_template",
    "parameter_shift_grad",
    "ring_rx_template",
    "CalibrationDataset",
    "RangeScaler",
    "SynthProfile",
    "chronological_split",
    "make_windows",
    "prepare_dataset",
    "synthesize",
    "FFNNModel",
    "LSTMModel",
    "QLSTMModel",
    "TrainConfig",
    "VQRModel",
    "build_model",
    "evaluate_losses",
    "fit_model",
    "load_model",
    "save_model",
    "train",
    "FoldSpec",
    "MetricsReport",
    "benchmark_uncalibrated",
    "cross_validate",
    "emit_report",
    "grid_search",
    "make_folds",
    "__version__",
]
