"""Independent reference implementations the tests check the package against.

The simulator oracle builds full 2^n x 2^n dense unitaries with Kronecker
products and literal gate matrices; the gradient oracle is plain central
finite differences; the aggregation and fusion oracles are the row-wise
dict loops that the columnar data path replaced, the raw-log oracle the
``csv.reader`` chunk loop that the block reader replaced, the synthesis
oracle the nested per-row loops that columnar synthesis replaced, and the
window oracle the per-hour run loop that the vectorized ``make_windows``
replaced, the optimizer oracle the out-of-place update that the in-place
``nn.optimizer_step`` replaced, and the training, cross-validation and
grid-search oracles the serial loops that lockstep training replaced: one
model trained alone, one minibatch step after another, and one such fit
per fold or grid point, each step scored by the per-batch loss calls that
the one-pass stack loss replaced.  The QLSTM oracle is its cell before the
fc_out maps were folded into the circuit coefficients, each circuit run
through the fused plan and differentiated by parameter shift.  Nothing here
imports the package's kernels: the serial loops take the package's
``models`` and ``experiments`` modules as arguments, and run one model's
unstacked training step, ``_loss_and_grad_scaled`` on its own ``flat``; the
QLSTM oracle takes ``vqc`` the same way."""

from __future__ import annotations

import csv
import io
import warnings
from datetime import datetime, timedelta, timezone
from itertools import compress, islice, repeat
from operator import not_

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def rx_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ry_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex
    )


ROTATIONS = {"RX": rx_matrix, "RY": ry_matrix, "RZ": rz_matrix}


def single_qubit_operator(n: int, qubit: int, u: np.ndarray) -> np.ndarray:
    """Embed a 2x2 operator on one qubit; qubit 0 is the least significant bit."""
    op = np.array([[1.0 + 0j]])
    for k in range(n):
        op = np.kron(u if k == qubit else I2, op)
    return op


def cnot_operator(n: int, control: int, target: int) -> np.ndarray:
    dim = 2**n
    op = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        if (b >> control) & 1:
            op[b ^ (1 << target), b] = 1.0
        else:
            op[b, b] = 1.0
    return op


def gate_operator(n: int, kind: str, target: int, control=None, angle=None) -> np.ndarray:
    if kind == "CNOT":
        return cnot_operator(n, control, target)
    return single_qubit_operator(n, target, ROTATIONS[kind](angle))


def dense_run(n: int, gates) -> np.ndarray:
    """Apply GateSpec-like objects via dense matrix-vector products."""
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for g in gates:
        state = gate_operator(n, g.kind, g.target, g.control, g.angle) @ state
    return state


def dense_expectation_z(state: np.ndarray, n: int, qubit: int) -> float:
    z = single_qubit_operator(n, qubit, PAULI_Z)
    return float(np.real(np.conj(state) @ (z @ state)))


def central_difference(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for k in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[k] += h
        dn[k] -= h
        grad[k] = (f(up) - f(dn)) / (2 * h)
    return grad


def random_gates(rng: np.random.Generator, n_qubits: int, n_gates: int):
    """Random gate list in plain tuples convertible to the package's GateSpec."""
    from qscale.sim import GateSpec

    gates = []
    kinds = ["RX", "RY", "RZ"] + (["CNOT"] if n_qubits >= 2 else [])
    for _ in range(n_gates):
        kind = kinds[rng.integers(len(kinds))]
        if kind == "CNOT":
            control, target = rng.choice(n_qubits, size=2, replace=False)
            gates.append(GateSpec("CNOT", int(target), control=int(control)))
        else:
            gates.append(
                GateSpec(
                    kind,
                    int(rng.integers(n_qubits)),
                    angle=float(rng.uniform(-2 * np.pi, 2 * np.pi)),
                )
            )
    return gates


def aggregate_rows(samples, width: int) -> dict:
    """Mean per (sensor, quantity, bucket) of ``(timestamp, sensor, quantity,
    value)`` tuples, summed row by row in input order; a bucket whose values
    are all equal averages to exactly its first value.

    Returns ``{(sensor, quantity): (buckets, means)}`` with sorted buckets.
    """
    # cell = [running sum, count, first value, all-equal flag]
    sums: dict = {}
    for timestamp, sensor, quantity, value in samples:
        bucket = (timestamp // width) * width
        acc = sums.setdefault((sensor, quantity), {})
        cell = acc.setdefault(bucket, [0.0, 0, value, True])
        if cell[3] and value != cell[2]:
            cell[3] = False
        cell[0] += value
        cell[1] += 1
    out = {}
    for key, acc in sums.items():
        buckets = np.array(sorted(acc), dtype=np.int64)
        means = np.array(
            [acc[b][2] if acc[b][3] else acc[b][0] / acc[b][1] for b in buckets], dtype=float
        )
        out[key] = (buckets, means)
    return out


def median_fuse(series_by_sensor: dict) -> tuple:
    """Per-bucket ``np.median`` over the sensors that reported that bucket;
    ``series_by_sensor`` maps a sensor to ``(buckets, values)``."""
    collected: dict = {}
    for buckets, values in series_by_sensor.values():
        for t, v in zip(buckets, values):
            collected.setdefault(int(t), []).append(float(v))
    buckets = np.array(sorted(collected), dtype=np.int64)
    values = np.array([float(np.median(collected[int(b)])) for b in buckets])
    return buckets, values


def fuse_by_quantity(aggregated: dict) -> dict:
    """``median_fuse`` of each quantity's ``aggregate_rows`` series."""
    grouped: dict = {}
    for (sensor, quantity), series in aggregated.items():
        grouped.setdefault(quantity, {})[sensor] = series
    return {q: median_fuse(by_sensor) for q, by_sensor in grouped.items()}


def _ar1_rows(rng, n: int, rho: float, sigma: float) -> np.ndarray:
    noise = rng.normal(0.0, sigma, n)
    out = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = rho * acc + noise[i]
        out[i] = acc
    return out


def synthesize_rows(seed: int, n_hours: int, profile) -> tuple[list, np.ndarray]:
    """The synthetic campaign drawn row by row, as the nested loops did
    before synthesis became columnar: ``(rows, reference)``, where ``rows``
    are ``(timestamp, sensor_id, quantity, value)`` tuples sorted by
    ``(timestamp, sensor_id, quantity)`` and ``reference`` is the hourly
    reference PM2.5.  ``profile`` is read by attribute only."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2210]))
    hours = np.arange(n_hours, dtype=float)
    day_phase = 2.0 * np.pi * (hours % 24) / 24.0
    season_phase = 2.0 * np.pi * hours / (24.0 * 30.0)
    ref = (
        14.0
        + 6.0 * np.sin(season_phase)
        + 4.0 * np.sin(day_phase - 0.8 * np.pi)
        + _ar1_rows(rng, n_hours, 0.9, 1.1)
    )
    ref = np.clip(ref, 1.0, None)
    temp = (
        12.0
        + 6.0 * np.sin(season_phase + 0.9)
        + 7.0 * np.sin(day_phase - 0.55 * np.pi)
        + _ar1_rows(rng, n_hours, 0.95, 0.35)
    )
    hum = np.clip(76.0 - 1.6 * (temp - 12.0) + _ar1_rows(rng, n_hours, 0.9, 1.4), 25.0, 98.0)
    press = 1012.0 + 6.0 * np.sin(2.0 * np.pi * hours / (24.0 * 15.0)) + _ar1_rows(
        rng, n_hours, 0.98, 0.12
    )
    stamps = 1672531200 + 3600 * np.arange(n_hours, dtype=np.int64)
    per_hour = max(1, 3600 // int(profile.sample_period_s))
    period = 3600 // per_hour
    rows = []
    for s in range(profile.n_pm_sensors):
        jitter = profile.sensor_spread * rng.uniform(-1.0, 1.0, 3)
        gain = 1.0 + (profile.gain - 1.0) * (1.0 + jitter[0])
        offset = profile.offset * (1.0 + jitter[1])
        hum_coeff = profile.humidity_coeff * (1.0 + jitter[2])
        for h in range(n_hours):
            base = ref[h] * gain + offset + hum_coeff * max(0.0, hum[h] - profile.humidity_knee)
            noise = (
                rng.normal(0.0, profile.noise_std, per_hour)
                if profile.noise_std > 0
                else np.zeros(per_hour)
            )
            for k in range(per_hour):
                rows.append(
                    (int(stamps[h]) + k * period, f"pm-{s:02d}", "pm25", float(base + noise[k]))
                )
    for s in range(profile.n_env_sensors):
        for quantity, series in (("temp", temp), ("hum", hum), ("press", press)):
            for h in range(n_hours):
                noise = rng.normal(0.0, 0.05 * profile.noise_std) if profile.noise_std > 0 else 0.0
                rows.append(
                    (int(stamps[h]) + (s % per_hour) * period, f"env-{s:02d}", quantity,
                     float(series[h] + noise))
                )
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows, ref


RAW_QUANTITIES = ("pm25", "temp", "hum", "press")
RAW_REASONS = (
    "bad_timestamp",
    "non_numeric_value",
    "unknown_quantity",
    "wrong_column_count",
    "non_finite_value",
    "empty_sensor",
)


def _epoch_seconds(text: str) -> int:
    stamp = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return (stamp - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(seconds=1)


def _float_texts(texts: list) -> tuple:
    values = np.zeros(len(texts))
    bad = np.zeros(len(texts), bool)
    for i, text in enumerate(texts):
        try:
            values[i] = float(text)
        except ValueError:
            bad[i] = True
    return values, bad


def ingest_rows(paths) -> tuple:
    """Raw logs split by ``csv.reader`` over an ``io.StringIO`` of each
    decoded file, 512 rows at a time, as ingest did before its block reader:
    ``(stamps, sensors, quantities, values, sensor_names, malformed_by_reason)``.
    A row ``csv`` cannot split, or a wrong header, raises ``ValueError`` with
    the message ingest's ``DataError`` carries."""
    header_names = ["timestamp_iso8601", "sensor_id", "quantity", "value"]
    malformed = dict.fromkeys(RAW_REASONS, 0)
    parsed: dict = {}
    bad_texts: set = set()
    sensor_codes: dict = {}
    quantity_codes = {q: i for i, q in enumerate(RAW_QUANTITIES)}
    empty = np.zeros(0, np.int64)
    parts = [(empty, empty, empty, np.zeros(0))]
    for path in paths:
        reader = csv.reader(io.StringIO(path.read_text()))
        try:
            header = next(reader, None)
            if header is None:
                continue
            if [h.strip() for h in header] != header_names:
                raise ValueError(f"{path}: expected header, got {','.join(header)!r}")
            while chunk := list(islice(reader, 512)):
                malformed["wrong_column_count"] += sum(
                    len(row) != 4 and any(cell.strip() for cell in row) for row in chunk
                )
                chunk = [row for row in chunk if len(row) == 4]
                if not chunk:
                    continue
                n = len(chunk)
                stamp_texts, sensor_ids, names, value_texts = (
                    list(map(str.strip, column)) for column in zip(*chunk)
                )
                for text in dict.fromkeys(stamp_texts):
                    if text not in parsed:
                        try:
                            parsed[text] = _epoch_seconds(text)
                        except ValueError:
                            parsed[text] = 0
                            bad_texts.add(text)
                bad_stamp = np.fromiter(map(bad_texts.__contains__, stamp_texts), bool, n)
                keep = np.ones(n, bool)
                for i in np.flatnonzero(bad_stamp):
                    keep[i] = any((stamp_texts[i], sensor_ids[i], names[i], value_texts[i]))
                values, non_numeric = _float_texts(value_texts)
                quantities = np.fromiter(
                    map(quantity_codes.get, names, repeat(-1)), np.int64, n
                )
                for reason, fails in (
                    ("bad_timestamp", bad_stamp),
                    ("non_numeric_value", non_numeric),
                    ("unknown_quantity", quantities < 0),
                    ("empty_sensor", np.fromiter(map(not_, sensor_ids), bool, n)),
                    ("non_finite_value", ~np.isfinite(values)),
                ):
                    malformed[reason] += int(np.count_nonzero(keep & fails))
                    keep &= ~fails
                kept_ids = list(compress(sensor_ids, keep.tolist()))
                for sensor_id in dict.fromkeys(kept_ids):
                    sensor_codes.setdefault(sensor_id, len(sensor_codes))
                stamps = np.fromiter(map(parsed.__getitem__, stamp_texts), np.int64, n)
                parts.append((
                    stamps[keep],
                    np.array([sensor_codes[s] for s in kept_ids], dtype=np.int64),
                    quantities[keep],
                    values[keep],
                ))
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    stamps, sensors, quantities, values = (np.concatenate(column) for column in zip(*parts))
    return stamps, sensors, quantities, values, tuple(sensor_codes), malformed


def interpolate_short_gaps(values: np.ndarray, max_gap: int) -> tuple:
    """Linearly fill NaN runs of length <= max_gap that are bounded by data,
    walking the cells one at a time: ``(filled copy, cells filled)``."""
    out = values.copy()
    filled = 0
    n = out.size
    i = 0
    while i < n:
        if not np.isnan(out[i]):
            i += 1
            continue
        j = i
        while j < n and np.isnan(out[j]):
            j += 1
        run = j - i
        if run <= max_gap and i > 0 and j < n:
            left, right = out[i - 1], out[j]
            for k in range(run):
                out[i + k] = left + (right - left) * (k + 1) / (run + 1)
            filled += run
        i = j
    return out, filled


def make_windows(timestamps, features, target, window: int) -> tuple:
    """Sliding windows over the contiguous hourly runs of a dataset, found
    one hour at a time: ``(x [n, window, n_features], y [n], ends [n])``."""
    hour = 3600
    xs, ys, ends = [], [], []
    n = len(timestamps)
    run_start = 0
    for i in range(1, n + 1):
        if i < n and timestamps[i] - timestamps[i - 1] == hour:
            continue
        feats, targs, stamps = features[run_start:i], target[run_start:i], timestamps[run_start:i]
        for end in range(window - 1, feats.shape[0]):
            xs.append(feats[end - window + 1 : end + 1])
            ys.append(targs[end])
            ends.append(stamps[end])
        run_start = i
    if not xs:
        if n:
            warnings.warn(
                f"no contiguous run is {window} hours long; no windows emitted",
                stacklevel=2,
            )
        x = np.zeros((0, window, features.shape[1]))
        return x, np.zeros(0), np.zeros(0, dtype=np.int64)
    return np.stack(xs), np.asarray(ys), np.asarray(ends, dtype=np.int64)


def optimizer_step(state, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """One sgd, rmsprop or adam update that returns a new parameter vector
    and gives the state new moment arrays, as the optimizer did before it
    updated in place; ``state`` has the fields of ``nn.OptimizerState``."""
    lr = state.learning_rate
    state.step += 1
    if state.kind == "sgd":
        return params - lr * grads
    if state.kind == "rmsprop":
        state.v = 0.99 * state.v + (1.0 - 0.99) * grads**2
        return params - lr * grads / (np.sqrt(state.v) + 1e-8)
    state.m = 0.9 * state.m + (1.0 - 0.9) * grads
    state.v = 0.999 * state.v + (1.0 - 0.999) * grads**2
    m_hat = state.m / (1.0 - 0.9 ** int(state.step))
    v_hat = state.v / (1.0 - 0.999 ** int(state.step))
    return params - lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def qlstm_shift_grad(model, vqc, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The flat gradient of the mean squared error of one QLSTM (not a
    stack) on scaled windows xs [B, T, features] and targets ys [B], by
    backpropagation through time of the cell as it reads before its fc_out
    maps were folded into the circuit coefficients: each circuit's <Z> run
    row by row through the fused plan (``vqc.evaluate``), mapped through
    its fc_out entry, and differentiated by parameter shift
    (``vqc.parameter_shift_grad_batch``); the gates by their formulas."""
    p, template, hidden = model.params, model.template, model.hidden_size
    maps = [(p.fc_out_weights[s], p.fc_out_bias[s]) for s in model.fc_out_slot]
    grad = np.zeros_like(model.flat)
    g = model._bind(grad)

    def run(k, inputs):
        return np.array([vqc.evaluate(template, p.angles[k], row) for row in inputs])

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    def circuit_backward(k, e, d_out, inputs):
        """Adds circuit k's fc_out and angle gradients; returns its input
        gradient."""
        weights, _ = maps[k]
        g.fc_out_weights[model.fc_out_slot[k]] += d_out.T @ e
        g.fc_out_bias[model.fc_out_slot[k]] += d_out.sum(axis=0)
        grad_angles, grad_inputs = vqc.parameter_shift_grad_batch(
            template, p.angles[k], inputs, d_out @ weights
        )
        g.angles[k] += grad_angles.sum(axis=0)
        return grad_inputs

    def dense_backward(layer, grads, x, delta):
        grads.weights += delta.T @ x
        grads.bias += delta.sum(axis=0)
        return delta @ layer.weights

    h = c = np.zeros((len(xs), hidden))
    steps = []
    for t in range(xs.shape[1]):
        concat = np.hstack([h, xs[:, t]])
        v = concat @ p.fc_in.weights.T + p.fc_in.bias
        e = [run(k, v) for k in range(4)]
        zf, zi, zg, zo = (e[k] @ maps[k][0].T + maps[k][1] for k in range(4))
        f, i, g_gate, o = sigmoid(zf), sigmoid(zi), np.tanh(zg), sigmoid(zo)
        c_prev, c = c, f * c + i * g_gate
        u = o * np.tanh(c)
        w = u @ p.projection.weights.T + p.projection.bias
        e_out = [run(k, w) for k in (4, 5)]
        h, q = (e_out[k - 4] @ maps[k][0].T + maps[k][1] for k in (4, 5))
        steps.append((concat, v, e, f, i, g_gate, o, c_prev, c, u, w, e_out, q))
    pred = q @ p.readout.weights[0] + p.readout.bias[0]
    d_pred = 2.0 * (pred - ys) / len(ys)

    dh = dc = np.zeros((len(xs), hidden))
    for t in range(len(steps) - 1, -1, -1):
        concat, v, e, f, i, g_gate, o, c_prev, c, u, w, e_out, q = steps[t]
        if t == len(steps) - 1:  # only the last step's circuit 6 reaches the prediction
            k, d_out = 5, dense_backward(p.readout, g.readout, q, d_pred[:, None])
        else:
            k, d_out = 4, dh
        dw = circuit_backward(k, e_out[k - 4], d_out, w)
        du = dense_backward(p.projection, g.projection, u, dw)
        tc = np.tanh(c)
        dc = dc + du * o * (1.0 - tc**2)
        dzs = (
            dc * c_prev * f * (1.0 - f),
            dc * g_gate * i * (1.0 - i),
            dc * i * (1.0 - g_gate**2),
            du * tc * o * (1.0 - o),
        )
        dc = dc * f
        dv = sum(circuit_backward(k, e[k], dz, v) for k, dz in enumerate(dzs))
        dh = dense_backward(p.fc_in, g.fc_in, concat, dv)[:, :hidden]
    return grad


def batch_loss(nn, kind, targets, preds):
    """The mean ``kind`` loss of one model's predictions and its gradient,
    by the package's per-batch ``nn.loss_value`` and ``nn.loss_grad``, the
    loss the training loop used before it scored every model of a stack in
    one pass."""
    return nn.loss_value(kind, preds, targets), nn.loss_grad(kind, preds, targets)


def serial_fit(models, experiments, kind, dataset, config, options=None):
    """``models.fit_model`` as it was before training went through a stack
    of models: the model and windows of ``models.prepare_fit``, then one
    minibatch step after another on the model's own parameter vector.
    Returns the model and its per-epoch losses, or raises the
    ``TrainingDivergedError`` of the epoch whose loss or gradient is not
    finite."""
    from functools import partial

    model, x, y = models.prepare_fit(kind, dataset, config, options)
    xs, ys = model.scale_windows(x), model.scale_targets(y)
    order_rng = np.random.default_rng(np.random.SeedSequence([int(config.seed), 99]))
    optimizer = models.nn.init_optimizer(config.optimizer, config.learning_rate, model.param_count())
    history = []
    for epoch in range(config.epochs):
        order = order_rng.permutation(y.size)
        running = 0.0
        for start in range(0, y.size, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss = partial(batch_loss, models.nn, config.loss, ys[batch])
            value, grad = model._loss_and_grad_scaled(xs[batch], loss)
            if not (np.isfinite(value) and np.all(np.isfinite(grad))):
                raise experiments.TrainingDivergedError(epoch)
            models.nn.optimizer_step(optimizer, model.flat, grad)
            running += value * batch.size
        scale = model.target_halfspan if config.loss == "l1" else model.target_halfspan**2
        history.append(running / y.size * scale)
    return model, history


def serial_cross_validate(models, experiments, kind, dataset, config, spec, options=None):
    """Cross-validation with every fold trained alone by :func:`serial_fit`,
    one after another, as ``experiments.cross_validate`` did before it
    trained its folds in lockstep.  Returns the report and, per fold, its ``(model, history)``,
    or None where the fold diverged."""
    from dataclasses import asdict, replace

    entries, series, fits = [], [], []
    for i, test_indices in enumerate(experiments.make_folds(len(dataset), spec)):
        mask = np.ones(len(dataset), dtype=bool)
        mask[test_indices] = False
        train_set = dataset.subset(np.nonzero(mask)[0])
        test_set = dataset.subset(test_indices)
        fold_config = replace(config, seed=int(config.seed) + i)
        entry = {
            "fold": i,
            "seed": fold_config.seed,
            "train_hours": int(len(train_set)),
            "test_hours": int(len(test_set)),
        }
        entries.append(entry)
        try:
            model, history = serial_fit(models, experiments, kind, train_set, fold_config, options)
        except experiments.TrainingDivergedError as err:
            entry["error"] = str(err)
            fits.append(None)
            continue
        losses, rows = experiments.score_holdout(model, test_set)
        series.extend(rows)
        entry.update(losses)
        entry["final_train_loss"] = history[-1] if history else None
        fits.append((model, history))
    series.sort(key=lambda row: row["timestamp"])
    good = [e for e in entries if "error" not in e]
    average = None
    if good:
        average = {key: float(np.mean([e[key] for e in good])) for key in models.METRICS}
    trained = next((fit[0] for fit in fits if fit is not None), None)
    report_options = trained.options if trained else models.resolve_options(kind, options)
    report = experiments.MetricsReport(
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
    return report, fits


def serial_grid_search(
    models, experiments, kind, dataset, grid, base_config=None, options=None,
    train_fraction=0.75, rank_loss="l1",
):
    """The grid search with every point trained alone by :func:`serial_fit`,
    one after another, as ``experiments.grid_search`` did before it trained
    its points in lockstep.  Returns the result and, per point, its ``(model, history)``,
    or None where the point failed."""
    from dataclasses import replace

    errors = (experiments.ConfigurationError, experiments.DataError, experiments.TrainingDivergedError)
    base = base_config or models.default_config(kind)
    train_set, test_set = experiments.chronological_split(dataset, train_fraction)
    entries, fits = [], []
    for index, overrides in enumerate(experiments.grid_points(grid)):
        entry = {"index": index, "params": models._jsonable(overrides)}
        config_fields, option_fields = models.split_settings(overrides)
        fit = None
        try:
            config = replace(base, **config_fields)
            fit = serial_fit(
                models, experiments, kind, train_set, config, {**(options or {}), **option_fields}
            )
            entry.update(experiments.score_holdout(fit[0], test_set)[0])
            entry["final_train_loss"] = fit[1][-1] if fit[1] else None
        except errors as err:
            entry["error"] = f"{type(err).__name__}: {err}"
            fit = None
        entries.append(entry)
        fits.append(fit)
    ranked = sorted(
        (e for e in entries if "error" not in e), key=lambda e: (e[rank_loss], e["index"])
    )
    result = experiments.GridSearchResult(
        model_kind=kind,
        rank_loss=rank_loss,
        grid_size=experiments.grid_size(grid),
        train_fraction=train_fraction,
        seed=int(base.seed),
        entries=entries,
        ranking=[e["index"] for e in ranked],
    )
    return result, fits
