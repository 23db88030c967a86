"""Independent reference implementations the tests check the package against.

The simulator oracle builds full 2^n x 2^n dense unitaries with Kronecker
products and literal gate matrices; the gradient oracle is plain central
finite differences; the aggregation and fusion oracles are the row-wise
dict loops that the columnar data path replaced, the raw-log oracle the
``csv.reader`` chunk loop that the block reader replaced, the hourly-file
oracles the row loops that named a bad line before the columnar readers
did (each naming the line a row starts on), the synthesis
oracle the nested per-row loops that columnar synthesis replaced, and the
window oracle the per-hour run loop that the vectorized ``make_windows``
replaced, the optimizer oracle the out-of-place update that the in-place
``nn.optimizer_step`` replaced, and the training, cross-validation and
grid-search oracles the serial loops that lockstep training replaced: one
model trained alone, one minibatch step after another, and one such fit
per fold or grid point, each step scored by the per-batch loss calls that
the one-pass stack loss replaced.  The QLSTM oracle is its cell before the
fc_out maps were folded into the circuit coefficients, each circuit run
through the fused plan and differentiated by parameter shift; the
per-step QLSTM oracle is its cell before the maps in front of its circuits
were folded into their frequencies and its weight gradients were taken once
per window, with the dense layers' and the circuit features' input
gradients the package no longer makes; the phase-path oracle is the run
and pull-back of the qlstm's circuits before the model made their features
itself; the every-step QLSTM oracle is its
forward pass as it would run if it read out every step, circuits 5 and 6
and the readout run at every step.
The circuit-kernel oracles are the vqr step's pieces before their gathers
went through ``take``: the member-gradient turn loop and the embedding's
one-qubit states, whose product is taken one row at a time with ``np.kron``.  Nothing here
imports the package's kernels: the serial loops take the package's
``models`` and ``experiments`` modules as arguments, and run one model's
unstacked training step, ``_loss_and_grad_scaled`` on its own ``flat``; the
QLSTM oracles take ``vqc`` and ``nn`` the same way."""

from __future__ import annotations

import csv
import io
import math
import warnings
from datetime import datetime, timedelta, timezone
from functools import reduce
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


def _hourly_rows(path, header) -> list:
    """The data rows of an hourly CSV read by ``csv.reader``, each with the
    line it starts on, after checking the header; a row ``csv`` cannot
    split, or a wrong header, raises ``ValueError`` with the message of the
    reader's ``DataError``."""
    reader = csv.reader(io.StringIO(path.read_text()))
    rows = []
    try:
        first = next(reader, None)
        if first is None:
            return rows
        if [h.strip() for h in first] != list(header):
            raise ValueError(
                f"{path}: expected header {','.join(header)!r}, got {','.join(first)!r}"
            )
        line = reader.line_num + 1
        for row in reader:
            rows.append((line, row))
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    return rows


def _hour_seconds(text: str) -> int:
    try:
        return _epoch_seconds(text)
    except ValueError as exc:
        raise ValueError(f"bad timestamp {text!r}") from exc


def _stamp_text(seconds) -> str:
    return datetime.fromtimestamp(int(seconds), tz=timezone.utc).isoformat().replace("+00:00", "Z")


def load_reference_rows(path) -> list:
    """The reference log read row by row, as ``load_reference`` did before
    it named a bad line itself: ``[timestamps, values]`` in stamp order. A
    bad row, or an hour given twice, raises ``ValueError`` with the message
    of the reader's ``DataError``."""
    stamps, values = [], []
    for line, row in _hourly_rows(path, ("timestamp_iso8601", "pm25_ug_m3")):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            if len(row) != 2:
                raise ValueError(f"reference row needs 2 columns, got {row}")
            stamp = _hour_seconds(row[0])
            if stamp % 3600:
                raise ValueError(f"reference stamp {row[0].strip()} is not on the hour")
            stamps.append(stamp)
            values.append(float(row[1]))
        except ValueError as err:
            raise ValueError(f"{path}:{line}: {err}") from err
    stamps = np.asarray(stamps, dtype=np.int64)
    order = np.argsort(stamps, kind="stable")
    ts = stamps[order]
    repeated = ts[1:][np.diff(ts) == 0]
    if repeated.size:
        raise ValueError(f"{path}: reference hour {_stamp_text(repeated[0])} repeats")
    return [ts, np.asarray(values, dtype=float)[order]]


def dataset_rows(path) -> list:
    """``dataset.csv`` read row by row, as ``dataset_from_csv`` did before
    it named a bad line itself: ``[timestamps, feature_names, features,
    target]``. A bad row raises ``ValueError`` with the message of the
    reader's ``DataError``."""
    header = ("timestamp", "pm25", "temp", "hum", "press", "ref_pm25")
    stamps, rows, targets = [], [], []
    present = None
    for line, row in _hourly_rows(path, header):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            if len(row) != len(header):
                raise ValueError(f"dataset row has {len(row)} columns")
            stamp = _hour_seconds(row[0])
            if stamp % 3600:
                raise ValueError(f"timestamp {row[0].strip()} is not on the hour")
            if stamps and stamp <= stamps[-1]:
                raise ValueError(
                    f"timestamp {row[0].strip()} does not follow {_stamp_text(stamps[-1])}"
                )
            stamps.append(stamp)
            cells = row[1:5]
            flags = [bool(c.strip()) for c in cells]
            if present is None:
                present = flags
            elif flags != present:
                raise ValueError("inconsistent feature columns across rows")
            values = [float(c) for c, ok in zip(cells, flags) if ok]
            target = float(row[5])
            if not (all(map(math.isfinite, values)) and math.isfinite(target)):
                name, cell = next(
                    (name, cell.strip())
                    for name, cell in zip(header[1:], row[1:])
                    if cell.strip() and not math.isfinite(float(cell))
                )
                raise ValueError(f"{name} value {cell!r} is not finite")
            rows.append(values)
            targets.append(target)
        except ValueError as err:
            raise ValueError(f"{path}:{line}: {err}") from err
    if not stamps:
        raise ValueError(f"{path}: dataset file holds no rows")
    names = tuple(n for n, ok in zip(header[1:5], present) if ok)
    if "pm25" not in names:
        raise ValueError(f"{path}: the pm25 column is blank")
    return [
        np.asarray(stamps, dtype=np.int64),
        names,
        np.asarray(rows, dtype=float),
        np.asarray(targets, dtype=float),
    ]


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


def member_grads_loop(plan, pauli: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """``vqc._member_grads`` as it read with fancy indexing: derivatives
    [rows, n_angles] of every gate angle of a fused ``plan`` (the
    package's) from the Pauli readings [3, n_groups, rows] after each group
    and the fused tables of the cosines and sines of the angles.  Each
    class's readings are gathered, then turned back in place through each
    later member's rotation."""
    dfused = np.empty_like(sin)
    for cls in plan.classes:
        size = len(cls.axes) * cls.groups.size
        c, s, d = (
            table[cls.start : cls.start + size].reshape(len(cls.axes), -1, table.shape[-1])
            for table in (cos, sin, dfused)
        )
        t = pauli[:, cls.groups]  # [3, G, rows]
        for m in range(len(cls.axes) - 1, -1, -1):
            k = cls.axes[m]
            d[m] = t[k]
            if m:
                ti, tj, cm, sm = t[(k + 1) % 3], t[(k + 2) % 3], c[m], s[m]
                minus = sm * ti
                ti *= cm
                ti += sm * tj
                tj *= cm
                tj -= minus
    return dfused[plan.fused_of_angle].T


def embedding_factors(template, inputs: np.ndarray) -> np.ndarray:
    """The first half of ``vqc._product_states`` as it read with
    ``np.moveaxis``, a list index and a zero-filled array: the one-qubit
    states [n, 2, ...] that the first segment's rotations make from |0>
    for inputs [..., input_dim]; a qubit that encodes no feature stays
    |0>."""
    embedding = template.segments[0]
    count = len(embedding.feature_slots)
    angles = np.moveaxis(inputs[..., list(embedding.feature_slots)], -1, 0)
    if embedding.transform == "arctan":
        angles = np.arctan(angles)
    phase = -1j if embedding.axis == "X" else 1.0
    factors = np.zeros((template.n_qubits, 2) + inputs.shape[:-1], dtype=np.complex128)
    factors[count:, 0] = 1.0
    factors[:count, 0], factors[:count, 1] = np.cos(0.5 * angles), phase * np.sin(0.5 * angles)
    return factors


def product_states(factors: np.ndarray) -> np.ndarray:
    """The product of one-qubit states [n, 2, ...] as amplitudes [...,
    2**n], qubit 0 the least significant bit, one Kronecker product per
    row."""
    lead = factors.shape[2:]
    rows = factors.reshape(factors.shape[:2] + (-1,))
    states = [
        reduce(np.kron, [rows[q, :, r] for q in range(len(rows) - 1, -1, -1)])
        for r in range(rows.shape[-1])
    ]
    return np.array(states).reshape(lead + (-1,))


def qlstm_every_step_forward(model, nn, vqc, x_scaled: np.ndarray, cell) -> tuple:
    """``QLSTMModel.sequence_forward`` of a QLSTM or a stack of them on
    windows [..., B, T, features], through the folded circuits ``cell``,
    as it would run if it read out every step: each step runs circuits 5
    and 6 together and the readout, through the same folded maps.  Returns
    the last step's predictions [..., B] and the ``_Window`` it wrote, as
    ``QLSTMModel._backward`` reads it."""
    window = model._window(x_scaled, cell)
    hidden, steps, m = model.hidden_size, x_scaled.shape[-2], window.drive.shape[-1]
    for t in range(steps):
        x = window.drive[t]
        if t:
            x = window.concat[t, ..., :hidden] @ cell.hidden_map[..., :m] + x
        t_v, t_w = window.t_v[t], window.t_w[t]
        vqc.fourier_features(x, t_v[..., :-1])
        z = cell.outputs(slice(0, 4), t_v, window.z[t])
        nn.lstm_gates(z, window.c[t], (window.c[t + 1], window.tc[t], window.u[t]))
        w = window.u[t] @ cell.projection_map[..., :m] + cell.projection_bias
        vqc.fourier_features(w, t_w[..., :-1])
        out = np.empty(t_w.shape[:-2] + (2,) + window.q.shape[-2:])
        h, q = np.moveaxis(cell.outputs(slice(4, 6), t_w, out), -3, 0)
        y = nn.dense_forward(model.params.readout, q)[0][..., 0]
        if t + 1 < steps:
            window.concat[t + 1, ..., :hidden] = h
    window.q[...] = q
    return y, window


def linear_backward(layer, x: np.ndarray, delta: np.ndarray, grads) -> np.ndarray:
    """The gradient of the pre-activation x W^T + b of a dense layer for
    upstream delta [..., B, n_out]: adds the weight and bias gradients,
    summed over the batch, into ``grads`` and returns the input gradient
    [..., B, n_in]."""
    grads.weights += delta.swapaxes(-1, -2) @ x
    grads.bias += delta.sum(axis=-2)
    return delta @ layer.weights


def phase_features(frequencies: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The Fourier features t = (cos a, sin a) [..., B, 2m] of the inputs x
    [..., B, n] of a phase-polynomial circuit, a = [x, arctan x] @
    frequencies their angles at its m input frequencies [2n, m]."""
    angles = np.concatenate([x, np.arctan(x)], axis=-1) @ frequencies
    return np.concatenate([np.cos(angles), np.sin(angles)], axis=-1)


def phase_run(circuits, x: np.ndarray) -> tuple:
    """<Z> [..., K, B, n] of ``vqc.PhaseCircuits`` ``circuits`` [..., K]
    on the inputs x [..., B, n] that they share, as their run read before
    the qlstm made its features itself: the :func:`phase_features` t of the
    inputs times the coefficients; returns <Z> and t."""
    t = phase_features(circuits.frequencies.inputs, x)
    return t[..., None, :, :] @ circuits.coefficients.swapaxes(-1, -2), t


def phase_pull_back(t: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The seeds sum_b w t [..., K, n, 2m] that ``PhaseCircuits.param_grads``
    takes for f = sum w <Z>, weights [..., K, B, n], over the rows of a
    :func:`phase_run` whose features were t [..., B, 2m]."""
    return weights.swapaxes(-1, -2) @ t[..., None, :, :]


def phase_feature_grads(
    frequencies: np.ndarray, t: np.ndarray, dt: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """The gradient [..., B, n] at the inputs x whose :func:`phase_features`
    are t, for the gradient dt at t: da = cos a dt_sin - sin a dt_cos at the
    angles, then back through the frequencies to [x, arctan x], the arctan
    part by the chain rule 1/(1+x^2)."""
    m, n = t.shape[-1] // 2, x.shape[-1]
    da = t[..., :m] * dt[..., m:] - t[..., m:] * dt[..., :m]
    dsource = da @ frequencies.T
    return dsource[..., n:] * (1.0 / (1.0 + x**2)) + dsource[..., :n]


def qlstm_per_step(model, nn, vqc, x_scaled: np.ndarray, loss) -> tuple:
    """The predictions [..., B] and flat gradient of a QLSTM or a stack of
    them on windows [..., B, T, features] for ``loss`` (predictions ->
    loss, gradient), by its cell as it read before the maps around its
    circuits were folded into their frequencies: per step the [h_prev, x_t]
    concatenation, fc_in by ``nn.dense_forward``, the circuits' features
    of [v, arctan v] through every frequency row, the projection the same
    way (:func:`phase_features`), and in the backward pass
    :func:`phase_feature_grads` and :func:`linear_backward` per map and
    step, the G_k and bias sums added step by step, and the fc_out gradient
    scattered into its slots by ``np.add.at``.  The fc_out maps stay folded
    into the coefficients, F_k = C_k^T W_k^T."""
    p, hidden = model.params, model.hidden_size
    circuits = vqc.PhaseCircuits(model.template, p.angles)
    omega = circuits.frequencies.inputs
    tables = circuits.coefficients.swapaxes(-1, -2) @ p.fc_out_weights.swapaxes(-1, -2)
    bias = p.fc_out_bias[..., model.fc_out_slot, None, :]

    def outputs(gates, t):
        return t[..., None, :, :] @ tables[..., gates, :, :] + bias[..., gates, :, :]

    h = c = np.zeros(x_scaled.shape[:-2] + (hidden,))
    caches, steps = [], x_scaled.shape[-2]
    for t in range(steps):
        concat = np.concatenate([h, x_scaled[..., t, :]], axis=-1)
        v = nn.dense_forward(p.fc_in, concat)[0]
        t_v = phase_features(omega, v)
        u, c, gates = nn.lstm_gates(outputs(slice(0, 4), t_v), c)
        w = nn.dense_forward(p.projection, u)[0]
        t_w = phase_features(omega, w)
        h, q = np.moveaxis(outputs(slice(4, 6), t_w), -3, 0)
        caches.append((concat, v, t_v, gates, u, w, t_w))
    preds = nn.dense_forward(p.readout, q)[0][..., 0]
    d_pred = loss(preds)[1]

    grad = np.zeros_like(model.flat)
    g = model._bind(grad)
    sums = np.zeros(tables.shape)
    bias_sums = np.zeros(tables.shape[:-2] + (hidden,))
    dh = dc = np.zeros(d_pred.shape + (hidden,))
    for t in range(steps - 1, -1, -1):
        concat, v, t_v, gates, u, w, t_w = caches[t]
        if t == steps - 1:
            k, d_out = 5, linear_backward(p.readout, q, d_pred[..., None], g.readout)
        else:
            k, d_out = 4, dh
        sums[..., k, :, :] += t_w.swapaxes(-1, -2) @ d_out
        bias_sums[..., k, :] += d_out.sum(axis=-2)
        dt = d_out @ tables[..., k, :, :].swapaxes(-1, -2)
        dw = phase_feature_grads(omega, t_w, dt, w)
        du = linear_backward(p.projection, u, dw, g.projection)
        dz, dc = nn.lstm_gates_backward(gates, du, dc)
        sums[..., :4, :, :] += t_v[..., None, :, :].swapaxes(-1, -2) @ dz
        bias_sums[..., :4, :] += dz.sum(axis=-2)
        dt = (dz @ tables[..., :4, :, :].swapaxes(-1, -2)).sum(axis=-3)
        dv = phase_feature_grads(omega, t_v, dt, v)
        dh = linear_backward(p.fc_in, concat, dv, g.fc_in)[..., :hidden]
    every = slice(None)
    grad_fc_w = (circuits.coefficients @ sums).swapaxes(-1, -2)
    np.add.at(g.fc_out_weights, (..., model.fc_out_slot, every, every), grad_fc_w)
    np.add.at(g.fc_out_bias, (..., model.fc_out_slot, every), bias_sums)
    g.angles += circuits.param_grads((sums @ p.fc_out_weights).swapaxes(-1, -2))
    return preds, grad


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
            k, d_out = 5, linear_backward(p.readout, q, d_pred[:, None], g.readout)
        else:
            k, d_out = 4, dh
        dw = circuit_backward(k, e_out[k - 4], d_out, w)
        du = linear_backward(p.projection, u, dw, g.projection)
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
        dh = linear_backward(p.fc_in, concat, dv, g.fc_in)[:, :hidden]
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
