"""Independent reference implementations the tests check the package against.

The simulator oracle builds full 2^n x 2^n dense unitaries with Kronecker
products and literal gate matrices; the gradient oracle is plain central
finite differences; the aggregation and fusion oracles are the row-wise
dict loops that the columnar data path replaced, the raw-log oracle the
``csv.reader`` chunk loop that the block reader replaced, the synthesis
oracle the nested per-row loops that columnar synthesis replaced, and the
window oracle the per-hour run loop that the vectorized ``make_windows``
replaced.  Nothing here imports the package's kernels."""

from __future__ import annotations

import csv
import io
import warnings
from datetime import datetime, timezone
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
    return int(stamp.timestamp())


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
