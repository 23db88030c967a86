"""Measurement ingest, aggregation, fusion, cleaning, and synthetic campaigns.

The pipeline turns raw multi-sensor streams into an hourly calibration
dataset.  The raw path works on columns (``SampleColumns``: int64 stamps,
sensor and quantity codes, float64 values), never on a Python object per
row:

1. ingest splits raw rows (``timestamp_iso8601,sensor_id,quantity,value``)
   into columns a block at a time: a quote-free log is cut at line ends into
   blocks of about 32 K characters, each split by one ``str.split``, and
   only a log with quotes (or NUL) is read by ``csv.reader``; it parses each
   distinct timestamp text once and counts malformed rows by reason,
2. aggregate finds each (sensor, quantity, bucket) group with one sort and
   takes minute or hour means with ``np.bincount`` sums in input order,
3. fuse sorts the hourly means by (quantity, hour, value) and takes each
   group's median across sensors,
4. align looks the fused features up on the hourly reference grid,
   interpolating short feature gaps (at most two consecutive hours) and
   dropping hours that cannot be repaired,
5. scale features/targets with a [-1, +1] range map fitted on training
   rows only, window the rows, and split chronologically.

A deterministic synthetic campaign generator emits the same CSV schemas,
so every downstream stage can be exercised without the field recordings.
It is columnar too: each sensor stream is drawn as whole arrays into one
``SampleColumns``, one ``np.lexsort`` puts the rows in (timestamp,
sensor_id, quantity) order, and ``write_campaign`` formats each distinct
timestamp once.  ``SyntheticCampaign.samples`` gives the rows as
``RawSample`` records only for readers outside the package.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import compress, islice, repeat
from operator import not_
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DataError

HOUR = 3600
MINUTE = 60

QUANTITIES = ("pm25", "temp", "hum", "press")
FEATURE_COLUMNS = QUANTITIES  # cached-dataset column order
DATASET_HEADER = ("timestamp", "pm25", "temp", "hum", "press", "ref_pm25")
RAW_HEADER = ("timestamp_iso8601", "sensor_id", "quantity", "value")
REFERENCE_HEADER = ("timestamp_iso8601", "pm25_ug_m3")
PREDICTIONS_HEADER = ("timestamp", "raw_pm25", "calibrated_pm25", "reference_pm25")

GRANULARITIES = {"minute": MINUTE, "hour": HOUR}
MALFORMED_REASONS = (
    "bad_timestamp",
    "non_numeric_value",
    "unknown_quantity",
    "wrong_column_count",
    "non_finite_value",
    "empty_sensor",
)


def parse_timestamp(text: str) -> int:
    """ISO-8601 (UTC assumed when unzoned) to epoch seconds."""
    raw = text.strip()
    try:
        stamp = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError as exc:
        raise DataError(f"bad timestamp {text!r}") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return int(stamp.timestamp())


def format_timestamp(seconds: int) -> str:
    return (
        datetime.fromtimestamp(int(seconds), tz=timezone.utc)
        .isoformat()
        .replace("+00:00", "Z")
    )


def format_timestamps(stamps: np.ndarray) -> list[str]:
    """``format_timestamp`` of each int64 epoch second, in one NumPy call."""
    texts = np.datetime_as_string(np.asarray(stamps).astype("datetime64[s]"), unit="s")
    return [text + "Z" for text in texts.tolist()]


@dataclass(frozen=True)
class RawSample:
    timestamp: int  # epoch seconds, UTC
    sensor_id: str
    quantity: str
    value: float


@dataclass(frozen=True)
class SampleColumns:
    """Samples as parallel columns, raw from ``ingest`` or bucket means from
    ``aggregate``; ``sensors`` index ``sensor_names`` and ``quantities``
    index ``QUANTITIES``."""

    timestamps: np.ndarray  # int64 epoch seconds, UTC (bucket starts once aggregated)
    sensors: np.ndarray  # int64
    quantities: np.ndarray  # int64
    values: np.ndarray  # float64
    sensor_names: tuple[str, ...]

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass
class IngestResult:
    samples: SampleColumns
    malformed_by_reason: dict[str, int]  # every key of MALFORMED_REASONS

    @property
    def malformed(self) -> int:
        return sum(self.malformed_by_reason.values())


@dataclass(frozen=True)
class Series:
    """A time-indexed value series; timestamps strictly increasing."""

    timestamps: np.ndarray  # int64 epoch seconds
    values: np.ndarray  # float64

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=np.int64)
        vals = np.asarray(self.values, dtype=float)
        if ts.shape != vals.shape or ts.ndim != 1:
            raise ConfigurationError("series timestamps/values shapes disagree")
        if ts.size > 1 and np.any(np.diff(ts) <= 0):
            raise ConfigurationError("series timestamps must strictly increase")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.timestamps.size)


@dataclass(frozen=True)
class CalibrationDataset:
    """Hour-aligned features and reference target for calibration models."""

    timestamps: np.ndarray  # int64, strictly increasing, on the hour grid
    feature_names: tuple[str, ...]
    features: np.ndarray  # [n_hours, n_features]
    target: np.ndarray  # [n_hours] reference PM2.5

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=np.int64)
        feats = np.asarray(self.features, dtype=float)
        target = np.asarray(self.target, dtype=float)
        if feats.ndim != 2 or feats.shape != (ts.size, len(self.feature_names)):
            raise ConfigurationError("feature matrix shape disagrees with names/rows")
        if target.shape != (ts.size,):
            raise ConfigurationError("target length disagrees with timestamps")
        if ts.size > 1 and np.any(np.diff(ts) <= 0):
            raise ConfigurationError("dataset timestamps must strictly increase")
        if np.any(ts % HOUR != 0):
            raise ConfigurationError("dataset timestamps must lie on the hour grid")
        if not (np.all(np.isfinite(feats)) and np.all(np.isfinite(target))):
            raise DataError("dataset contains non-finite entries")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "target", target)

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def subset(self, indices: Sequence[int]) -> "CalibrationDataset":
        idx = np.asarray(indices, dtype=int)
        return CalibrationDataset(
            self.timestamps[idx],
            self.feature_names,
            self.features[idx],
            self.target[idx],
        )

    def select_features(self, names: Sequence[str]) -> "CalibrationDataset":
        missing = [n for n in names if n not in self.feature_names]
        if missing:
            raise ConfigurationError(f"dataset lacks features {missing}")
        cols = [self.feature_names.index(n) for n in names]
        return CalibrationDataset(
            self.timestamps, tuple(names), self.features[:, cols], self.target
        )


# ---------------------------------------------------------------------------
# ingest


def _read_text(path: Path) -> str:
    """The whole decoded text of a file, with ``\\r\\n`` and ``\\r`` read as
    ``\\n``; one that cannot be read or decoded is a ``DataError``, raised
    before any row is split."""
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _check_header(path: Path, header: list[str], expected_header: tuple[str, ...]) -> None:
    if [h.strip() for h in header] != list(expected_header):
        raise DataError(
            f"{path}: expected header {','.join(expected_header)!r}, "
            f"got {','.join(header)!r}"
        )


def _csv_rows(path: Path, expected_header: tuple[str, ...], text: str) -> Iterator[list[str]]:
    """The data rows of a CSV text, one at a time, after checking its
    header; a row the ``csv`` module cannot split is a ``DataError``.

    ``dataset_from_csv`` and ``load_reference`` read through here on
    purpose, although the ``io.StringIO`` below holds a second copy of the
    text at 4 bytes per character: freeing that large block is what raises
    glibc malloc's mmap threshold before the models run on a loaded
    dataset.  Without it, the large temporaries of a later predict map
    fresh pages on every call (a StringIO-free ``dataset_from_csv`` took
    predict-year from 0.035 to 0.055 s per operation).
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            return
        _check_header(path, header, expected_header)
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc


# a quoted raw log is split 512 rows at a time: few enough that a chunk's
# row lists are freed before the garbage collector moves them to an older
# generation (16,384 rows made ingest half again slower), enough that the
# per-chunk NumPy calls cost little per row
_INGEST_CHUNK = 512
# a quote-free raw log is split in blocks of about this many characters,
# about 650 rows of the synthetic schema (256 K-character blocks ran half
# again slower)
_INGEST_BLOCK = 32_768
# the ASCII characters that str.strip removes, less the line ends that a
# block never holds
_ASCII_BLANKS = " \t\x0b\x0c\x1c\x1d\x1e\x1f"

_RawColumns = tuple[list[str], list[str], list[str], list[str], int]


def _has_text(cells: Iterable[str]) -> bool:
    return any(cell.strip() for cell in cells)


def _csv_columns(path: Path, text: str) -> Iterator[_RawColumns]:
    """``_raw_columns`` through ``csv.reader``, for text that needs its
    quoting rules."""
    rows = _csv_rows(path, RAW_HEADER, text)
    while chunk := list(islice(rows, _INGEST_CHUNK)):
        wrong = 0
        if set(map(len, chunk)) != {4}:
            wrong = sum(len(row) != 4 and _has_text(row) for row in chunk)
            chunk = [row for row in chunk if len(row) == 4]
        columns = [list(map(str.strip, column)) for column in zip(*chunk)] or [[], [], [], []]
        yield (*columns, wrong)


def _check_field_limit(path: Path, first_line: int, lines: list[str]) -> None:
    """The ``DataError`` that ``csv.reader`` gives a field over its limit."""
    limit = csv.field_size_limit()
    for line, text in enumerate(lines, first_line):
        if len(text) > limit and max(map(len, text.split(","))) > limit:
            raise DataError(f"{path}:{line}: field larger than field limit ({limit})")


def _block_columns(path: Path, text: str) -> Iterator[_RawColumns]:
    """``_raw_columns`` of a text without quotes or NUL, where every line is
    a row and every comma splits cells, as ``csv.reader`` reads it.

    The text is cut at ``\\n`` (never ``splitlines``, which also cuts at
    ``\\x0b``, ``\\x85`` and more) into blocks of about ``_INGEST_BLOCK``
    characters; one ``str.split`` over a block's three-comma lines gives
    their cells, and the cells are stripped only when the block holds a
    character ``str.strip`` removes.
    """
    if not text:
        return
    # blocks are sliced from the text itself: a body copy would double it
    header_end = text.find("\n")
    header = text if header_end < 0 else text[:header_end]
    _check_field_limit(path, 1, [header])
    _check_header(path, header.split(","), RAW_HEADER)
    start, stop = len(header) + 1, len(text) - text.endswith("\n")
    line = 2
    while start < stop:
        end = text.find("\n", start + _INGEST_BLOCK, stop)
        end = stop if end < 0 else end
        block = text[start:end]
        start = end + 1
        lines = block.split("\n")
        if len(block) > csv.field_size_limit():
            _check_field_limit(path, line, lines)
        line += len(lines)
        commas = list(map(str.count, lines, repeat(",")))
        wrong = 0
        if commas.count(3) != len(lines):
            wrong = sum(c != 3 and _has_text(row.split(",")) for row, c in zip(lines, commas))
            block = "\n".join(compress(lines, [c == 3 for c in commas]))
        cells = block.replace("\n", ",").split(",") if block else []
        if not block.isascii() or any(blank in block for blank in _ASCII_BLANKS):
            cells = list(map(str.strip, cells))
        yield cells[0::4], cells[1::4], cells[2::4], cells[3::4], wrong


def _raw_columns(path: Path) -> Iterator[_RawColumns]:
    """A raw log's rows, a few hundred at a time, as four stripped cell
    columns (stamp, sensor id, quantity, value) of its four-cell rows and the
    count of its other rows that are not blank."""
    text = _read_text(path)
    if '"' in text or "\0" in text:
        # quoting rules, and the csv module of Python 3.10 refuses NUL
        return _csv_columns(path, text)
    return _block_columns(path, text)


def _floats(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``float`` of each text, and a mask of the texts that are no number."""
    try:
        return np.array(list(map(float, texts)), dtype=float), np.zeros(len(texts), bool)
    except ValueError:
        pass
    values = np.zeros(len(texts))
    bad = np.zeros(len(texts), bool)
    for i, text in enumerate(texts):
        try:
            values[i] = float(text)
        except ValueError:
            bad[i] = True
    return values, bad


def ingest(paths: Sequence[str | Path]) -> IngestResult:
    """Parse raw sample CSVs into columns; malformed rows are counted by
    reason, never silently lost.

    A row whose cells are all blank is skipped.  Any other row is checked
    for four columns, a timestamp, a numeric value, a known quantity, a
    sensor id and a finite value, in that order, and the first check it
    fails is its reason.  Each distinct timestamp text is parsed once.
    """
    malformed = dict.fromkeys(MALFORMED_REASONS, 0)
    parsed: dict[str, int] = {}  # timestamp text -> epoch seconds, 0 when bad
    bad_texts: set[str] = set()
    sensor_codes: dict[str, int] = {}
    quantity_codes = {q: i for i, q in enumerate(QUANTITIES)}
    empty = np.zeros(0, np.int64)
    parts = [(empty, empty, empty, np.zeros(0))]
    for path in paths:
        for stamp_texts, sensor_ids, names, value_texts, wrong in _raw_columns(Path(path)):
            malformed["wrong_column_count"] += wrong
            n = len(stamp_texts)
            if not n:
                continue
            for text in dict.fromkeys(stamp_texts):
                if text not in parsed:
                    try:
                        parsed[text] = parse_timestamp(text)
                    except ValueError:
                        parsed[text] = 0
                        bad_texts.add(text)
            bad_stamp = np.fromiter(map(bad_texts.__contains__, stamp_texts), bool, n)
            keep = np.ones(n, bool)
            for i in np.flatnonzero(bad_stamp):  # an all-blank row is skipped, not counted
                keep[i] = any((stamp_texts[i], sensor_ids[i], names[i], value_texts[i]))
            values, non_numeric = _floats(value_texts)
            quantities = np.fromiter(map(quantity_codes.get, names, repeat(-1)), np.int64, n)
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
                np.fromiter(map(sensor_codes.__getitem__, kept_ids), np.int64, len(kept_ids)),
                quantities[keep],
                values[keep],
            ))
    stamps, sensors, quantities, values = (np.concatenate(column) for column in zip(*parts))
    samples = SampleColumns(stamps, sensors, quantities, values, tuple(sensor_codes))
    return IngestResult(samples=samples, malformed_by_reason=malformed)


def load_reference(path: str | Path) -> Series:
    """Load the hourly reference-instrument CSV; a bad cell or an off-hour
    stamp is a ``DataError`` naming ``path:line``."""
    body = list(_csv_rows(Path(path), REFERENCE_HEADER, _read_text(Path(path))))
    stamps: list[int] = []
    values: list[float] = []
    try:
        for line, row in enumerate(body, 2):  # line 1 is the header
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise DataError(f"reference row needs 2 columns, got {row}")
            stamp = parse_timestamp(row[0])
            if stamp % HOUR:
                raise DataError(f"reference stamp {row[0].strip()} is not on the hour")
            stamps.append(stamp)
            values.append(float(row[1]))
    except ValueError as err:
        raise DataError(f"{path}:{line}: {err}") from err
    order = np.argsort(stamps, kind="stable")
    ts = np.asarray(stamps, dtype=np.int64)[order]
    repeated = ts[1:][np.diff(ts) == 0]
    if repeated.size:
        raise DataError(f"{path}: reference hour {format_timestamp(repeated[0])} repeats")
    return Series(ts, np.asarray(values, dtype=float)[order])


# ---------------------------------------------------------------------------
# aggregation and fusion


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Mask of the rows that start a run of equal rows in sorted key columns."""
    start = np.zeros(keys[0].size, bool)
    start[:1] = True
    for key in keys:
        start[1:] |= key[1:] != key[:-1]
    return start


def aggregate(samples: SampleColumns, granularity: str = "hour") -> SampleColumns:
    """Mean of the samples in each (sensor, quantity, time bucket) group,
    ordered by sensor code, quantity code and bucket.

    Each group is summed in input order, and a group whose samples are all
    equal averages to exactly that value instead of sum / count.
    """
    if granularity not in GRANULARITIES:
        raise ConfigurationError(
            f"granularity must be one of {tuple(GRANULARITIES)}, got {granularity!r}"
        )
    width = GRANULARITIES[granularity]
    buckets = samples.timestamps // width * width
    # stable, so first[g] below is group g's first sample in input order
    order = np.lexsort((buckets, samples.quantities, samples.sensors))
    start = _run_starts(samples.sensors[order], samples.quantities[order], buckets[order])
    starts = np.flatnonzero(start)
    group = np.empty(order.size, np.int64)
    group[order] = np.cumsum(start) - 1
    sums = np.bincount(group, weights=samples.values, minlength=starts.size)
    means = sums / np.bincount(group, minlength=starts.size)
    first = order[starts]
    if starts.size:
        ordered = samples.values[order]
        constant = np.minimum.reduceat(ordered, starts) == np.maximum.reduceat(ordered, starts)
        means[constant] = samples.values[first[constant]]
    return SampleColumns(
        buckets[first],
        samples.sensors[first],
        samples.quantities[first],
        means,
        samples.sensor_names,
    )


def fuse_by_quantity(aggregated: SampleColumns) -> dict[str, Series]:
    """Median across sensors of each (quantity, bucket) group.

    A group of even size takes ``(a + b) / 2.0`` of its two middle values,
    which is what ``np.median`` gives.
    """
    if not len(aggregated):
        raise ConfigurationError("median fusion needs at least one sensor series")
    order = np.lexsort((aggregated.values, aggregated.timestamps, aggregated.quantities))
    quantities = aggregated.quantities[order]
    buckets = aggregated.timestamps[order]
    values = aggregated.values[order]
    starts = np.flatnonzero(_run_starts(quantities, buckets))
    sizes = np.diff(np.append(starts, order.size))
    medians = values[starts + (sizes - 1) // 2]
    even = sizes % 2 == 0
    medians[even] = (medians[even] + values[starts[even] + sizes[even] // 2]) / 2.0
    group_quantity, group_bucket = quantities[starts], buckets[starts]
    fused = {}
    for code in np.unique(group_quantity):
        mask = group_quantity == code
        fused[QUANTITIES[code]] = Series(group_bucket[mask], medians[mask])
    return fused


# ---------------------------------------------------------------------------
# alignment and cleaning


@dataclass
class CleanReport:
    n_hours: int
    interpolated_cells: int
    dropped_rows: int


MAX_GAP_HOURS = 2


def _interpolate_short_gaps(values: np.ndarray, max_gap: int) -> tuple[np.ndarray, int]:
    """Linearly fill NaN runs of length <= max_gap that are bounded by data."""
    out = values.copy()
    missing = np.isnan(out)
    if not missing.any():
        return out, 0
    edges = np.diff(np.concatenate(([False], missing, [False])).astype(np.int8))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    bounded = (ends - starts <= max_gap) & (starts > 0) & (ends < out.size)
    starts, ends = starts[bounded], ends[bounded]
    runs = ends - starts
    run = np.repeat(np.arange(runs.size), runs)  # the run of each cell to fill
    k = np.arange(run.size) - np.repeat(np.cumsum(runs) - runs, runs)
    left, right = out[starts - 1][run], out[ends][run]
    out[starts[run] + k] = left + (right - left) * (k + 1) / (runs[run] + 1)
    return out, int(run.size)


def align_and_clean(
    features: dict[str, Series], reference: Series
) -> tuple[CalibrationDataset, CleanReport]:
    """Inner-join fused hourly features with the reference grid and repair gaps.

    Hours without a reference value never enter the grid.  Feature gaps of
    up to two consecutive reference hours are linearly interpolated; then
    rows whose features cannot be repaired, or whose reference value is not
    finite, are dropped.
    """
    if "pm25" not in features:
        raise ConfigurationError("aligned features require a 'pm25' series")
    if len(reference) == 0:
        raise DataError("reference series is empty")
    grid = reference.timestamps
    names = tuple(q for q in FEATURE_COLUMNS if q in features)
    matrix = np.full((grid.size, len(names)), np.nan)
    interpolated = 0
    for col, name in enumerate(names):
        series = features[name]
        column = np.full(grid.size, np.nan)
        if len(series):
            at = np.minimum(np.searchsorted(series.timestamps, grid), len(series) - 1)
            found = series.timestamps[at] == grid
            column[found] = series.values[at[found]]
        column, filled = _interpolate_short_gaps(column, MAX_GAP_HOURS)
        interpolated += filled
        matrix[:, col] = column
    keep = ~np.isnan(matrix).any(axis=1) & np.isfinite(reference.values)
    dropped = int(np.sum(~keep))
    if not np.any(keep):
        raise DataError("no hours with complete features remain after cleaning")
    dataset = CalibrationDataset(
        grid[keep], names, matrix[keep], reference.values[keep]
    )
    report = CleanReport(
        n_hours=len(dataset), interpolated_cells=interpolated, dropped_rows=dropped
    )
    return dataset, report


# ---------------------------------------------------------------------------
# scaling


@dataclass(frozen=True)
class RangeScaler:
    """Per-column affine map onto [-1, +1], fitted on training data only."""

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.minimum, dtype=float))
        hi = np.atleast_1d(np.asarray(self.maximum, dtype=float))
        if lo.shape != hi.shape:
            raise ConfigurationError("scaler bounds shapes disagree")
        object.__setattr__(self, "minimum", lo)
        object.__setattr__(self, "maximum", hi)

    @property
    def halfspan(self) -> np.ndarray:
        return 0.5 * (self.maximum - self.minimum)


def fit_scaler(
    values: np.ndarray, names: Optional[Sequence[str]] = None
) -> RangeScaler:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.size == 0:
        raise ConfigurationError("cannot fit a scaler on empty data")
    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    degenerate = np.nonzero(hi <= lo)[0]
    if degenerate.size:
        col = int(degenerate[0])
        label = names[col] if names is not None else f"column {col}"
        raise ConfigurationError(
            f"cannot scale constant feature {label!r} (min == max == {lo[col]})"
        )
    return RangeScaler(lo, hi)


def apply_scaler(scaler: RangeScaler, values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    return (arr - scaler.minimum) / (scaler.maximum - scaler.minimum) * 2.0 - 1.0


def invert_scaler(scaler: RangeScaler, values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    return (arr + 1.0) / 2.0 * (scaler.maximum - scaler.minimum) + scaler.minimum


# ---------------------------------------------------------------------------
# windows and splits


def make_windows(
    dataset: CalibrationDataset, window: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sliding windows over contiguous hourly runs only.

    Returns ``(x [n, window, n_features], y [n], end_timestamps [n])`` where
    the target is the reference value at each window's final hour.  Any gap
    in the hourly grid splits runs; no window crosses a gap.
    """
    if window < 1:
        raise ConfigurationError("window length must be at least 1")
    stamps, n = dataset.timestamps, len(dataset)
    # stamps strictly increase on the hour grid, so the window ending at e is
    # contiguous exactly when it spans (window - 1) hours
    ends = np.arange(window - 1, n)
    ends = ends[stamps[ends] - stamps[ends - (window - 1)] == (window - 1) * HOUR]
    if ends.size == 0:
        # no offsets either: the window may be far longer than the dataset
        if n:
            warnings.warn(
                f"no contiguous run is {window} hours long; no windows emitted",
                stacklevel=2,
            )
        x = np.zeros((0, window, dataset.features.shape[1]))
        return x, dataset.target[ends], stamps[ends]
    x = dataset.features[ends[:, None] + np.arange(1 - window, 1)]
    return x, dataset.target[ends], stamps[ends]


def chronological_split(
    dataset: CalibrationDataset, train_fraction: float
) -> tuple[CalibrationDataset, CalibrationDataset]:
    """First ceil(fraction * n) hours train, the remainder test."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigurationError("train fraction must lie strictly between 0 and 1")
    n = len(dataset)
    if n < 2:
        raise ConfigurationError("need at least two rows to split")
    n_train = math.ceil(train_fraction * n - 1e-9)
    n_train = min(max(n_train, 1), n - 1)
    idx = np.arange(n)
    return dataset.subset(idx[:n_train]), dataset.subset(idx[n_train:])


# ---------------------------------------------------------------------------
# cached-dataset CSV round trip


def _write_csv(path: str | Path, header: Sequence[str], lines: Iterable[str]) -> None:
    """Write the header row, then each already-joined line."""
    Path(path).write_text("\n".join([",".join(header), *lines]) + "\n")


def dataset_to_csv(dataset: CalibrationDataset, path: str | Path) -> None:
    """Write the dataset a column at a time; an absent feature is a blank cell."""
    cells = [format_timestamps(dataset.timestamps)]
    for name in FEATURE_COLUMNS:
        if name in dataset.feature_names:
            column = dataset.features[:, dataset.feature_names.index(name)]
            cells.append(map(repr, column.tolist()))
        else:
            cells.append(repeat(""))
    cells.append(map(repr, dataset.target.tolist()))
    _write_csv(path, DATASET_HEADER, map(",".join, zip(*cells)))


def dataset_from_csv(path: str | Path) -> CalibrationDataset:
    """Read a ``dataset_to_csv`` file; a bad cell, or a stamp off the hour
    grid or not after the row before, is a ``DataError`` naming ``path:line``,
    and a blank pm25 column (every series row reads it) one naming ``path``."""
    body = list(_csv_rows(Path(path), DATASET_HEADER, _read_text(Path(path))))
    stamps: list[int] = []
    rows: list[list[float]] = []
    targets: list[float] = []
    present: Optional[list[bool]] = None
    try:
        for line, row in enumerate(body, 2):  # line 1 is the header
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(DATASET_HEADER):
                raise DataError(f"dataset row has {len(row)} columns")
            stamp = parse_timestamp(row[0])
            if stamp % HOUR:
                raise DataError(f"timestamp {row[0].strip()} is not on the hour")
            if stamps and stamp <= stamps[-1]:
                raise DataError(
                    f"timestamp {row[0].strip()} does not follow "
                    f"{format_timestamp(stamps[-1])}"
                )
            stamps.append(stamp)
            cells = row[1:5]
            flags = [bool(c.strip()) for c in cells]
            if present is None:
                present = flags
            elif flags != present:
                raise DataError("inconsistent feature columns across rows")
            rows.append([float(c) for c, ok in zip(cells, flags) if ok])
            targets.append(float(row[5]))
    except ValueError as err:
        raise DataError(f"{path}:{line}: {err}") from err
    if not stamps:
        raise DataError(f"{path}: dataset file holds no rows")
    names = tuple(n for n, ok in zip(FEATURE_COLUMNS, present) if ok)
    if "pm25" not in names:
        raise DataError(f"{path}: the pm25 column is blank")
    return CalibrationDataset(
        np.asarray(stamps, dtype=np.int64),
        names,
        np.asarray(rows, dtype=float),
        np.asarray(targets, dtype=float),
    )


def predictions_to_csv(rows: Sequence[dict], path: str | Path) -> None:
    _write_csv(
        path,
        PREDICTIONS_HEADER,
        (
            f"{format_timestamp(row['timestamp'])},{float(row['raw_pm25'])!r},"
            f"{float(row['calibrated_pm25'])!r},{float(row['reference_pm25'])!r}"
            for row in rows
        ),
    )


# ---------------------------------------------------------------------------
# synthetic campaign generation


# sensors of each kind a profile may ask for: their ids keep two digits
# (pm-00 .. pm-99), and no profile turns a short campaign into billions of rows
MAX_SENSORS = 100


def _is_int(value) -> bool:
    """An int that is not a bool (JSON true/false arrive as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SynthProfile:
    """Distortion applied to the simulated low-cost sensors.

    With the default (all-zero distortion) profile every sensor reports the
    reference signal exactly, so the uncalibrated benchmark loss is zero.
    A field of the wrong type or out of range is a ``ConfigurationError``
    naming it.  The period is rounded to a whole number of samples per hour.
    """

    n_pm_sensors: int = 4
    n_env_sensors: int = 2
    gain: float = 1.0
    offset: float = 0.0
    humidity_coeff: float = 0.0  # extra ug/m3 per %RH above the knee
    humidity_knee: float = 70.0
    noise_std: float = 0.0
    sensor_spread: float = 0.1  # per-sensor relative jitter on the distortions
    sample_period_s: int = 120

    def __post_init__(self) -> None:
        for name, low in (("n_pm_sensors", 1), ("n_env_sensors", 0)):
            count = getattr(self, name)
            if not (_is_int(count) and low <= count <= MAX_SENSORS):
                raise ConfigurationError(
                    f"profile field {name} must be an integer from {low} to "
                    f"{MAX_SENSORS}, got {count!r}"
                )
        if not (_is_int(self.sample_period_s) and self.sample_period_s >= 1):
            raise ConfigurationError(
                f"profile field sample_period_s must be a positive integer, "
                f"got {self.sample_period_s!r}"
            )
        for name in ("gain", "offset", "humidity_coeff", "humidity_knee", "noise_std",
                     "sensor_spread"):
            value = getattr(self, name)
            try:
                finite = not isinstance(value, bool) and math.isfinite(value)
            except (TypeError, OverflowError):  # not a number, or an int no float holds
                finite = False
            if not finite:
                raise ConfigurationError(
                    f"profile field {name} must be a finite number, got {value!r}"
                )
        if self.noise_std < 0:
            raise ConfigurationError(
                f"profile field noise_std must not be negative, got {self.noise_std!r}"
            )


@dataclass
class SyntheticCampaign:
    columns: SampleColumns  # sorted by (timestamp, sensor_id, quantity) text
    reference: Series
    truth: dict[str, np.ndarray]  # hourly pm25/temp/hum/press ground truth

    @property
    def samples(self) -> list[RawSample]:
        """The columns as ``RawSample`` records in row order, for readers
        outside the package; nothing in the package reads them."""
        cols = self.columns
        return [
            RawSample(t, cols.sensor_names[s], QUANTITIES[q], v)
            for t, s, q, v in zip(
                cols.timestamps.tolist(),
                cols.sensors.tolist(),
                cols.quantities.tolist(),
                cols.values.tolist(),
            )
        ]


DEFAULT_EPOCH = 1672531200  # 2023-01-01T00:00:00Z


def _ar1(rng: np.random.Generator, n: int, rho: float, sigma: float) -> np.ndarray:
    noise = rng.normal(0.0, sigma, n)
    out = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = rho * acc + noise[i]
        out[i] = acc
    return out


def _text_ranks(texts: Sequence[str]) -> np.ndarray:
    """Each text's position when the texts are sorted."""
    ranks = np.empty(len(texts), np.int64)
    ranks[sorted(range(len(texts)), key=texts.__getitem__)] = np.arange(len(texts))
    return ranks


def synthesize(
    seed: int, n_hours: int, profile: SynthProfile = SynthProfile()
) -> SyntheticCampaign:
    """Deterministic synthetic campaign with seasonal and diurnal structure.

    Each pm sensor draws its three jitters, then one noise array over its
    hours and samples; each env sensor draws one noise array per quantity.
    """
    if n_hours < 48:
        raise ConfigurationError("synthetic campaigns need at least 48 hours")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2210]))
    hours = np.arange(n_hours, dtype=float)
    day_phase = 2.0 * np.pi * (hours % 24) / 24.0
    season_phase = 2.0 * np.pi * hours / (24.0 * 30.0)

    ref = (
        14.0
        + 6.0 * np.sin(season_phase)
        + 4.0 * np.sin(day_phase - 0.8 * np.pi)
        + _ar1(rng, n_hours, 0.9, 1.1)
    )
    ref = np.clip(ref, 1.0, None)
    temp = (
        12.0
        + 6.0 * np.sin(season_phase + 0.9)
        + 7.0 * np.sin(day_phase - 0.55 * np.pi)
        + _ar1(rng, n_hours, 0.95, 0.35)
    )
    hum = np.clip(76.0 - 1.6 * (temp - 12.0) + _ar1(rng, n_hours, 0.9, 1.4), 25.0, 98.0)
    press = 1012.0 + 6.0 * np.sin(2.0 * np.pi * hours / (24.0 * 15.0)) + _ar1(
        rng, n_hours, 0.98, 0.12
    )
    truth = {"pm25": ref, "temp": temp, "hum": hum, "press": press}

    stamps = DEFAULT_EPOCH + HOUR * np.arange(n_hours, dtype=np.int64)
    reference = Series(stamps, ref)

    per_hour = max(1, HOUR // profile.sample_period_s)
    period = HOUR // per_hour
    sensor_names = [f"pm-{s:02d}" for s in range(profile.n_pm_sensors)] + [
        f"env-{s:02d}" for s in range(profile.n_env_sensors)
    ]
    parts = []  # (stamps, sensor code, quantity, values) per sensor stream
    pm_stamps = (stamps[:, None] + period * np.arange(per_hour)).ravel()
    above_knee = np.maximum(0.0, hum - profile.humidity_knee)
    for s in range(profile.n_pm_sensors):
        jitter = profile.sensor_spread * rng.uniform(-1.0, 1.0, 3)
        gain = 1.0 + (profile.gain - 1.0) * (1.0 + jitter[0])
        offset = profile.offset * (1.0 + jitter[1])
        hum_coeff = profile.humidity_coeff * (1.0 + jitter[2])
        base = ref * gain + offset + hum_coeff * above_knee
        noise = (
            rng.normal(0.0, profile.noise_std, (n_hours, per_hour))
            if profile.noise_std > 0
            else np.zeros((n_hours, per_hour))
        )
        parts.append((pm_stamps, s, "pm25", (base[:, None] + noise).ravel()))

    for s in range(profile.n_env_sensors):
        env_stamps = stamps + (s % per_hour) * period
        for quantity, series in (("temp", temp), ("hum", hum), ("press", press)):
            noise = (
                rng.normal(0.0, 0.05 * profile.noise_std, n_hours)
                if profile.noise_std > 0
                else np.zeros(n_hours)
            )
            parts.append((env_stamps, profile.n_pm_sensors + s, quantity, series + noise))

    times, sensors, quantities, values = (
        np.concatenate(column)
        for column in zip(*(
            (t, np.full(t.size, sensor, np.int64),
             np.full(t.size, QUANTITIES.index(quantity), np.int64), v)
            for t, sensor, quantity, v in parts
        ))
    )
    # rows in the order of their (timestamp, sensor_id, quantity) texts
    order = np.lexsort((
        _text_ranks(QUANTITIES)[quantities], _text_ranks(sensor_names)[sensors], times
    ))
    columns = SampleColumns(
        times[order], sensors[order], quantities[order], values[order], tuple(sensor_names)
    )
    return SyntheticCampaign(columns=columns, reference=reference, truth=truth)


def write_campaign(campaign: SyntheticCampaign, out_dir: str | Path) -> dict[str, Path]:
    """Write sensors.csv / reference.csv in the ingest schemas, each
    distinct timestamp formatted once."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"sensors": out / "sensors.csv", "reference": out / "reference.csv"}
    cols = campaign.columns
    start = _run_starts(cols.timestamps)  # the rows are sorted by stamp
    stamp_texts = format_timestamps(cols.timestamps[start])
    labels = [f"{sensor},{quantity}" for sensor in cols.sensor_names for quantity in QUANTITIES]
    rows = zip(
        map(stamp_texts.__getitem__, (np.cumsum(start) - 1).tolist()),
        map(labels.__getitem__, (cols.sensors * len(QUANTITIES) + cols.quantities).tolist()),
        map(repr, cols.values.tolist()),
    )
    _write_csv(paths["sensors"], RAW_HEADER, map(",".join, rows))
    reference = campaign.reference
    rows = zip(format_timestamps(reference.timestamps), map(repr, reference.values.tolist()))
    _write_csv(paths["reference"], REFERENCE_HEADER, map(",".join, rows))
    return paths


def prepare_dataset(
    sensor_paths: Sequence[str | Path],
    reference_path: str | Path,
    granularity: str = "hour",
) -> tuple[CalibrationDataset, CleanReport, int]:
    """Full ingest-to-dataset pipeline; returns (dataset, clean report, malformed)."""
    result = ingest(sensor_paths)
    if not result.samples:
        raise DataError("no valid samples found in the sensor files")
    aggregated = aggregate(result.samples, granularity)
    if granularity != "hour":
        # re-bucket the finer means to the hourly grid expected by alignment
        aggregated = aggregate(aggregated, "hour")
    fused = fuse_by_quantity(aggregated)
    reference = load_reference(reference_path)
    dataset, report = align_and_clean(fused, reference)
    return dataset, report, result.malformed
