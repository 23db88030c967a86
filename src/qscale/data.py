"""Measurement ingest, aggregation, fusion, cleaning, and synthetic campaigns.

The pipeline turns raw multi-sensor streams into an hourly calibration
dataset.  The raw path works on columns (``SampleColumns``: int64 stamps,
sensor and quantity codes, float64 values), never on a Python object per
row:

1. ingest splits raw rows (``timestamp_iso8601,sensor_id,quantity,value``)
   into columns a block at a time: a quote-free log is cut at line ends into
   blocks of about 32 K characters, each split by one ``str.split``, and
   only a log with quotes (or NUL) is read by ``csv.reader``; it parses a
   block's stamps together (``parse_timestamps``: qscale's own
   ``YYYY-MM-DDTHH:MM:SSZ`` by column, each distinct text in any other
   form once, by ``datetime``)
   and counts malformed rows by reason,
2. aggregate finds each (sensor, quantity, bucket) group with one sort and
   takes minute or hour means with ``np.bincount`` sums in input order,
3. fuse sorts the hourly means by (quantity, hour, value) and takes each
   group's median across sensors,
4. align looks the fused features up on the hourly reference grid,
   interpolating short feature gaps (at most two consecutive hours) and
   dropping hours that cannot be repaired,
5. scale features/targets with a [-1, +1] range map fitted on training
   rows only, window the rows, and split chronologically.

The hourly files (the reference log and the cached ``dataset.csv``) are
read once, into columns, as the raw logs are, and checked by column: each
check makes a mask of the rows it fails, and a file that fails one names
the first failing line and the first check that line fails, as a row-by-row
read would.

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
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import accumulate, chain, compress, islice, repeat
from operator import not_
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

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


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def parse_timestamp(text: str) -> int:
    """ISO-8601 (UTC assumed when unzoned) to epoch seconds, rounded down
    (toward the past, before 1970 too)."""
    raw = text.strip()
    try:
        stamp = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError as exc:
        raise DataError(f"bad timestamp {text!r}") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return (stamp - _EPOCH) // timedelta(seconds=1)


# qscale's own stamp form as a row of a fixed-width buffer: "0" marks a
# digit column, any other byte the mark that column must hold
_CANONICAL = np.frombuffer(b"0000-00-00T00:00:00Z\n", np.uint8)
_DIGIT = _CANONICAL == ord("0")
# days of months 1-12 (February outside leap years); 0 and 13, which
# stand in for every month out of range, have none
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0])
# what ``parse_timestamps``' ``known`` holds for a rejected text; no stamp
# from year 1 on reads it
_REJECTED = np.iinfo(np.int64).min


def _canonical_seconds(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of rows ``YYYY-MM-DDTHH:MM:SSZ\\n`` of a uint8 buffer
    [n, 21], and a mask of the rows that hold a valid stamp of that form;
    the seconds of other rows are meaningless."""
    digits = rows[:, _DIGIT] - np.uint8(ord("0"))  # a byte below "0" wraps past 9
    ok = (digits < 10).all(axis=1) & (rows[:, ~_DIGIT] == _CANONICAL[~_DIGIT]).all(axis=1)
    pairs = digits[:, 0::2].astype(np.int64) * 10 + digits[:, 1::2]
    century, year_of_century, month, day, hour, minute, second = pairs.T
    year = century * 100 + year_of_century
    leap = (year_of_century % 4 == 0) & ((year_of_century != 0) | (century % 4 == 0))
    month_days = _MONTH_DAYS[np.minimum(month, 13)] + (leap & (month == 2))
    ok &= (year >= 1) & (day >= 1) & (day <= month_days)
    ok &= (hour < 24) & (minute < 60) & (second < 60)
    # days from 1970-01-01 of a proleptic Gregorian date (H. Hinnant's
    # days_from_civil, http://howardhinnant.github.io/date_algorithms.html):
    # years start in March, so February's leap day ends the year
    march_year = year - (month <= 2)
    year_of_era = march_year % 400
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    day_of_era = year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    days = march_year // 400 * 146_097 + day_of_era - 719_468
    return days * 86_400 + hour * 3600 + minute * 60 + second, ok


def parse_timestamps(
    texts: Sequence[str], known: Optional[dict[str, int]] = None
) -> tuple[np.ndarray, np.ndarray]:
    """``parse_timestamp`` of each text as int64 epoch seconds, and a mask
    of the texts it rejects (whose seconds read 0).

    The texts are joined into one buffer of fixed-width rows, and those in
    qscale's own form, ``YYYY-MM-DDTHH:MM:SSZ``, are read by column: the
    marks and digits are checked at their columns, then the month lengths,
    leap years and clock ranges, before one days-from-civil sum.  Every
    other text, and one of that shape that fails a check, goes through
    ``parse_timestamp``, so the accepted forms stay its own, once per
    distinct text: ``known``, a dict that the calls fill, carries the texts
    parsed so far from one call to the next, so a reader of many blocks
    parses each text once in all.
    """
    n = len(texts)
    joined = "\n".join(texts) + "\n"
    # a non-ASCII character reads as one "?", so the rows keep their width
    rows = np.frombuffer(joined.encode("ascii", "replace"), np.uint8)
    if rows.size == 21 * n and joined.count("\n") == n and (rows[20::21] == 10).all():
        seconds, ok = _canonical_seconds(rows.reshape(n, 21))
    else:
        # only a text of 20 characters can be in that form, and those alone
        # make rows that keep their places (a line end in one fails its row)
        seconds, ok = np.zeros(n, np.int64), np.zeros(n, bool)
        fixed = np.flatnonzero(np.fromiter(map(len, texts), np.intp, n) == 20)
        if fixed.size:
            joined = "\n".join([texts[i] for i in fixed.tolist()]) + "\n"
            rows = np.frombuffer(joined.encode("ascii", "replace"), np.uint8)
            seconds[fixed], ok[fixed] = _canonical_seconds(rows.reshape(-1, 21))
    slow = np.flatnonzero(~ok)
    if slow.size:
        known = {} if known is None else known
        slow_texts = texts if slow.size == n else [texts[i] for i in slow.tolist()]
        for text in dict.fromkeys(slow_texts):
            if text not in known:
                try:
                    known[text] = parse_timestamp(text)
                except ValueError:
                    known[text] = _REJECTED
        seconds[slow] = np.fromiter(map(known.__getitem__, slow_texts), np.int64, slow.size)
    bad = seconds == _REJECTED
    seconds[bad] = 0
    return seconds, bad


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


class _Block(NamedTuple):
    """A few hundred rows of a CSV text as ``_columns`` reads them: the
    stripped cells of its rows with one cell per header name, a column per
    name, the same cells as ``csv.reader`` gives them, and the line each of
    those rows starts on; the count of its other rows that are not blank, and
    the line and cells of the first of them."""

    columns: list[list[str]]
    raw: Sequence[Sequence[str]]
    lines: Sequence[int]
    wrong: int
    first_wrong: Optional[tuple[int, list[str]]]


def _has_text(cells: Iterable[str]) -> bool:
    return any(cell.strip() for cell in cells)


def _csv_columns(path: Path, text: str, expected_header: tuple[str, ...]) -> Iterator[_Block]:
    """``_columns`` through ``csv.reader``, for text that needs its quoting
    rules; a row the ``csv`` module cannot split is a ``DataError``."""
    width = len(expected_header)
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            return
        _check_header(path, header, expected_header)
        start = reader.line_num + 1
        while chunk := list(islice(reader, _INGEST_CHUNK)):
            lines: Sequence[int] = range(start, start + len(chunk))
            if reader.line_num >= lines.stop:  # a quoted cell holds a line end
                spans = [1 + sum(map(str.count, row, repeat("\n"))) for row in chunk]
                lines = list(accumulate(spans[:-1], initial=start))
            start = reader.line_num + 1
            wrong, first_wrong = 0, None
            if set(map(len, chunk)) != {width}:
                keep = [len(row) == width for row in chunk]
                dropped = [i for i, row in enumerate(chunk) if not keep[i] and _has_text(row)]
                if dropped:
                    wrong, first_wrong = len(dropped), (lines[dropped[0]], chunk[dropped[0]])
                chunk, lines = list(compress(chunk, keep)), list(compress(lines, keep))
            raw = list(zip(*chunk)) or [()] * width
            columns = [list(map(str.strip, column)) for column in raw]
            yield _Block(columns, raw, lines, wrong, first_wrong)
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc


def _check_field_limit(path: Path, first_line: int, lines: list[str]) -> None:
    """The ``DataError`` that ``csv.reader`` gives a field over its limit."""
    limit = csv.field_size_limit()
    for line, text in enumerate(lines, first_line):
        if len(text) > limit and max(map(len, text.split(","))) > limit:
            raise DataError(f"{path}:{line}: field larger than field limit ({limit})")


def _block_columns(path: Path, text: str, expected_header: tuple[str, ...]) -> Iterator[_Block]:
    """The cell columns of a text without quotes or NUL, where every line is
    a row and every comma splits cells, as ``csv.reader`` reads it, a block
    of rows at a time.

    The text is cut at ``\\n`` (never ``splitlines``, which also cuts at
    ``\\x0b``, ``\\x85`` and more) into blocks of about ``_INGEST_BLOCK``
    characters.  One ``str.split`` over a block, its line ends made cells of
    their own, gives every cell; the k-cell rows are all there is exactly
    when every (k + 1)-th cell is a line end, and only a block where they
    are not has its lines' commas counted.  A block's ``lines`` are a
    ``range`` from its first line, and a list only in a block that drops
    rows.  The cells are stripped only when the block holds a character
    ``str.strip`` removes.
    """
    if not text:
        return
    # blocks are sliced from the text itself: a body copy would double it
    header_end = text.find("\n")
    header = text if header_end < 0 else text[:header_end]
    _check_field_limit(path, 1, [header])
    _check_header(path, header.split(","), expected_header)
    width = len(expected_header) + 1  # a row's cells and its line end
    start, stop = len(header) + 1, len(text) - text.endswith("\n")
    line = 2
    while start < stop:
        end = text.find("\n", start + _INGEST_BLOCK, stop)
        end = stop if end < 0 else end
        block = text[start:end]
        start = end + 1
        n = block.count("\n") + 1
        if len(block) > csv.field_size_limit():
            _check_field_limit(path, line, block.split("\n"))
        lines: Sequence[int] = range(line, line + n)
        line += n
        cells = block.replace("\n", ",\n,").split(",")
        wrong, first_wrong = 0, None
        if len(cells) != width * n - 1 or cells[width - 1 :: width].count("\n") != n - 1:
            rows = block.split("\n")
            keep = [row.count(",") == width - 2 for row in rows]
            dropped = [i for i, row in enumerate(rows) if not keep[i] and _has_text(row.split(","))]
            if dropped:
                wrong, first_wrong = len(dropped), (lines[dropped[0]], rows[dropped[0]].split(","))
            lines = list(compress(lines, keep))
            block = "\n".join(compress(rows, keep))
            cells = block.replace("\n", ",\n,").split(",") if block else []
        raw = columns = [cells[k::width] for k in range(width - 1)]
        if not block.isascii() or any(blank in block for blank in _ASCII_BLANKS):
            columns = [list(map(str.strip, column)) for column in raw]
        yield _Block(columns, raw, lines, wrong, first_wrong)


def _columns(path: Path, text: str, expected_header: tuple[str, ...]) -> Iterator[_Block]:
    """A CSV text's rows, a few hundred at a time, as ``_Block``s.  Only a
    text with a quote or a NUL goes through ``csv.reader``: for its quoting
    rules, or its refusal of NUL."""
    if '"' in text or "\0" in text:
        return _csv_columns(path, text, expected_header)
    return _block_columns(path, text, expected_header)


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
    fails is its reason.  A block's stamps are parsed together by
    ``parse_timestamps``, a stamp text in any form other than qscale's own
    once in all the logs, and its values by one ``float`` call each.
    """
    malformed = dict.fromkeys(MALFORMED_REASONS, 0)
    known: dict[str, int] = {}  # stamp texts not in qscale's form, parsed once
    sensor_codes: dict[str, int] = {}
    quantity_codes = {q: i for i, q in enumerate(QUANTITIES)}
    empty = np.zeros(0, np.int64)
    parts = [(empty, empty, empty, np.zeros(0))]
    for path in paths:
        for block in _columns(Path(path), _read_text(Path(path)), RAW_HEADER):
            stamp_texts, sensor_ids, names, value_texts = block.columns
            malformed["wrong_column_count"] += block.wrong
            n = len(stamp_texts)
            if not n:
                continue
            stamps, bad_stamp = parse_timestamps(stamp_texts, known)
            keep = np.ones(n, bool)
            for i in np.flatnonzero(bad_stamp):  # an all-blank row is skipped, not counted
                keep[i] = any((stamp_texts[i], sensor_ids[i], names[i], value_texts[i]))
            values, non_numeric = _floats(value_texts)
            quantities = np.fromiter(map(quantity_codes.get, names, repeat(-1)), np.int64, n)
            checks = [
                ("bad_timestamp", bad_stamp),
                ("non_numeric_value", non_numeric),
                ("unknown_quantity", quantities < 0),
            ]
            if "" in sensor_ids:
                checks.append(("empty_sensor", np.fromiter(map(not_, sensor_ids), bool, n)))
            checks.append(("non_finite_value", ~np.isfinite(values)))
            for reason, fails in checks:
                malformed[reason] += int(np.count_nonzero(keep & fails))
                keep &= ~fails
            kept_ids = list(compress(sensor_ids, keep.tolist()))
            for sensor_id in dict.fromkeys(kept_ids):
                sensor_codes.setdefault(sensor_id, len(sensor_codes))
            parts.append((
                stamps[keep],
                np.fromiter(map(sensor_codes.__getitem__, kept_ids), np.int64, len(kept_ids)),
                quantities[keep],
                values[keep],
            ))
    stamps, sensors, quantities, values = (np.concatenate(column) for column in zip(*parts))
    samples = SampleColumns(stamps, sensors, quantities, values, tuple(sensor_codes))
    return IngestResult(samples=samples, malformed_by_reason=malformed)


def _rejection(parse: Callable[[str], object], texts: Iterable[str]) -> Optional[str]:
    """The message of the first ``ValueError`` that ``parse`` raises on one
    of ``texts``."""
    for text in texts:
        try:
            parse(text)
        except ValueError as exc:
            return str(exc)


def _hourly_columns(
    path: Path, expected_header: tuple[str, ...]
) -> tuple[list[list[str]], np.ndarray, Callable[..., None]]:
    """The stripped cell columns of an hourly file's rows that are not blank,
    read once by ``_columns`` as the raw logs are, their int64 stamps, and
    ``check(width_error, *checks)``.

    ``check`` raises the ``DataError`` of the first line that fails a check,
    naming ``path:line`` and the first check that line fails, in the order a
    row is read: the row lacks one cell per header name (its message is
    ``width_error`` of the row's cells), its stamp is one ``parse_timestamp``
    rejects, then each of ``checks``: the mask of the rows that fail it, and
    the message of a failing row from its index and its cells as
    ``csv.reader`` gives them.  A blank row is skipped: a row of blank cells
    has a blank stamp, so only the rows whose stamps are rejected are looked
    at."""
    blocks = list(_columns(path, _read_text(path), expected_header))
    columns: list[list[str]] = [[] for _ in expected_header]
    for block in blocks:
        for column, block_column in zip(columns, block.columns):
            column += block_column
    stamps, bad_stamp = parse_timestamps(columns[0])
    rows: Sequence[int] = range(len(stamps))  # each row's place in the blocks
    blank = [i for i in np.flatnonzero(bad_stamp).tolist() if not any(c[i] for c in columns)]
    if blank:
        rows = np.delete(np.arange(len(stamps)), blank)
        columns = [list(map(column.__getitem__, rows.tolist())) for column in columns]
        stamps, bad_stamp = stamps[rows], bad_stamp[rows]

    def check(width_error: Callable[[list[str]], str], *checks: tuple) -> None:
        checks = ((bad_stamp, lambda i, row: _rejection(parse_timestamp, row[:1])), *checks)
        wrong = next((block.first_wrong for block in blocks if block.first_wrong), None)
        # rows are in line order: the first failing row is the one of least index
        failing = [(int(np.argmax(mask)), k) for k, (mask, _) in enumerate(checks) if mask.any()]
        if failing:
            i, k = min(failing)
            j = int(rows[i])
            line = list(chain.from_iterable(block.lines for block in blocks))[j]
            if wrong is None or line < wrong[0]:
                cells = [list(chain.from_iterable(raw)) for raw in zip(*(b.raw for b in blocks))]
                raise DataError(f"{path}:{line}: {checks[k][1](i, [c[j] for c in cells])}")
        if wrong:
            raise DataError(f"{path}:{wrong[0]}: {width_error(wrong[1])}")

    return columns, stamps, check


def load_reference(path: str | Path) -> Series:
    """Load the hourly reference-instrument CSV; a bad cell or an off-hour
    stamp is a ``DataError`` naming ``path:line``, and an hour given twice one
    naming the hour.

    The file is read once and checked by column (``_hourly_columns``)."""
    (_, value_texts), stamps, check = _hourly_columns(Path(path), REFERENCE_HEADER)
    values, non_numeric = _floats(value_texts)
    check(
        lambda row: f"reference row needs 2 columns, got {row}",
        (stamps % HOUR != 0, lambda i, row: f"reference stamp {row[0].strip()} is not on the hour"),
        (non_numeric, lambda i, row: _rejection(float, row[1:])),
    )
    order = np.argsort(stamps, kind="stable")
    ts = stamps[order]
    repeated = ts[1:][np.diff(ts) == 0]
    if repeated.size:
        raise DataError(f"{path}: reference hour {format_timestamp(repeated[0])} repeats")
    return Series(ts, values[order])


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
    """What alignment kept, filled and dropped; :func:`prepare_dataset`
    adds the malformed input rows by reason, a count per key of
    ``MALFORMED_REASONS``."""

    n_hours: int
    interpolated_cells: int
    dropped_rows: int
    malformed_by_reason: dict[str, int] = field(default_factory=dict)


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
    """(values - min) / (max - min) * 2 - 1, in one new array: the
    subtraction makes it, and the rest works on it in place."""
    out = np.asarray(values, dtype=float) - scaler.minimum
    out /= scaler.maximum - scaler.minimum
    out *= 2.0
    out -= 1.0
    return out


def invert_scaler(scaler: RangeScaler, values: np.ndarray) -> np.ndarray:
    """(values + 1) / 2 * (max - min) + min, in one new array."""
    out = np.asarray(values, dtype=float) + 1.0
    out /= 2.0
    out *= scaler.maximum - scaler.minimum
    out += scaler.minimum
    return out


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
    """Read a ``dataset_to_csv`` file; a bad or non-finite cell, or a stamp
    off the hour grid or not after the row before, is a ``DataError`` naming
    ``path:line``, and so is a feature cell blank in some rows only; a blank
    pm25 column (every series row reads it) is one naming ``path``.

    The file is read once and checked by column (``_hourly_columns``); a
    feature is present when the first row's cell is not blank."""
    columns, stamps, check = _hourly_columns(Path(path), DATASET_HEADER)
    n = len(stamps)
    present = [bool(column and column[0]) for column in columns[1:5]]
    value_columns = [k for k, ok in enumerate(present, 1) if ok] + [5]
    values, non_numeric = zip(*(_floats(columns[k]) for k in value_columns))
    after = np.diff(stamps, prepend=stamps[:1] - 1) <= 0
    inconsistent = np.zeros(n, bool)
    for column, ok in zip(columns[1:5], present):
        if column.count("") != (0 if ok else n):
            inconsistent |= np.fromiter(map(bool, column), bool, n) != ok
    check(
        lambda row: f"dataset row has {len(row)} columns",
        (stamps % HOUR != 0, lambda i, row: f"timestamp {row[0].strip()} is not on the hour"),
        (after, lambda i, row: (
            f"timestamp {row[0].strip()} does not follow {format_timestamp(stamps[i - 1])}"
        )),
        (inconsistent, lambda i, row: "inconsistent feature columns across rows"),
        (np.logical_or.reduce(non_numeric), lambda i, row: (
            _rejection(float, [row[k] for k in value_columns])
        )),
        (np.logical_or.reduce([~np.isfinite(column) for column in values]), lambda i, row: next(
            f"{DATASET_HEADER[k]} value {columns[k][i]!r} is not finite"
            for k, column in zip(value_columns, values) if not math.isfinite(column[i])
        )),
    )
    if not n:
        raise DataError(f"{path}: dataset file holds no rows")
    names = tuple(name for name, ok in zip(FEATURE_COLUMNS, present) if ok)
    if "pm25" not in names:
        raise DataError(f"{path}: the pm25 column is blank")
    return CalibrationDataset(stamps, names, np.column_stack(values[:-1]), values[-1])


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
    try:
        hours = np.arange(n_hours, dtype=float)
    except (ValueError, MemoryError) as err:  # over NumPy's limit, or the memory's
        raise ConfigurationError(
            f"a campaign of {n_hours} hours is too large to allocate: {err}"
        ) from None
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
    """Full ingest-to-dataset pipeline; returns (dataset, clean report,
    malformed), the report carrying the malformed rows by reason and
    ``malformed`` their total."""
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
    report.malformed_by_reason = result.malformed_by_reason
    return dataset, report, result.malformed
