"""Ingest, aggregation, fusion, cleaning, scaling, windows, and synthesis."""

import csv
import hashlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from qscale import cli, data
from qscale.errors import ConfigurationError, DataError
from qscale.data import (
    GRANULARITIES,
    HOUR,
    MALFORMED_REASONS,
    QUANTITIES,
    RAW_HEADER,
    CalibrationDataset,
    RawSample,
    SampleColumns,
    Series,
    SynthProfile,
    aggregate,
    align_and_clean,
    apply_scaler,
    chronological_split,
    dataset_from_csv,
    dataset_to_csv,
    fit_scaler,
    format_timestamp,
    format_timestamps,
    fuse_by_quantity,
    ingest,
    invert_scaler,
    load_reference,
    make_windows,
    parse_timestamp,
    prepare_dataset,
    synthesize,
    write_campaign,
)

T0 = 1672531200  # 2023-01-01T00:00:00Z
DATETIME_MIN_S = -62135596800  # 0001-01-01T00:00:00Z
DATETIME_MAX_S = 253402300799  # 9999-12-31T23:59:59Z


def columns(samples):
    """``RawSample`` rows as the ``SampleColumns`` that ``ingest`` returns."""
    names = tuple(dict.fromkeys(s.sensor_id for s in samples))
    return SampleColumns(
        np.array([s.timestamp for s in samples], dtype=np.int64),
        np.array([names.index(s.sensor_id) for s in samples], dtype=np.int64),
        np.array([QUANTITIES.index(s.quantity) for s in samples], dtype=np.int64),
        np.array([s.value for s in samples], dtype=float),
        names,
    )


def rows_of(cols):
    """``SampleColumns`` back as ``RawSample`` rows, in column order."""
    return [
        RawSample(int(t), cols.sensor_names[s], QUANTITIES[q], float(v))
        for t, s, q, v in zip(cols.timestamps, cols.sensors, cols.quantities, cols.values)
    ]


def series_of(cols, sensor, quantity):
    """One (sensor, quantity) stream of aggregated columns as a ``Series``."""
    mask = (cols.sensors == cols.sensor_names.index(sensor)) & (
        cols.quantities == QUANTITIES.index(quantity)
    )
    return Series(cols.timestamps[mask], cols.values[mask])


def fused_pm25(series_by_sensor):
    """``fuse_by_quantity`` of per-sensor hourly pm25 ``Series``."""
    return fuse_by_quantity(
        columns(
            [
                RawSample(int(t), sensor, "pm25", float(v))
                for sensor, series in series_by_sensor.items()
                for t, v in zip(series.timestamps, series.values)
            ]
        )
    )["pm25"]


def hourly_dataset(n, features=None, target=None, names=("pm25",), start=T0):
    feats = (
        np.asarray(features, dtype=float)
        if features is not None
        else np.arange(n, dtype=float)[:, None]
    )
    targ = np.asarray(target, dtype=float) if target is not None else np.arange(n) * 1.0
    stamps = start + HOUR * np.arange(n, dtype=np.int64)
    return CalibrationDataset(stamps, names, feats, targ)


# every datetime second as qscale writes it, and texts that miss that form
# narrowly: no such day or hour, year 0000, another zone or separator,
# fractions, non-ASCII digits, a character dropped or added, and noise
CANONICAL_STAMP = st.integers(DATETIME_MIN_S, DATETIME_MAX_S).map(format_timestamp)
NEAR_STAMP = st.builds(
    "{}-{}-{}{}{}:{}:{}{}".format,
    st.sampled_from(["0000", "0001", "1900", "1969", "1970", "2000", "2023", "2024", "2200"]),
    st.sampled_from(["00", "01", "02", "04", "09", "11", "12", "13"]),
    st.sampled_from(["00", "01", "28", "29", "30", "31", "32"]),
    st.sampled_from(["T", "T", "T", " ", "t"]),
    st.sampled_from(["00", "09", "23", "24"]),
    st.sampled_from(["00", "59", "60"]),
    st.sampled_from(["00", "59", "60"]),
    st.sampled_from(["Z", "Z", "Z", "z", "+00:00", "-05:30", "", ".5Z", ".25"]),
)
EDITED_STAMP = st.builds(
    lambda text, at, edit: text[:at] + edit + text[at + (edit != "0") :],
    st.one_of(CANONICAL_STAMP, NEAR_STAMP),
    st.integers(0, 20),
    st.sampled_from(["", "0", "\u0663", "\uff13", " ", "\n"]),
)
ANY_STAMP = st.one_of(
    CANONICAL_STAMP,
    NEAR_STAMP,
    EDITED_STAMP,
    st.text(st.sampled_from("0123456789-T:Z \n\u0663"), max_size=22),
)


def field_bits(fields):
    """A reader result's fields, each array as its dtype, shape and bytes."""
    return [
        (array.dtype, array.shape, array.tobytes()) if isinstance(array, np.ndarray) else array
        for array in fields
    ]


class TestTimestamps:
    def test_round_trip(self):
        assert parse_timestamp(format_timestamp(T0)) == T0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(DATETIME_MIN_S, DATETIME_MAX_S), max_size=20))
    def test_vectorised_texts_match(self, stamps):
        """``format_timestamps`` gives ``format_timestamp`` of each stamp
        across the ``datetime`` range."""
        assert format_timestamps(np.array(stamps, dtype=np.int64)) == list(
            map(format_timestamp, stamps)
        )

    def test_z_suffix(self):
        assert parse_timestamp("2023-01-01T00:00:00Z") == T0

    def test_naive_is_utc(self):
        assert parse_timestamp("2023-01-01T00:00:00") == T0

    def test_bad_timestamp(self):
        with pytest.raises(DataError):
            parse_timestamp("yesterday")

    @pytest.mark.parametrize(
        "text,seconds",
        [
            ("1969-12-31T23:30:00.25Z", -1800),
            ("1969-12-31T23:59:59.5Z", -1),
            ("1969-12-31T23:59:59.999999Z", -1),
            ("1970-01-01T00:00:00.5Z", 0),
        ],
    )
    def test_fractional_stamp_rounds_down(self, text, seconds):
        """A fractional stamp reads as the second it falls in, before 1970
        as after, so it lands in the hour it falls in."""
        assert parse_timestamp(text) == seconds
        assert data.parse_timestamps([text])[0].tolist() == [seconds]
        hour = data.format_timestamp(seconds // HOUR * HOUR)
        assert hour[:13] == text[:13]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(st.lists(CANONICAL_STAMP, max_size=30), st.lists(ANY_STAMP, max_size=30)))
    @example([
        f"{year}-02-29T00:00:00Z" for year in ("1900", "2000", "2023", "2024", "2200")
    ] + ["2023-04-31T00:00:00Z", "2023-01-01T24:00:00Z", "2023-01-01T00:00:60Z",
         "0000-01-01T00:00:00Z", "2023-01-01T00:00:00z", "2023-01-01 00:00:00Z"])
    def test_columnar_parse_matches_parse_timestamp(self, texts):
        """parse_timestamps agrees with parse_timestamp text by text: the
        same seconds, or a rejection (bad, reading 0) where it raises."""
        seconds, bad = data.parse_timestamps(texts)
        assert seconds.dtype == np.int64 and seconds.shape == bad.shape == (len(texts),)
        for text, got, rejected in zip(texts, seconds.tolist(), bad.tolist()):
            try:
                want = parse_timestamp(text)
            except DataError:
                assert rejected and got == 0, text
            else:
                assert not rejected and got == want, text

    def test_misaligned_texts_of_canonical_total_length(self):
        """A 19- and a 21-character text fill two rows of 21 bytes between
        them, but neither is read as a row of the buffer."""
        texts = ["2023-01-01T00:00:00", "2023-01-01T01:00:00Z ", "2023-01-01T02:00:00Z"]
        seconds, bad = data.parse_timestamps(texts)
        assert seconds.tolist() == [T0, T0 + HOUR, T0 + 2 * HOUR]
        assert not bad.any()
        seconds, bad = data.parse_timestamps(["2023-01-01T00:00:00Z\n2023-01-01T00:00:00", "Z"])
        assert bad.tolist() == [True, True]

    def test_only_other_texts_parse_alone(self, monkeypatch):
        """A block with one bad stamp sends only its texts that are not
        valid canonical stamps through parse_timestamp, one call each."""
        texts = format_timestamps(T0 + 600 * np.arange(500, dtype=np.int64))
        texts[123] = "2023-02-30T10:00:00Z"  # the canonical shape, no such day
        texts[321] = "not-a-time"
        texts[400] = "2023-01-03T10:00:00"  # unzoned: valid, in another form
        calls = []
        real = data.parse_timestamp
        monkeypatch.setattr(data, "parse_timestamp", lambda text: calls.append(text) or real(text))
        seconds, bad = data.parse_timestamps(texts)
        assert calls == [texts[123], texts[321], texts[400]]
        assert np.flatnonzero(bad).tolist() == [123, 321]
        assert seconds[400] == T0 + 2 * 24 * HOUR + 10 * HOUR
        assert seconds[499] == T0 + 600 * 499

    def test_each_other_text_parses_once(self, monkeypatch):
        """A text in another form, or rejected, is parsed once however often
        it repeats, and once in all the calls that share a ``known`` dict;
        the results are those of calls that share none."""
        blocks = [
            ["2023-01-01T00:00:00+00:00", "nonsense", "2023-01-01T00:00:00+00:00",
             "2023-01-01T00:00:00Z", "nonsense"],
            ["nonsense", "2023-01-01T00:00:00+00:00", "2023-01-01T01:00:00"],
        ]
        want = [data.parse_timestamps(texts) for texts in blocks]
        calls = []
        real = data.parse_timestamp
        monkeypatch.setattr(data, "parse_timestamp", lambda text: calls.append(text) or real(text))
        known = {}
        for texts, (seconds, bad) in zip(blocks, want):
            got = data.parse_timestamps(texts, known)
            assert got[0].tolist() == seconds.tolist() and got[1].tolist() == bad.tolist()
        assert calls == ["2023-01-01T00:00:00+00:00", "nonsense", "2023-01-01T01:00:00"]
        assert want[0][0].tolist() == [T0, 0, T0, T0, 0]
        assert want[1][1].tolist() == [True, False, False]


class TestIngest:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("timestamp_iso8601,sensor_id,quantity,value\n")
        result = ingest([p])
        assert len(result.samples) == 0 and result.malformed == 0

    def test_single_row(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text(
            "timestamp_iso8601,sensor_id,quantity,value\n"
            "2023-01-01T00:00:00Z,pm-00,pm25,12.5\n"
        )
        result = ingest([p])
        assert rows_of(result.samples) == [RawSample(T0, "pm-00", "pm25", 12.5)]

    def test_malformed_rows_counted(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "timestamp_iso8601,sensor_id,quantity,value\n"
            "2023-01-01T00:00:00Z,pm-00,pm25,not-a-number\n"
            "2023-01-01T01:00:00Z,pm-00,pm25,13.0\n"
            "nonsense,pm-00,pm25,1.0\n"
            "2023-01-01T02:00:00Z,pm-00,co2,1.0\n"
        )
        result = ingest([p])
        assert result.malformed == 3
        assert len(result.samples) == 1

    def test_other_stamp_form_parses_once_in_all_logs(self, tmp_path, monkeypatch):
        """Logs, one per sensor and several blocks long, whose stamps are in
        another form parse each distinct stamp text once in all, and read
        the samples of the same logs in qscale's own form."""
        texts = format_timestamps(T0 + 60 * np.arange(2000, dtype=np.int64))
        paths = {"Z": [], "+00:00": []}
        for zone, logs in paths.items():
            for sensor in ("pm-00", "pm-01"):
                logs.append(tmp_path / f"{sensor}{zone}.csv")
                logs[-1].write_text("timestamp_iso8601,sensor_id,quantity,value\n" + "".join(
                    f"{text[:-1]}{zone},{sensor},pm25,{i % 7}.5\n" for i, text in enumerate(texts)
                ))
        calls = []
        real = data.parse_timestamp
        monkeypatch.setattr(data, "parse_timestamp", lambda text: calls.append(text) or real(text))
        got = ingest(paths["+00:00"])
        assert len(calls) == len(set(calls)) == len(texts)
        want = ingest(paths["Z"])
        assert rows_of(got.samples) == rows_of(want.samples) and len(want.samples) == 4000

    def test_reason_is_first_failed_check(self, tmp_path):
        p = tmp_path / "reasons.csv"
        p.write_text(
            "timestamp_iso8601,sensor_id,quantity,value\n"
            "2023-01-01T00:00:00Z,pm-00,pm25\n"
            "nonsense, ,co2,abc\n"
            "2023-01-01T00:00:00Z, ,co2,abc\n"
            "2023-01-01T00:00:00Z, ,co2,nan\n"
            "2023-01-01T00:00:00Z, ,pm25,nan\n"
            "2023-01-01T00:00:00Z,pm-00,pm25,inf\n"
            ",,,\n"
            " , \n"
            "2023-01-01T00:00:00Z,pm-00,pm25,1.0\n"
        )
        result = ingest([p])
        assert result.malformed_by_reason == {
            "bad_timestamp": 1,
            "non_numeric_value": 1,
            "unknown_quantity": 1,
            "wrong_column_count": 1,
            "non_finite_value": 1,
            "empty_sensor": 1,
        }
        assert result.malformed == 6 and len(result.samples) == 1

    def test_wrong_header_is_schema_violation(self, tmp_path):
        p = tmp_path / "schema.csv"
        p.write_text("time,id,what,val\n1,2,3,4\n")
        with pytest.raises(DataError):
            ingest([p])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            ingest([tmp_path / "nope.csv"])

    def test_unsplittable_row_names_line(self, tmp_path):
        p = tmp_path / "big.csv"
        p.write_text(
            "timestamp_iso8601,sensor_id,quantity,value\n"
            '2023-01-01T00:00:00Z,pm-00,pm25,"' + "9" * 200_000 + "\n"
        )
        with pytest.raises(DataError, match=r"big\.csv:2: field larger than field limit"):
            ingest([p])

    def test_oversize_field_without_quotes_names_line(self, tmp_path):
        p = tmp_path / "big.csv"
        p.write_text(
            "timestamp_iso8601,sensor_id,quantity,value\n"
            "2023-01-01T00:00:00Z,pm-00,pm25," + "9" * 200_000 + "\n"
            "2023-01-01T00:00:00Z,pm-00,pm25,1.0\n"
        )
        with pytest.raises(DataError, match=r"big\.csv:2: field larger than field limit"):
            ingest([p])

    def test_quoted_sensor_ids_read_as_unquoted(self, tmp_path):
        """A log that needs csv's quoting rules gives the columns and
        counts of the same log written without quotes."""
        rows = [
            "2023-01-01T00:00:00Z,{pm0},pm25,12.5",
            "2023-01-01T00:10:00Z,{pm1},pm25,13.0",
            "2023-01-01T00:10:00Z,{pm0},temp,nan",
            "2023-01-01T00:20:00Z,{pm1},pm25",
            "2023-01-01T00:20:00Z,{pm0},pm25,-0",
        ]
        logs = []
        for name, quote in (("plain.csv", ""), ("quoted.csv", '"')):
            p = tmp_path / name
            p.write_text("\n".join([",".join(RAW_HEADER), *(
                row.format(pm0=f"{quote}pm-00{quote}", pm1=f"{quote}pm-01{quote}")
                for row in rows
            )]) + "\n")
            logs.append(ingest([p]))
        plain, quoted = logs
        assert quoted.samples.sensor_names == plain.samples.sensor_names == ("pm-00", "pm-01")
        for field in ("timestamps", "sensors", "quantities", "values"):
            a, b = getattr(plain.samples, field), getattr(quoted.samples, field)
            assert a.tobytes() == b.tobytes()
        assert quoted.malformed_by_reason == plain.malformed_by_reason


# cells and padding for raw logs: the padding holds what str.strip removes,
# ASCII and not, and what splitlines (but not csv) would cut a line at
RAW_PAD = st.sampled_from(["", "", " ", "\t", "\x0b", "\x1c", "\x85", "\xa0", "\u2003", "\u2028"])
RAW_CELL = st.sampled_from([
    "2023-01-01T00:00:00Z", "2023-01-01T00:10:00Z", "2023-01-01T01:00:00",
    "2023-02-30T00:00:00Z", "nonsense", "", "pm-00", "pm-01", "env-\u00e9", '"pm-00"',
    "pm25", "temp", "hum", "press", "co2", "12.5", "-0", "7", "nan", "inf", "abc", "1e400",
])
RAW_VALID_ROW = st.tuples(
    st.sampled_from(["2023-01-01T00:00:00Z", "2023-01-01T00:10:00Z", "2023-01-01T01:00:00"]),
    st.sampled_from(["pm-00", "pm-01", "env-00"]),
    st.sampled_from(QUANTITIES),
    st.sampled_from(["12.5", "-0", "7", "0.1"]),
).map(list)
# one kind of padding per row, so a one-row block holds nothing else to strip
RAW_PADDED_ROW = st.tuples(
    RAW_VALID_ROW, RAW_PAD, st.lists(st.booleans(), min_size=8, max_size=8)
).map(lambda drawn: [
    drawn[1] * left + cell + drawn[1] * right
    for cell, left, right in zip(drawn[0], drawn[2][::2], drawn[2][1::2])
])
RAW_ROW = st.one_of(
    RAW_VALID_ROW,
    st.just(["", "", "", ""]),
    RAW_PADDED_ROW,
    RAW_PADDED_ROW,
    st.lists(st.tuples(RAW_PAD, RAW_CELL, RAW_PAD).map("".join), min_size=4, max_size=4),
    st.sampled_from([0, 1, 3, 5]).flatmap(
        lambda n: st.lists(st.tuples(RAW_PAD, RAW_CELL).map("".join), min_size=n, max_size=n)
    ),
)
# a line holding one long field, alone or as the value of a row
LONG_LINE = st.sampled_from(["{}", "2023-01-01T00:00:00Z,pm-00,pm25,{}"])


class TestBlockReaderMatchesCsvOracle:
    def test_matches_csv_chunk_loop(self, tmp_path, monkeypatch):
        """ingest equals the csv.reader chunk loop it replaced, in column
        bits, sensor order and reasons, or raises the same error, with
        blocks small enough that every row boundary is a block boundary."""
        limit = csv.field_size_limit()

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(
            st.lists(st.lists(RAW_ROW, max_size=12), min_size=1, max_size=2),
            st.sampled_from(["\n", "\n", "\r\n"]),
            st.booleans(),
            st.sampled_from([None, limit, limit + 1]),
            LONG_LINE,
            st.sampled_from([1, 40, 4096]),
        )
        def check(logs, newline, trailing, long_field, long_line, block):
            monkeypatch.setattr(data, "_INGEST_BLOCK", block)
            paths = []
            for k, rows in enumerate(logs):
                lines = [",".join(RAW_HEADER), *map(",".join, rows)]
                if long_field and k == len(logs) - 1:
                    lines.insert(len(lines) // 2 + 1, long_line.format("9" * long_field))
                path = tmp_path / f"sensors-{k}.csv"
                path.write_bytes((newline.join(lines) + newline * trailing).encode())
                paths.append(path)
            try:
                want = _oracles.ingest_rows(paths)
            except ValueError as exc:
                with pytest.raises(DataError, match=re.escape(str(exc))):
                    ingest(paths)
                return
            got = ingest(paths)
            cols = got.samples
            for a, b in zip((cols.timestamps, cols.sensors, cols.quantities, cols.values), want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert cols.sensor_names == want[4]
            assert got.malformed_by_reason == want[5]

        check()


class TestAggregate:
    def test_hour_mean_of_constant(self):
        samples = [RawSample(T0 + k, "s", "pm25", 5.0) for k in range(0, 3600, 60)]
        series = series_of(aggregate(columns(samples), "hour"), "s", "pm25")
        assert len(series) == 1
        assert series.values[0] == pytest.approx(5.0)

    def test_hour_mean(self):
        samples = [
            RawSample(T0, "s", "pm25", 1.0),
            RawSample(T0 + 120, "s", "pm25", 3.0),
            RawSample(T0 + HOUR, "s", "pm25", 10.0),
        ]
        series = series_of(aggregate(columns(samples), "hour"), "s", "pm25")
        np.testing.assert_allclose(series.values, [2.0, 10.0])

    def test_minute_buckets(self):
        samples = [
            RawSample(T0 + k, "s", "temp", float(k)) for k in (0, 30, 60, 90)
        ]
        series = series_of(aggregate(columns(samples), "minute"), "s", "temp")
        np.testing.assert_allclose(series.values, [15.0, 75.0])

    def test_idempotent_on_hourly_data(self):
        samples = [RawSample(T0 + HOUR * k, "s", "pm25", float(k)) for k in range(5)]
        once = aggregate(columns(samples), "hour")
        twice = aggregate(once, "hour")
        once, twice = series_of(once, "s", "pm25"), series_of(twice, "s", "pm25")
        np.testing.assert_array_equal(once.values, twice.values)
        np.testing.assert_array_equal(once.timestamps, twice.timestamps)

    def test_unknown_granularity(self):
        with pytest.raises(ConfigurationError):
            aggregate(columns([]), "day")


class TestMedianFuse:
    def test_odd_sensor_count(self):
        series = {
            "a": Series(np.array([T0]), np.array([1.0])),
            "b": Series(np.array([T0]), np.array([9.0])),
            "c": Series(np.array([T0]), np.array([2.0])),
        }
        assert fused_pm25(series).values[0] == 2.0

    def test_even_count_means_middle_two(self):
        series = {
            "a": Series(np.array([T0]), np.array([1.0])),
            "b": Series(np.array([T0]), np.array([2.0])),
            "c": Series(np.array([T0]), np.array([8.0])),
            "d": Series(np.array([T0]), np.array([100.0])),
        }
        assert fused_pm25(series).values[0] == 5.0

    def test_missing_buckets_use_reporting_sensors(self):
        series = {
            "a": Series(np.array([T0, T0 + HOUR]), np.array([1.0, 5.0])),
            "b": Series(np.array([T0]), np.array([3.0])),
        }
        fused = fused_pm25(series)
        np.testing.assert_allclose(fused.values, [2.0, 5.0])

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=9))
    def test_permutation_invariant(self, values):
        base = {
            f"s{k}": Series(np.array([T0]), np.array([v]))
            for k, v in enumerate(values)
        }
        shuffled = dict(reversed(list(base.items())))
        assert fused_pm25(base).values[0] == fused_pm25(shuffled).values[0]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            fuse_by_quantity(columns([]))


def sample_rows(draw_rows):
    """(timestamp, sensor, quantity, value) tuples from drawn row specs."""
    return [
        (T0 + HOUR * hour + second, f"s{sensor}", QUANTITIES[quantity], value)
        for sensor, quantity, hour, second, value in draw_rows
    ]


SENSOR = st.integers(0, 4)  # 1-5 sensors, so both odd and even counts
QUANTITY = st.integers(0, 1)
HOUR_INDEX = st.integers(0, 3)  # buckets repeat across rows and sensors
ROW = st.tuples(
    SENSOR,
    QUANTITY,
    HOUR_INDEX,
    st.sampled_from([0, 1, 59, 60, 61, 1799, 3599]),  # second within the hour
    st.one_of(st.sampled_from([0.1, 2.5, -7.0]), st.floats(-1e6, 1e6, allow_nan=False)),
)
# 3-6 equal values within one minute: a constant bucket, whose mean must be
# that value exactly (three 0.1s sum to 0.30000000000000004)
CONSTANT_RUN = st.tuples(
    SENSOR, QUANTITY, HOUR_INDEX, st.sampled_from([0.1, 0.7, 1.1]), st.integers(3, 6)
)


class TestColumnarMatchesRowOracle:
    def test_matches_dict_loops(self, tmp_path):
        """ingest → aggregate → fuse_by_quantity over rows spread across
        several files is bit-equal to the row-wise dict loops."""

        @settings(max_examples=80, deadline=None, derandomize=True)
        @given(
            st.lists(ROW, min_size=1, max_size=60),
            st.lists(CONSTANT_RUN, max_size=4),
            st.integers(1, 3),
            st.sampled_from(sorted(GRANULARITIES)),
        )
        def check(draw_rows, constant_runs, n_files, granularity):
            samples = sample_rows(
                draw_rows
                + [
                    (sensor, quantity, hour, 600 + k, value)
                    for sensor, quantity, hour, value, count in constant_runs
                    for k in range(count)
                ]
            )
            bounds = np.linspace(0, len(samples), n_files + 1).astype(int)
            paths = []
            for k in range(n_files):
                path = tmp_path / f"sensors-{k}.csv"
                lines = [
                    f"{format_timestamp(t)},{sensor},{quantity},{value!r}"
                    for t, sensor, quantity, value in samples[bounds[k]:bounds[k + 1]]
                ]
                path.write_text("\n".join([",".join(RAW_HEADER), *lines]) + "\n")
                paths.append(path)

            want = _oracles.aggregate_rows(samples, GRANULARITIES[granularity])
            got = aggregate(ingest(paths).samples, granularity)
            if granularity != "hour":
                rebucketed = [
                    (int(t), sensor, quantity, float(v))
                    for (sensor, quantity), (buckets, means) in want.items()
                    for t, v in zip(buckets, means)
                ]
                want = _oracles.aggregate_rows(rebucketed, HOUR)
                got = aggregate(got, "hour")
            for (sensor, quantity), (buckets, means) in want.items():
                series = series_of(got, sensor, quantity)
                assert np.array_equal(series.timestamps, buckets)
                assert np.array_equal(series.values, means)
            assert len(got) == sum(b.size for b, _ in want.values())

            fused = fuse_by_quantity(got)
            want_fused = _oracles.fuse_by_quantity(want)
            assert set(fused) == set(want_fused)
            for quantity, (buckets, values) in want_fused.items():
                assert np.array_equal(fused[quantity].timestamps, buckets)
                assert np.array_equal(fused[quantity].values, values)

        check()


class TestAlignAndClean:
    def ref(self, n, start=T0):
        return Series(
            start + HOUR * np.arange(n, dtype=np.int64), 10.0 + np.arange(n)
        )

    def test_identical_grids(self):
        ref = self.ref(5)
        feats = {"pm25": Series(ref.timestamps, np.arange(5) * 2.0)}
        dataset, report = align_and_clean(feats, ref)
        assert len(dataset) == 5
        assert report.dropped_rows == 0 and report.interpolated_cells == 0

    def test_missing_reference_hour_dropped(self):
        # reference lacks hour 2 entirely -> that hour never appears
        stamps = T0 + HOUR * np.array([0, 1, 3, 4], dtype=np.int64)
        ref = Series(stamps, np.ones(4))
        feats = {
            "pm25": Series(T0 + HOUR * np.arange(5, dtype=np.int64), np.arange(5.0))
        }
        dataset, _ = align_and_clean(feats, ref)
        np.testing.assert_array_equal(dataset.timestamps, stamps)

    def test_short_gap_interpolated(self):
        ref = self.ref(6)
        stamps = T0 + HOUR * np.array([0, 1, 4, 5], dtype=np.int64)  # hours 2,3 missing
        feats = {"pm25": Series(stamps, np.array([0.0, 1.0, 4.0, 5.0]))}
        dataset, report = align_and_clean(feats, ref)
        assert report.interpolated_cells == 2
        assert report.dropped_rows == 0
        np.testing.assert_allclose(dataset.features[:, 0], np.arange(6.0))

    def test_long_gap_drops_rows(self):
        ref = self.ref(7)
        stamps = T0 + HOUR * np.array([0, 1, 5, 6], dtype=np.int64)  # 3-hour hole
        feats = {"pm25": Series(stamps, np.array([0.0, 1.0, 5.0, 6.0]))}
        dataset, report = align_and_clean(feats, ref)
        assert report.dropped_rows == 3
        np.testing.assert_array_equal(
            dataset.timestamps, T0 + HOUR * np.array([0, 1, 5, 6])
        )

    def test_leading_gap_not_interpolated(self):
        ref = self.ref(4)
        stamps = T0 + HOUR * np.array([2, 3], dtype=np.int64)
        feats = {"pm25": Series(stamps, np.array([2.0, 3.0]))}
        dataset, report = align_and_clean(feats, ref)
        assert report.dropped_rows == 2
        assert len(dataset) == 2

    def test_requires_pm25(self):
        ref = self.ref(3)
        with pytest.raises(ConfigurationError):
            align_and_clean({"temp": ref}, ref)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.one_of(st.just(np.nan), st.floats(-1e6, 1e6), st.sampled_from([0.1, -0.0])),
            max_size=30,
        ),
        st.integers(0, 3),
    )
    def test_gap_fill_matches_cell_loop(self, cells, max_gap):
        """The run-wise gap fill equals the cell-by-cell loop it replaced,
        bit for bit."""
        values = np.array(cells, dtype=float)
        got, filled = data._interpolate_short_gaps(values, max_gap)
        want, want_filled = _oracles.interpolate_short_gaps(values, max_gap)
        assert filled == want_filled and got.tobytes() == want.tobytes()


class TestRangeScaler:
    def test_midpoint_maps_to_zero(self):
        scaler = fit_scaler(np.array([0.0, 10.0]))
        assert apply_scaler(scaler, np.array([5.0]))[0] == 0.0

    def test_bounds_map_to_unit_interval(self):
        scaler = fit_scaler(np.array([[0.0, -4.0], [10.0, 4.0]]))
        out = apply_scaler(scaler, np.array([[0.0, 4.0]]))
        np.testing.assert_allclose(out, [[-1.0, 1.0]])

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=30
        ).filter(lambda v: max(v) > min(v))
    )
    def test_round_trip(self, values):
        arr = np.asarray(values)
        scaler = fit_scaler(arr)
        back = invert_scaler(scaler, apply_scaler(scaler, arr))
        np.testing.assert_allclose(back, arr, rtol=1e-9, atol=1e-9)

    def test_degenerate_feature_named(self):
        with pytest.raises(ConfigurationError, match="press"):
            fit_scaler(
                np.array([[1.0, 5.0], [2.0, 5.0]]), names=("pm25", "press")
            )

    def test_training_rows_only(self):
        train = np.array([0.0, 10.0])
        scaler = fit_scaler(train)
        # test-time values outside the training range simply exceed [-1, 1]
        assert apply_scaler(scaler, np.array([20.0]))[0] == pytest.approx(3.0)


class TestWindows:
    def test_counts(self):
        dataset = hourly_dataset(10)
        x, y, ends = make_windows(dataset, 3)
        assert x.shape == (8, 3, 1)
        np.testing.assert_array_equal(y, np.arange(2, 10))
        assert ends[0] == T0 + 2 * HOUR

    def test_window_one(self):
        dataset = hourly_dataset(4)
        x, y, _ = make_windows(dataset, 1)
        assert x.shape == (4, 1, 1)
        np.testing.assert_array_equal(x[:, 0, 0], np.arange(4.0))

    def test_gap_splits_runs(self):
        stamps = T0 + HOUR * np.array([0, 1, 2, 5, 6, 7], dtype=np.int64)
        dataset = CalibrationDataset(
            stamps, ("pm25",), np.arange(6.0)[:, None], np.arange(6.0)
        )
        x, y, ends = make_windows(dataset, 3)
        assert x.shape[0] == 2  # one window per contiguous run of three hours
        assert set(ends.tolist()) == {int(stamps[2]), int(stamps[5])}

    def test_window_longer_than_runs_warns(self):
        dataset = hourly_dataset(2)
        with pytest.warns(UserWarning, match="no windows"):
            x, y, _ = make_windows(dataset, 5)
        assert x.shape[0] == 0

    def test_target_matches_final_hour(self):
        rng = np.random.default_rng(0)
        target = rng.normal(size=12)
        dataset = hourly_dataset(12, target=target)
        _, y, ends = make_windows(dataset, 4)
        for value, end in zip(y, ends):
            row = int((end - T0) // HOUR)
            assert value == target[row]

    def test_bad_window(self):
        with pytest.raises(ConfigurationError):
            make_windows(hourly_dataset(5), 0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(st.sampled_from([1, 1, 1, 2, 3, 7]), max_size=40),
        st.integers(1, 3),
        st.integers(1, 6),
    )
    def test_matches_run_loop(self, steps, n_features, window):
        """The vectorized windows equal the per-hour run loop they replaced
        in shape, dtype, values, layout and the no-window warning."""
        n = len(steps)
        stamps = T0 + HOUR * np.cumsum(np.array(steps, dtype=np.int64))
        features = np.arange(n * n_features, dtype=float).reshape(n, n_features)
        target = -np.arange(n, dtype=float)
        names = ("pm25", "rh", "temp")[:n_features]
        with warnings.catch_warnings(record=True) as got_warned:
            warnings.simplefilter("always")
            got = make_windows(CalibrationDataset(stamps, names, features, target), window)
        with warnings.catch_warnings(record=True) as want_warned:
            warnings.simplefilter("always")
            want = _oracles.make_windows(stamps, features, target, window)
        assert [str(w.message) for w in got_warned] == [str(w.message) for w in want_warned]
        for a, b in zip(got, want):
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
            assert a.flags.c_contiguous and b.flags.c_contiguous

    def test_window_longer_than_dataset_allocates_nothing(self):
        """A window of 10**12 hours (8 TB of int64 offsets) fits nowhere, so
        the result is empty without building the offsets."""
        window = 10**12
        dataset = hourly_dataset(5)
        with pytest.warns(UserWarning, match="no contiguous run"):
            got = make_windows(dataset, window)
        with pytest.warns(UserWarning):
            want = _oracles.make_windows(
                dataset.timestamps, dataset.features, dataset.target, window
            )
        assert got[0].shape == (0, window, 1)
        for a, b in zip(got, want):
            assert (a.shape, a.dtype) == (b.shape, b.dtype)


class TestChronologicalSplit:
    def test_three_quarters(self):
        train, test = chronological_split(hourly_dataset(100), 0.75)
        assert len(train) == 75 and len(test) == 25

    def test_seven_tenths(self):
        train, test = chronological_split(hourly_dataset(100), 0.70)
        assert len(train) == 70 and len(test) == 30

    def test_ceil_rounding(self):
        train, test = chronological_split(hourly_dataset(10), 0.75)
        assert len(train) == 8  # ceil(7.5)

    def test_partition(self):
        dataset = hourly_dataset(37)
        train, test = chronological_split(dataset, 0.6)
        joined = np.concatenate([train.timestamps, test.timestamps])
        np.testing.assert_array_equal(joined, dataset.timestamps)

    def test_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            chronological_split(hourly_dataset(10), 1.0)


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        dataset = hourly_dataset(
            6,
            features=rng.normal(size=(6, 4)),
            target=rng.normal(size=6),
            names=("pm25", "temp", "hum", "press"),
        )
        path = tmp_path / "dataset.csv"
        dataset_to_csv(dataset, path)
        back = dataset_from_csv(path)
        assert back.feature_names == dataset.feature_names
        np.testing.assert_array_equal(back.features, dataset.features)
        np.testing.assert_array_equal(back.target, dataset.target)
        np.testing.assert_array_equal(back.timestamps, dataset.timestamps)

    def test_partial_features(self, tmp_path):
        dataset = hourly_dataset(3)
        path = tmp_path / "dataset.csv"
        dataset_to_csv(dataset, path)
        back = dataset_from_csv(path)
        assert back.feature_names == ("pm25",)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "dataset.csv"
        path.write_text("timestamp,pm25,temp,hum,press,ref_pm25\n")
        with pytest.raises(DataError):
            dataset_from_csv(path)

    @pytest.mark.parametrize("blank", [",,,,,", " ,,\t,,,"])
    def test_blank_row_is_skipped(self, tmp_path, blank):
        rows = ["2023-01-01T00:00:00Z,10.0,,61.0,,9.0", "2023-01-01T01:00:00Z,11.0,,62.0,,8.0"]
        clean, with_blank = tmp_path / "clean.csv", tmp_path / "dataset.csv"
        header = ",".join(data.DATASET_HEADER)
        clean.write_text("\n".join([header, *rows]) + "\n")
        with_blank.write_text("\n".join([header, rows[0], blank, rows[1]]) + "\n")
        want = field_bits(vars(dataset_from_csv(clean)).values())
        assert field_bits(vars(dataset_from_csv(with_blank)).values()) == want

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "dataset.csv"
        path.write_text(
            "timestamp,pm25,temp,hum,press,ref_pm25\n"
            "2023-01-01T00:00:00Z,10.0,,,,9.0\n"
            "2023-01-01T01:00:00Z,abc,,,,9.5\n"
        )
        with pytest.raises(DataError, match=r"dataset\.csv:3: .*'abc'"):
            dataset_from_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("column", ["temp", "ref_pm25"])
    def test_non_finite_cell_names_line(self, tmp_path, cell, column):
        row = {"pm25": "10.5", "temp": "20.0", "hum": "", "press": "", "ref_pm25": "9.5"}
        row[column] = cell
        path = tmp_path / "dataset.csv"
        path.write_text(
            "timestamp,pm25,temp,hum,press,ref_pm25\n"
            "2023-01-01T00:00:00Z,10.0,20.0,,,9.0\n"
            "\n"
            f"2023-01-01T01:00:00Z,{','.join(row.values())}\n"
        )
        with pytest.raises(DataError, match=rf"dataset\.csv:4: {column} value '{cell}' is not finite"):
            dataset_from_csv(path)


class TestLoadReference:
    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "reference.csv"
        path.write_text(
            "timestamp_iso8601,pm25_ug_m3\n"
            "2023-01-01T00:00:00Z,9.0\n"
            "\n"
            "2023-01-01T01:00:00Z,n/a\n"
        )
        with pytest.raises(DataError, match=r"reference\.csv:4: .*'n/a'"):
            load_reference(path)

    @pytest.mark.parametrize("blank", [",", " ,\t"])
    def test_blank_row_is_skipped(self, tmp_path, blank):
        rows = ["2023-01-01T01:00:00Z,9.0", "2023-01-01T00:00:00Z,8.0"]
        clean, with_blank = tmp_path / "clean.csv", tmp_path / "reference.csv"
        header = ",".join(data.REFERENCE_HEADER)
        clean.write_text("\n".join([header, *rows]) + "\n")
        with_blank.write_text("\n".join([header, rows[0], blank, rows[1]]) + "\n")
        want = field_bits(vars(load_reference(clean)).values())
        assert field_bits(vars(load_reference(with_blank)).values()) == want

    def test_multiline_cell_names_line_row_starts_on(self, tmp_path):
        """A quoted cell that holds a line end makes its row two lines long:
        the bad row after it is named by its own first line, not its row
        number."""
        path = tmp_path / "reference.csv"
        path.write_text(MULTILINE_REFERENCE)
        message = r"reference\.csv:5: reference stamp 2023-01-01T02:20:00Z is not on the hour"
        with pytest.raises(DataError, match=message):
            load_reference(path)

    def test_duplicate_hour_is_data_error(self, tmp_path):
        path = tmp_path / "reference.csv"
        path.write_text(
            "timestamp_iso8601,pm25_ug_m3\n"
            "2023-01-01T01:00:00Z,9.0\n"
            "2023-01-01T00:00:00Z,8.0\n"
            "2023-01-01T01:00:00Z,9.5\n"
        )
        with pytest.raises(DataError, match=r"reference\.csv: .*2023-01-01T01:00:00Z repeats"):
            load_reference(path)


    def test_off_hour_stamp_names_line_and_stamp(self, tmp_path):
        path = tmp_path / "reference.csv"
        path.write_text(
            "timestamp_iso8601,pm25_ug_m3\n"
            "2023-01-01T00:00:00Z,9.0\n"
            "2023-01-01T01:20:00Z,8.0\n"
        )
        with pytest.raises(
            DataError, match=r"reference\.csv:3: .*2023-01-01T01:20:00Z is not on the hour"
        ):
            load_reference(path)

# cell edits of an hourly file: padding, bad or non-finite cells, stamps
# that are bad, off the hour, repeated, swapped or in another valid form, a
# row of the wrong width, a row of blank cells, a quoted cell and a quoted
# cell that holds a line end
HOURLY_EDITS = (
    "pad", "text", "empty", "nan", "stamp", "off-hour", "repeat", "swap", "unzoned",
    "columns", "blank-row", "quoted", "fill", "multiline",
)
# hourly files whose first row spans lines 2 and 3, so the bad row on line 5
# is the third row
MULTILINE_REFERENCE = (
    "timestamp_iso8601,pm25_ug_m3\n"
    '2023-01-01T00:00:00Z,"9.0\n"\n'
    "2023-01-01T01:00:00Z,8.0\n"
    "2023-01-01T02:20:00Z,7.0\n"
)
MULTILINE_DATASET = (
    "timestamp,pm25,temp,hum,press,ref_pm25\n"
    '2023-01-01T00:00:00Z,"10.0\n",,,,9.0\n'
    "2023-01-01T01:00:00Z,11.0,,,,8.0\n"
    "2023-01-01T02:00:00Z,abc,,,,7.0\n"
)


def _edit_rows(rows, edits, value_columns):
    """Apply (edit, row, column, other) to rows of cells, stamp first."""
    for edit, row, column, other in edits:
        if not rows:
            return
        row, other, column = row % len(rows), other % len(rows), 1 + column % value_columns
        cells = rows[row]
        if edit in ("text", "empty", "nan", "fill", "quoted", "multiline") and column >= len(cells):
            continue  # the row lost that cell to a "columns" edit
        if edit == "pad":
            rows[row] = [" " + cell + "\t" for cell in cells]
        elif edit in ("text", "empty", "nan", "fill"):
            cells[column] = {"text": "abc", "empty": "", "nan": "nan", "fill": "1.5"}[edit]
        elif edit == "stamp":
            cells[0] = "2023-13-45T99:00:00Z"
        elif edit == "off-hour":
            cells[0] = format_timestamp(T0 + HOUR * row + 60 * (other % 59 + 1))
        elif edit == "repeat":
            cells[0] = rows[other][0]
        elif edit == "swap":
            rows[row], rows[other] = rows[other], cells
        elif edit == "unzoned":
            cells[0] = cells[0].strip()[:19]
        elif edit == "columns":
            rows[row] = cells[: 1 + other % value_columns] if other % 2 else [*cells, "1.0"]
        elif edit == "blank-row":
            rows[row] = [""] * len(cells)
        elif edit == "quoted":
            cells[column] = f'"{cells[column]}"'
        else:
            cells[column] = f'"{cells[column]}\n"'


@st.composite
def hourly_files(draw, header, value_cells, hours):
    """The text of an hourly file of ``header``: rows of a stamp (T0 plus
    each of ``hours``) and ``value_cells``, edited, with a blank line
    somewhere, ``\\n`` or ``\\r\\n`` line ends and an optional final one."""
    rows = [[format_timestamp(T0 + HOUR * hour), *draw(value_cells)] for hour in draw(hours)]
    edit = st.tuples(
        st.sampled_from(HOURLY_EDITS), st.integers(0, 99), st.integers(0, 99), st.integers(0, 99)
    )
    _edit_rows(rows, draw(st.lists(edit, max_size=3)), len(header) - 1)
    lines = [",".join(header), *map(",".join, rows)]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return newline.join(lines) + newline * draw(st.booleans())


FLOAT_CELL = st.floats(-1e3, 1e3).map(repr)


class TestHourlyReadersMatchRowLoop:
    """load_reference and dataset_from_csv read a file once, by column, and
    give what their row loops (``_oracles``) give: a bit-identical result,
    or the same DataError text."""

    @staticmethod
    def outcome(read, path, error):
        try:
            return field_bits(read(path))
        except error as exc:
            return str(exc)

    def check_reader(self, monkeypatch, tmp_path, reader, row_loop, clean, files, texts):
        """Check the reader on each edit of the ``clean`` rows alone, at two
        places, on the whole ``texts``, then on the drawn ``files``; each
        with the default blocks and chunks, and with a block or a chunk of
        csv rows of one or two rows."""
        path = tmp_path / "hourly.csv"
        reads = []
        for name in ("_read_text", "_columns"):
            real = getattr(data, name)
            monkeypatch.setattr(data, name, lambda *args, real=real: reads.append(1) or real(*args))

        def check(text):
            path.write_bytes(text.encode())
            want = self.outcome(row_loop, path, ValueError)
            for block, chunk in [(data._INGEST_BLOCK, data._INGEST_CHUNK), (1, 2)]:
                with monkeypatch.context() as m:
                    m.setattr(data, "_INGEST_BLOCK", block)
                    m.setattr(data, "_INGEST_CHUNK", chunk)
                    reads.clear()
                    assert self.outcome(lambda p: vars(reader(p)).values(), path, DataError) == want
                assert len(reads) == 2  # the text once, its rows once: never read twice

        header, *rows = clean
        for edit in (None, *HOURLY_EDITS):
            for at in [(1, 0, 2), (2, 1, 1)]:
                edited = [list(cells) for cells in rows]
                _edit_rows(edited, [(edit, *at)] if edit else [], len(header) - 1)
                check("\n".join(map(",".join, [header, *edited])) + "\n")
        for text in texts:
            check(text)
        settings(max_examples=300, deadline=None, derandomize=True)(given(files)(check))()

    def test_reference(self, monkeypatch, tmp_path):
        files = hourly_files(
            data.REFERENCE_HEADER,
            st.tuples(st.one_of(FLOAT_CELL, st.sampled_from(["nan", "-inf", "1e999"]))),
            st.integers(0, 10).flatmap(lambda n: st.permutations(range(n))),  # any order
        )
        clean = [data.REFERENCE_HEADER, *(
            (format_timestamp(T0 + HOUR * hour), "9.5") for hour in (3, 0, 1, 2)
        )]
        self.check_reader(
            monkeypatch, tmp_path, load_reference, _oracles.load_reference_rows, clean, files,
            [MULTILINE_REFERENCE],
        )

    def test_dataset(self, monkeypatch, tmp_path):
        present = st.lists(st.booleans(), min_size=4, max_size=4)
        files = present.flatmap(lambda flags: hourly_files(
            data.DATASET_HEADER,
            st.tuples(*(FLOAT_CELL if flag else st.just("") for flag in flags), FLOAT_CELL),
            st.integers(0, 10).map(range),
        ))
        clean = [data.DATASET_HEADER, *(
            (format_timestamp(T0 + HOUR * hour), "10.5", "", "61.0", "", "9.5")
            for hour in range(4)
        )]
        self.check_reader(
            monkeypatch, tmp_path, dataset_from_csv, _oracles.dataset_rows, clean, files,
            [MULTILINE_DATASET],
        )


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize(11, 48)
        b = synthesize(11, 48)
        for column in ("timestamps", "sensors", "quantities", "values"):
            np.testing.assert_array_equal(getattr(a.columns, column), getattr(b.columns, column))
        assert a.columns.sensor_names == b.columns.sensor_names
        np.testing.assert_array_equal(a.reference.values, b.reference.values)

    def test_zero_profile_sensors_equal_reference(self):
        campaign = synthesize(3, 48)
        aggregated = aggregate(campaign.columns, "hour")
        fused = fuse_by_quantity(aggregated)
        np.testing.assert_allclose(
            fused["pm25"].values, campaign.reference.values, atol=1e-9
        )

    def test_distorted_profile_deviates(self):
        profile = SynthProfile(gain=1.5, offset=3.0, noise_std=1.0)
        campaign = synthesize(5, 48, profile)
        fused = fuse_by_quantity(aggregate(campaign.columns, "hour"))
        l1 = np.mean(np.abs(fused["pm25"].values - campaign.reference.values))
        assert l1 > 5.0

    def test_minimum_length(self):
        with pytest.raises(ConfigurationError):
            synthesize(0, 24)

    def test_write_and_prepare_round_trip(self, tmp_path):
        campaign = synthesize(7, 72, SynthProfile(gain=1.2, offset=2.0, noise_std=0.5))
        paths = write_campaign(campaign, tmp_path)
        dataset, report, malformed = prepare_dataset(
            [paths["sensors"]], paths["reference"]
        )
        assert malformed == 0
        assert report.dropped_rows == 0
        assert len(dataset) == 72
        assert dataset.feature_names == ("pm25", "temp", "hum", "press")
        # the distorted pm25 median sits well above the reference
        assert np.mean(dataset.features[:, 0] - dataset.target) > 2.0

    def test_same_seed_same_bytes(self, tmp_path):
        for name in ("a", "b"):
            write_campaign(synthesize(9, 48), tmp_path / name)
        assert (tmp_path / "a" / "sensors.csv").read_bytes() == (
            tmp_path / "b" / "sensors.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "reference.csv").read_bytes() == (
            tmp_path / "b" / "reference.csv"
        ).read_bytes()


SYNTH_PROFILES = st.builds(
    SynthProfile,
    n_pm_sensors=st.integers(1, 4),
    n_env_sensors=st.integers(0, 3),
    gain=st.floats(0.5, 2.0),
    offset=st.floats(-5.0, 5.0),
    humidity_coeff=st.floats(0.0, 0.3),
    humidity_knee=st.floats(40.0, 90.0),
    noise_std=st.just(0.0) | st.floats(0.1, 3.0),
    sensor_spread=st.floats(0.0, 0.5),
    sample_period_s=st.sampled_from([7, 120, 1000, 3600, 7200]),
)


class TestSynthMatchesRowOracle:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(48, 60), SYNTH_PROFILES)
    def test_matches_row_loops(self, seed, n_hours, profile):
        """The campaign's columns are the rows of the nested per-row loops,
        in their order, with bit-equal values."""
        rows, reference = _oracles.synthesize_rows(seed, n_hours, profile)
        campaign = synthesize(seed, n_hours, profile)
        cols = campaign.columns
        stamps, sensors, quantities, values = map(list, zip(*rows))
        assert cols.timestamps.dtype == cols.sensors.dtype == cols.quantities.dtype == np.int64
        assert cols.timestamps.tolist() == stamps
        assert [cols.sensor_names[s] for s in cols.sensors] == sensors
        assert [QUANTITIES[q] for q in cols.quantities] == quantities
        assert cols.values.tobytes() == np.array(values).tobytes()
        assert campaign.reference.values.tobytes() == reference.tobytes()

    def test_samples_are_the_rows_as_records(self):
        """The ``samples`` view gives the oracle's rows as ``RawSample``
        records of Python ints and floats."""
        profile = SynthProfile(n_env_sensors=3, noise_std=1.0, sample_period_s=1000)
        rows, _ = _oracles.synthesize_rows(4, 48, profile)
        samples = synthesize(4, 48, profile).samples
        assert samples == [RawSample(*row) for row in rows]
        assert {type(s.timestamp) for s in samples} == {int}
        assert {type(s.value) for s in samples} == {float}


# Small campaigns whose synth outputs are pinned by sha256: name ->
# (seed, hours, SynthProfile fields).  The digests were taken from the
# row-wise generator that columnar synthesis replaced; both must write the
# same bytes.
PINNED_CAMPAIGNS = {
    "default": (1, 48, {}),
    "criterion-5": (2024, 72, {"gain": 1.45, "offset": 4.0, "humidity_coeff": 0.12,
                               "noise_std": 1.5}),
    "hourly": (3, 72, {"gain": 1.2, "offset": 2.0, "noise_std": 0.8, "sample_period_s": 3600}),
    "600s-3-env": (4, 60, {"gain": 1.3, "offset": 1.0, "humidity_coeff": 0.05,
                           "noise_std": 1.0, "n_env_sensors": 3, "sample_period_s": 600}),
    "7200s": (5, 50, {"gain": 0.9, "offset": -1.5, "noise_std": 2.0, "sample_period_s": 7200}),
    "zero-noise": (6, 48, {"gain": 1.5, "offset": 3.0, "humidity_coeff": 0.1}),
    "1000s-no-env": (8, 49, {"n_pm_sensors": 2, "n_env_sensors": 0, "gain": 1.1,
                             "noise_std": 0.5, "sample_period_s": 1000}),
}
PINNED_CAMPAIGN_SHA256 = {
    "default": {
        "sensors": "bcf4473ad953edbd212c07dfc073be4eea411ba84024fb15f202d8f0af73f245",
        "reference": "d4d6b38fc7079470333f919b0ca58f93e8e7bfac7624561725323e5dee9ae1fb",
        "dataset": "fe51b709b2bc0dcefc66102f43e32af35bb1d045a548da90f336a3815c78b11a",
    },
    "criterion-5": {
        "sensors": "b982f35b6af0a9ce51e1dca7443cfbe51732234b5ba268b5ecd919806d9b38b0",
        "reference": "f45399b84e263a28084cc577b95ecfbe30a04cc4c6b9a5877995fffb73547cf9",
        "dataset": "72ab4845ddf4c313092d006487bbc839649d981b3e023d39543d0a51e8c8aad9",
    },
    "hourly": {
        "sensors": "c434f897537f016e6b1b542bcb072b8bd22c9d29f20e789a58056d3a81ae3b53",
        "reference": "d90db3b77a1f81a0c1acee51b257f49beb7a101fae3bd42d4c5e28c73c833657",
        "dataset": "c7e818a442c4b816e0911e2ec283245aa72cc0522cd62b5478bf005bcd5b4a74",
    },
    "600s-3-env": {
        "sensors": "534bb38af27ebe7935993c56213e1ac12290246e26ee600d07067bfcb40ebf10",
        "reference": "e38527378fd1970c6476119a38ec08f0de823f9b167493b803cf8430601185c3",
        "dataset": "d55ff942e71f2150015d3afade0aeab3fb121545f05fe18a323eb8dea8f80005",
    },
    "7200s": {
        "sensors": "0f142680ce2a113147c10ba42a1b569a1d2cc7dedc6df0395ce0b8263d202b28",
        "reference": "7b87b0106dcd400bcd8a4bc9de878a5eb2d40943c8c43aae2fd8c5508de42fc2",
        "dataset": "55e83691a845233d828f6a61fb7bc32d8cfe8622985ca6120d31f309e6b5a502",
    },
    "zero-noise": {
        "sensors": "c010afe3bcdbb55b208e2981622f021a1c77e96ba1347e76ba29a61a1354ad32",
        "reference": "46819542817fccfffb51f1edad1c7c70b73b4d70a3f8c6405fbe47131ed69c13",
        "dataset": "27438bb1fd6402fdbfded3389a783762fe1e48ef2be01e7c73157be58da11b0c",
    },
    "1000s-no-env": {
        "sensors": "a1e9e95fada224e8958040804cb3fb4aa35f7bf080da09abf4c7bf88a606bc6c",
        "reference": "6022b7a4838b8817e110e5fc958536618c130a1e4de26240b9fd7057bdacb603",
        "dataset": "0da9c71f33f4081e00d14c0548a70a6bf0f4b1fb81489dbb6c087c4a2445bf70",
    },
}


def campaign_digests(name, out):
    """sha256 of the sensors.csv, reference.csv and dataset.csv that
    ``qscale synth`` writes for the pinned campaign ``name``."""
    seed, hours, fields = PINNED_CAMPAIGNS[name]
    paths = write_campaign(synthesize(seed, hours, SynthProfile(**fields)), out)
    dataset, _, _ = prepare_dataset([paths["sensors"]], paths["reference"])
    dataset_to_csv(dataset, out / "dataset.csv")
    return {
        key: hashlib.sha256((out / f"{key}.csv").read_bytes()).hexdigest()
        for key in ("sensors", "reference", "dataset")
    }


class TestPinnedSynth:
    @pytest.mark.parametrize("name", sorted(PINNED_CAMPAIGNS))
    def test_campaign_bytes(self, tmp_path, name):
        assert campaign_digests(name, tmp_path) == PINNED_CAMPAIGN_SHA256[name]


class TestPrepareMinuteGranularity:
    def test_minute_then_hour(self, tmp_path):
        campaign = synthesize(13, 48)
        paths = write_campaign(campaign, tmp_path)
        dataset, _, _ = prepare_dataset(
            [paths["sensors"]], paths["reference"], granularity="minute"
        )
        np.testing.assert_allclose(dataset.target, campaign.reference.values)


# A defect-injected campaign whose prepared dataset.csv bytes are pinned.
# Its values are decimal fractions drawn as integers and its sums run in a
# fixed order, so the bytes depend on no platform's math library.
DEFECT_HOURS = 120
DEFECT_OUTAGES = {  # hours with no sample of a quantity from any sensor
    "pm25": (30,),  # 1-2 hours are interpolated
    "temp": (50, 51),
    "hum": (70, 71, 72, 73),  # longer outages are dropped
    "press": (90, 91, 92),
}
DEFECT_INJECTED = {
    "bad_timestamp": 3,
    "non_numeric_value": 2,
    "unknown_quantity": 2,
    "wrong_column_count": 2,
    "non_finite_value": 3,
    "empty_sensor": 1,
}
# sha256 of dataset.csv as prepared by the row-wise pipeline that the
# columnar one replaced; both must write the same bytes
PINNED_DATASET_SHA256 = {
    "hour": "cd9ce42051f1913412a404657ec29ebb3ecd962070f5daed9673c9e48638a0e9",
    "minute": "b85b0a76083d53a05ec424324e292fd53a35f4e03181f28efd877404472a11c7",
}


def _defect_row(rng, valid, reason):
    """A malformed variant of a valid raw row that ``ingest`` rejects for ``reason``."""
    stamp, sensor, quantity, value = valid.split(",")
    variants = {
        "bad_timestamp": [
            f"{bad},{sensor},{quantity},{value}"
            for bad in ("2023-02-30T10:00:00Z", "not-a-time", "")
        ],
        "non_numeric_value": [f"{stamp},{sensor},{quantity},{bad}" for bad in ("n/a", "")],
        "unknown_quantity": [f"{stamp},{sensor},{bad},{value}" for bad in ("pm10", "co2")],
        "wrong_column_count": [f"{stamp},{sensor},{quantity}", f"{valid},1"],
        "non_finite_value": [
            f"{stamp},{sensor},{quantity},{bad}" for bad in ("nan", "inf", "-inf")
        ],
        "empty_sensor": [f"{stamp}, ,{quantity},{value}"],
    }[reason]
    return variants[rng.integers(len(variants))]


def write_defect_campaign(out):
    """Two raw logs and a reference log over ``DEFECT_HOURS`` hours.

    Four pm25 sensors report for the first half and three for the second
    (even and odd medians); one holds a constant value per hour, and each
    of the others adds a second sample in the minute of its first. Every
    reason in ``DEFECT_INJECTED`` is injected, plus two blank rows that are
    skipped. The reference lacks hour 100 and holds ``nan`` at hour 110.
    """
    rng = np.random.default_rng(2210)
    rows = []
    for h in range(DEFECT_HOURS):
        base = T0 + HOUR * h
        level = int(rng.integers(50, 400))
        for s in range(4 if h < DEFECT_HOURS // 2 else 3):
            for k in range(6):
                t = base + 600 * k + int(rng.integers(0, 60))
                n = level if s == 2 else level + int(rng.integers(-30, 31))
                value = n / 50 if s == 2 else n / 100 * (s + 1)
                rows.append((t, f"pm-{s:02d}", "pm25", value))
                if k == 0 and s != 2:
                    rows.append((t + 1, f"pm-{s:02d}", "pm25", value + 0.25))
        for e in range(2):
            for quantity, lo, hi in (("temp", -50, 300), ("hum", 300, 980), ("press", 9900, 10300)):
                for k in range(3):
                    t = base + 1200 * k + 7 * e
                    rows.append((t, f"env-{e:02d}", quantity, int(rng.integers(lo, hi)) / 10))
    rows = [r for r in rows if (r[0] - T0) // HOUR not in DEFECT_OUTAGES[r[2]]]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    body = [f"{format_timestamp(t)},{sensor},{q},{v!r}" for t, sensor, q, v in rows]
    inserts = [
        (at, _defect_row(rng, body[at], reason))
        for reason, count in DEFECT_INJECTED.items()
        for at in (int(rng.integers(len(body))) for _ in range(count))
    ]
    inserts += [(int(rng.integers(len(body))), ",,,"), (int(rng.integers(len(body))), "")]
    for at, line in sorted(inserts, key=lambda item: item[0], reverse=True):
        body.insert(at, line)
    out.mkdir(parents=True, exist_ok=True)
    half = len(body) // 2
    sensors = []
    for name, part in (("sensors-1.csv", body[:half]), ("sensors-2.csv", body[half:])):
        (out / name).write_text(
            "\n".join(["timestamp_iso8601,sensor_id,quantity,value", *part]) + "\n"
        )
        sensors.append(out / name)
    reference = ["timestamp_iso8601,pm25_ug_m3"]
    for h in range(DEFECT_HOURS):
        if h != 100:
            value = "nan" if h == 110 else repr(int(rng.integers(20, 300)) / 10)
            reference.append(f"{format_timestamp(T0 + HOUR * h)},{value}")
    (out / "reference.csv").write_text("\n".join(reference) + "\n")
    return sensors, out / "reference.csv"


class TestPinnedPrepare:
    @pytest.mark.parametrize("granularity", sorted(PINNED_DATASET_SHA256))
    def test_dataset_csv_bytes(self, tmp_path, granularity):
        sensors, reference = write_defect_campaign(tmp_path / "raw")
        code = cli.main([
            "prepare",
            "--sensors", *map(str, sensors),
            "--reference", str(reference),
            "--granularity", granularity,
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        digest = hashlib.sha256((tmp_path / "out" / "dataset.csv").read_bytes()).hexdigest()
        assert digest == PINNED_DATASET_SHA256[granularity]

    def test_counts(self, tmp_path):
        sensors, reference = write_defect_campaign(tmp_path)
        dataset, report, malformed = prepare_dataset(sensors, reference)
        assert malformed == sum(DEFECT_INJECTED.values())
        assert report.interpolated_cells == 3  # pm25 hour 30, temp hours 50-51
        assert report.dropped_rows == 8  # hum 70-73, press 90-92, nan reference at 110
        assert len(dataset) == DEFECT_HOURS - 1 - 8  # hour 100 has no reference

    def test_malformed_by_reason(self, tmp_path):
        sensors, _ = write_defect_campaign(tmp_path)
        result = ingest(sensors)
        assert result.malformed_by_reason == {
            reason: DEFECT_INJECTED.get(reason, 0) for reason in MALFORMED_REASONS
        }
        assert sum(result.malformed_by_reason.values()) == result.malformed
