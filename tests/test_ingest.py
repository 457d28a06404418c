import csv
import io
import logging
import sys
import tracemalloc
from datetime import datetime, time, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from co2fuse import ingest
from co2fuse.errors import (
    Co2FuseError,
    CorruptInputError,
    DuplicateKeyError,
    SchemaError,
)
from co2fuse.geo import GeoPoint

import oracles
from oracles import to_epoch_years

UTC = timezone.utc

SOUNDING_HEADER = "time_utc,latitude_deg,longitude_deg,xco2_ppm,xco2_uncertainty_ppm,quality_flag\n"
WEATHER_HEADER = (
    "time_utc,latitude_deg,longitude_deg,u10_mps,v10_mps,surface_pressure_pa,"
    "t2m_k,skin_temperature_k,vint_temperature,tcwv_kgm2,cloud_base_height_m,"
    "total_cloud_cover\n"
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def sounding_row(flag=0, xco2=412.5, t="2020-06-01T12:00:00Z", lat=55.0, lon=13.0):
    return f"{t},{lat},{lon},{xco2},0.5,{flag}\n"


def test_quality_filter_drops_flagged_rows(tmp_path):
    path = write(
        tmp_path, "s.csv",
        SOUNDING_HEADER + sounding_row(0) + sounding_row(1) + sounding_row(0),
    )
    assert len(ingest.read_soundings(path, quality_filter=True)) == 2
    assert len(ingest.read_soundings(path, quality_filter=False)) == 3


@pytest.mark.filterwarnings("error")
def test_empty_file_with_header(tmp_path):
    path = write(tmp_path, "s.csv", SOUNDING_HEADER)
    assert ingest.read_soundings(path) == []


def test_nan_xco2_is_malformed_not_fatal(tmp_path):
    path = write(
        tmp_path, "s.csv",
        SOUNDING_HEADER + sounding_row() + sounding_row(xco2="NaN") + sounding_row(),
    )
    records = ingest.read_soundings(path)
    assert len(records) == 2
    assert all(300 < r.xco2 < 600 for r in records)


def test_out_of_band_xco2_is_malformed(tmp_path):
    path = write(
        tmp_path, "s.csv",
        SOUNDING_HEADER + sounding_row(xco2=250.0) + sounding_row() + sounding_row(),
    )
    assert len(ingest.read_soundings(path)) == 2


def test_soundings_sorted_by_time(tmp_path):
    path = write(
        tmp_path, "s.csv",
        SOUNDING_HEADER
        + sounding_row(t="2020-06-02T12:00:00Z")
        + sounding_row(t="2020-06-01T12:00:00Z"),
    )
    records = ingest.read_soundings(path)
    assert records[0].time < records[1].time


def test_missing_column_is_schema_error(tmp_path):
    path = write(tmp_path, "s.csv", "time_utc,latitude_deg\n2020-01-01T00:00:00Z,55\n")
    with pytest.raises(SchemaError):
        ingest.read_soundings(path)


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest.read_soundings(tmp_path / "absent.csv")


def test_mostly_malformed_file_is_corrupt(tmp_path):
    rows = sounding_row() + "garbage,,,,,\n" + "more,garbage,,,,\n"
    path = write(tmp_path, "s.csv", SOUNDING_HEADER + rows)
    with pytest.raises(CorruptInputError):
        ingest.read_soundings(path)


def test_catalog_duplicate_id(tmp_path):
    text = "station_id,latitude_deg,longitude_deg,elevation_m\nA,55,13,10\nB,56,14,\nA,57,15,20\n"
    path = write(tmp_path, "st.csv", text)
    with pytest.raises(DuplicateKeyError):
        ingest.read_station_catalog(path)


def test_catalog_bad_latitude_is_schema_error(tmp_path):
    text = "station_id,latitude_deg,longitude_deg,elevation_m\nA,95,13,10\n"
    path = write(tmp_path, "st.csv", text)
    with pytest.raises(SchemaError):
        ingest.read_station_catalog(path)


def test_catalog_error_names_the_file_line_of_the_bad_row(tmp_path):
    # a blank line 3 and a quoted two-line id on lines 4-5 put the third row on line 6
    text = ('station_id,latitude_deg,longitude_deg,elevation_m\nA,55,13,10\n\n'
            '"B\nB",56,14,\nC,95,13,10\n')
    path = write(tmp_path, "cat.csv", text)
    with pytest.raises(SchemaError, match=r"cat\.csv:6: invalid station row"):
        ingest.read_station_catalog(path)


def test_catalog_optional_elevation(tmp_path):
    text = "station_id,latitude_deg,longitude_deg,elevation_m\nA,55,13,\n"
    stations = ingest.read_station_catalog(write(tmp_path, "st.csv", text))
    assert stations[0].elevation_m is None


def test_series_gap_accepted(tmp_path):
    text = (
        "station_id,time_utc,co2_ppm\n"
        "A,2020-01-01T00:00:00Z,412.0\n"
        "A,2020-01-03T00:00:00Z,413.0\n"  # 48 h gap
    )
    obs = ingest.read_station_series(write(tmp_path, "se.csv", text))
    assert len(obs) == 2


def test_series_duplicate_key(tmp_path):
    text = (
        "station_id,time_utc,co2_ppm\n"
        "A,2020-01-01T00:00:00Z,412.0\n"
        "A,2020-01-01T00:00:00Z,413.0\n"
    )
    with pytest.raises(DuplicateKeyError):
        ingest.read_station_series(write(tmp_path, "se.csv", text))


def weather_row(t="2020-06-01T12:00:00Z", tcc=0.5):
    return f"{t},55,13,1,2,101325,288,289,6500000,20,1200,{tcc}\n"


def test_weather_window_filtering(tmp_path):
    text = (
        WEATHER_HEADER
        + weather_row(t="2020-06-01T12:00:00Z")
        + weather_row(t="2020-06-01T16:00:00Z")
        + weather_row(t="2020-06-01T09:00:00Z")
        + weather_row(t="2020-06-01T15:00:00Z")
    )
    archive = ingest.read_weather(write(tmp_path, "w.csv", text))
    hours = sorted(archive.times // 3_600_000_000 % 24)
    assert hours == [9, 12, 15]


def test_weather_cloud_cover_bounds(tmp_path):
    text = WEATHER_HEADER + weather_row(tcc=1.3) + weather_row(tcc=0.7)
    archive = ingest.read_weather(write(tmp_path, "w.csv", text))
    assert len(archive) == 1


def test_weather_window_parse():
    lo, hi = ingest.parse_weather_window("08:30-14:00")
    assert (lo, hi) == (time(8, 30), time(14, 0))
    with pytest.raises(ValueError):
        ingest.parse_weather_window("14:00-08:00")
    with pytest.raises(ValueError):
        ingest.parse_weather_window("nonsense")


def test_round_trip_all_record_types(tmp_path):
    t = datetime(2020, 6, 1, 12, 30, 45, tzinfo=UTC)
    soundings = [
        ingest.SoundingRecord(t, GeoPoint(55.123456789, 13.987654321), 412.34567, 0.51, 0),
        ingest.SoundingRecord(t, GeoPoint(-33.5, -70.25), 399.9999999999, 1.25, 2),
    ]
    stations = [
        ingest.Station("HTM", GeoPoint(56.0976, 13.4189), 115.0),
        ingest.Station("X2", GeoPoint(45.0, 7.0), None),
    ]
    series = ingest.StationSeries(
        np.array(["HTM", "X2"], dtype=object), ingest.to_micros([t, t]),
        np.array([415.123456789012, 408.0]),
    )
    weather = ingest.WeatherArchive(
        ingest.to_micros([t]), [55.0], [13.0],
        [[1.5, -2.25, 101234.5, 287.65, 289.01, 6.5e6, 21.5, 1250.0, 0.375]],
    )
    ingest.write_soundings(soundings, tmp_path / "s.csv")
    ingest.write_station_catalog(stations, tmp_path / "st.csv")
    ingest.write_station_series(series, tmp_path / "se.csv")
    ingest.write_weather(weather, tmp_path / "w.csv")
    assert ingest.read_soundings(tmp_path / "s.csv", quality_filter=False) == sorted(
        soundings, key=lambda r: r.time
    )
    assert ingest.read_station_catalog(tmp_path / "st.csv") == stations
    back = ingest.read_station_series(tmp_path / "se.csv")
    for name in ("station_id", "time", "co2"):
        assert np.array_equal(getattr(back, name), getattr(series, name))
    archive = ingest.read_weather(tmp_path / "w.csv")
    for name in ("times", "latitudes", "longitudes", "values"):
        assert np.array_equal(getattr(archive, name), getattr(weather, name))


def test_series_sorted_by_station_then_time(tmp_path):
    text = (
        "station_id,time_utc,co2_ppm\n"
        "B,2020-01-01T00:00:00Z,401.0\n"
        "A,2020-01-02T00:00:00Z,402.0\n"
        "AB,2020-01-01T00:00:00Z,403.0\n"
        "A,2020-01-01T00:00:00Z,404.0\n"
    )
    series = ingest.read_station_series(write(tmp_path, "se.csv", text))
    assert series.station_id.tolist() == ["A", "A", "AB", "B"]
    assert series.time.tolist() == [t * 3_600_000_000 for t in (438288, 438312, 438288, 438288)]
    assert series.co2.tolist() == [404.0, 402.0, 403.0, 401.0]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="csv reads NUL from Python 3.11")
def test_series_ids_differing_by_trailing_nul_stay_apart(tmp_path):
    text = (
        "station_id,time_utc,co2_ppm\n"
        "A\x00,2020-01-01T00:00:00Z,401.0\n"
        "A,2020-01-01T01:00:00Z,402.0\n"
        "A,2020-01-01T00:00:00Z,403.0\n"
    )
    series = ingest.read_station_series(write(tmp_path, "se.csv", text))
    assert series.station_id.tolist() == ["A", "A", "A\x00"]
    assert series.co2.tolist() == [403.0, 402.0, 401.0]


def test_series_duplicate_names_first_repeat(tmp_path):
    text = (
        "station_id,time_utc,co2_ppm\n"
        "B,2020-01-01T00:00:00Z,401.0\n"
        "A,2020-01-01T00:00:00Z,402.0\n"
        "A,2020-01-01T00:00:00+00:00,403.0\n"
        "B,2020-01-01T00:00:00Z,404.0\n"
    )
    with pytest.raises(DuplicateKeyError, match="'A' @ 2020-01-01T00:00:00Z"):
        ingest.read_station_series(write(tmp_path, "se.csv", text))


def test_series_duplicate_spelled_with_another_offset(tmp_path):
    text = (
        "station_id,time_utc,co2_ppm\n"
        "A,2020-01-01T01:00:00Z,401.0\n"
        "A,2020-01-01T00:00:00Z,402.0\n"
        "A,2020-01-01T01:00:00+01:00,403.0\n"
    )
    with pytest.raises(DuplicateKeyError, match="'A' @ 2020-01-01T00:00:00Z"):
        ingest.read_station_series(write(tmp_path, "se.csv", text))


def test_series_duplicate_raised_before_malformed_majority(tmp_path):
    text = (
        "station_id,time_utc,co2_ppm\n"
        "A,2020-01-01T00:00:00Z,401.0\n"
        "A,2020-01-01T00:00:00Z,402.0\n"
        + "A,not-a-time,403.0\n" * 3
    )
    with pytest.raises(DuplicateKeyError, match="'A' @ 2020-01-01T00:00:00Z"):
        ingest.read_station_series(write(tmp_path, "se.csv", text))


def test_series_short_row_is_malformed(tmp_path):
    text = (
        "station_id,time_utc,co2_ppm\n"
        "A,2020-01-01T00:00:00Z,401.0\n"
        "B\n"
        "A,2020-01-01T01:00:00Z,402.0\n"
    )
    assert len(ingest.read_station_series(write(tmp_path, "se.csv", text))) == 2


# local times that fall outside datetime's years 1-9999 once moved to UTC
OUT_OF_RANGE_TIMES = ["0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"]


@pytest.mark.parametrize("t", OUT_OF_RANGE_TIMES)
def test_out_of_range_timestamp_is_value_error(t):
    with pytest.raises(ValueError, match="outside the years 1-9999"):
        ingest.parse_timestamp(t)


@pytest.mark.parametrize("t", OUT_OF_RANGE_TIMES)
def test_out_of_range_sounding_time_is_malformed(tmp_path, t):
    path = write(tmp_path, "s.csv",
                 SOUNDING_HEADER + sounding_row() + sounding_row(t=t) + sounding_row())
    assert len(ingest.read_soundings(path)) == 2


@pytest.mark.parametrize("t", OUT_OF_RANGE_TIMES)
def test_out_of_range_series_time_is_malformed(tmp_path, t):
    text = (
        "station_id,time_utc,co2_ppm\n"
        "A,2020-01-01T00:00:00Z,412.0\n"
        f"A,{t},413.0\n"
        "A,2020-01-01T01:00:00Z,414.0\n"
    )
    assert len(ingest.read_station_series(write(tmp_path, "se.csv", text))) == 2


@pytest.mark.parametrize("t", OUT_OF_RANGE_TIMES)
def test_out_of_range_weather_time_is_malformed(tmp_path, t):
    text = WEATHER_HEADER + weather_row() + weather_row(t=t) + weather_row()
    assert len(ingest.read_weather(write(tmp_path, "w.csv", text))) == 2


def test_quality_flags_all_zero_after_filter(tmp_path):
    path = write(
        tmp_path, "s.csv",
        SOUNDING_HEADER + sounding_row(0) + sounding_row(3) + sounding_row(0),
    )
    assert all(r.quality_flag == 0 for r in ingest.read_soundings(path))


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=st.binary(max_size=400))
def test_readers_never_crash_on_fuzz(tmp_path, content):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(content)
    for reader in (
        ingest.read_soundings,
        ingest.read_station_catalog,
        ingest.read_station_series,
        ingest.read_weather,
    ):
        try:
            result = reader(path)
        except (Co2FuseError, FileNotFoundError):
            continue
        assert isinstance(result, (list, ingest.StationSeries, ingest.WeatherArchive))


def test_epoch_years_midyear():
    t = datetime(2015, 7, 2, 12, 0, 0, tzinfo=UTC)  # middle of a 365-day year
    assert to_epoch_years(t) == pytest.approx(2015.5, abs=2e-3)
    jan1 = datetime(2016, 1, 1, tzinfo=UTC)
    assert to_epoch_years(jan1) == 2016.0


def test_timestamp_round_trip():
    t = datetime(2020, 2, 29, 23, 59, 59, tzinfo=UTC)
    assert ingest.parse_timestamp(ingest.format_timestamp(t)) == t
    with pytest.raises(ValueError):
        ingest.parse_timestamp("2020-01-01T00:00:00")  # no offset


# ------------------------------------------------ readers against DictReader

FLOAT_TEXTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["", " 1.5 ", "1_000", "nan", "-inf", "1e999", "x", "0x10", "-0.0"]),
)
EDGE_TIMES = [
    "2020-06-01T09:00:00Z", "2020-06-01T15:00:00Z", "2020-06-01T15:00:01Z",
    "2020-06-01T08:59:59Z", "2020-06-01T15:00:00.999999Z", "2020-06-01T12:00:00z",
    "2020-06-01T17:00:00+02:00", "2020-06-01T04:00:00-05:00", "1969-12-31T09:00:00Z",
    "1969-12-31T15:00:01Z", "1901-03-01T15:00:00+00:00",
]
BAD_TIMES = ["2020-06-01T12:00:00", "not-a-time", "", *OUT_OF_RANGE_TIMES]
OFFSETS = st.integers(-1439, 1439).map(lambda m: timezone(timedelta(minutes=m)))
TIME_TEXTS = st.one_of(
    st.sampled_from(EDGE_TIMES + BAD_TIMES),
    st.datetimes(timezones=OFFSETS).map(datetime.isoformat),
)
STATION_IDS = st.sampled_from(["A", "B", " A", "AB", "ST01", ""])


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


# the texts of each column in a clean row; other columns read any float
CLEAN = {
    "time_utc": st.sampled_from(EDGE_TIMES),
    "latitude_deg": _floats(-95.0, 95.0),
    "longitude_deg": _floats(-400.0, 400.0),
    "xco2_ppm": _floats(295.0, 605.0),
    "xco2_uncertainty_ppm": _floats(-0.1, 3.0),
    "quality_flag": st.integers(-1, 2).map(str),
    "elevation_m": st.one_of(st.just(""), _floats(-10.0, 3000.0)),
    "co2_ppm": _floats(-1.0, 500.0),
    "total_cloud_cover": _floats(-0.1, 1.1),
}
READERS = {
    "soundings": (ingest.read_soundings, oracles.reference_read_soundings,
                  ingest.SOUNDING_COLUMNS,
                  st.fixed_dictionaries({"quality_filter": st.booleans()})),
    "catalog": (ingest.read_station_catalog, oracles.reference_read_station_catalog,
                ingest.STATION_COLUMNS, st.just({})),
    "series": (ingest.read_station_series, oracles.reference_read_station_series,
               ingest.SERIES_COLUMNS, st.just({})),
    "weather": (ingest.read_weather, oracles.reference_read_weather, ingest.WEATHER_COLUMNS,
                st.fixed_dictionaries({"window": st.one_of(
                    st.just(ingest.DEFAULT_WEATHER_WINDOW),
                    st.just((time(15, 0), time(15, 0))),
                    st.just((time(9, 0, 0, 1), time(14, 59, 59, 999_999))),
                    st.just((time(8, 59, 59), time(15, 0, 1))),
                    st.tuples(st.times(), st.times()),
                )})),
}


@st.composite
def messy_csv(draw, columns, extra_ids=()):
    """CSV text with the required columns reordered, some repeated and some
    extra ones; blank, short, long and messy rows; CRLF or LF; all fields
    quoted or only those that need it."""
    header = draw(st.permutations(columns))
    for name in draw(st.lists(st.sampled_from([*columns, "note", "extra"]), max_size=3)):
        header.insert(draw(st.integers(0, len(header))), name)
    ids = st.one_of(STATION_IDS, st.sampled_from(extra_ids)) if extra_ids else STATION_IDS
    clean = {**CLEAN, "station_id": ids}
    # a messy row's other fields may also be any float text
    messy = {"time_utc": TIME_TEXTS,
             "station_id": st.one_of(ids, st.text(",\"\r\n AB", max_size=4))}
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(["clean", "clean", "messy", "blank", "short", "long"]))
        if shape == "blank":
            rows.append([])
            continue
        row = []
        for name in header:
            strategy = clean.get(name, _floats(-1e6, 1e7))
            if shape == "messy":
                strategy = messy.get(name, st.one_of(strategy, FLOAT_TEXTS))
            row.append(draw(strategy))
        if shape == "short":
            row = row[:draw(st.integers(1, len(row)))]
        elif shape == "long":
            row += draw(st.lists(FLOAT_TEXTS, min_size=1, max_size=2))
        rows.append(row)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\r\n", "\n"])),
                        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _fingerprint(result):
    """The returned records or columns, bit for bit."""
    if isinstance(result, list):
        return repr(result)
    return [(name, value.dtype.str, value.shape,
             value.tolist() if value.dtype == object else value.tobytes())
            for name, value in sorted(vars(result).items())]


def _outcome(reader, path, kwargs, caplog):
    """(result or exception, log lines) of one read."""
    caplog.clear()
    try:
        result = _fingerprint(reader(path, **kwargs))
    except Exception as exc:  # the type and message are compared
        result = (type(exc), str(exc))
    return result, [(r.levelname, r.getMessage()) for r in caplog.records]


def _assert_reads_like_dictreader(name, path, kwargs, caplog):
    reader, reference, _, _ = READERS[name]
    caplog.set_level(logging.INFO, logger="co2fuse.ingest")
    assert _outcome(reader, path, kwargs, caplog) == _outcome(reference, path, kwargs, caplog)


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_readers_match_dictreader_on_messy_csv(tmp_path, caplog, name, data):
    columns, kwargs = READERS[name][2], data.draw(READERS[name][3])
    path = tmp_path / f"{name}.csv"
    path.write_bytes(data.draw(messy_csv(columns)).encode("utf-8"))
    _assert_reads_like_dictreader(name, path, kwargs, caplog)


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=st.binary(max_size=300))
def test_readers_match_dictreader_on_bytes(tmp_path, caplog, name, content):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(content)
    _assert_reads_like_dictreader(name, path, {}, caplog)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="csv reads NUL from Python 3.11")
@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_readers_match_dictreader_with_nul(tmp_path, caplog, name, data):
    columns = READERS[name][2]
    path = tmp_path / f"{name}.csv"
    text = data.draw(messy_csv(columns, extra_ids=("A\x00", "\x00", "B\x00\x00")))
    path.write_bytes(text.encode("utf-8"))
    _assert_reads_like_dictreader(name, path, {}, caplog)


@pytest.mark.parametrize("name", sorted(READERS))
@pytest.mark.parametrize("text", [
    "", "\n", "\r\n\r\n", "a,b\n", "﻿" + ",".join(ingest.WEATHER_COLUMNS) + "\n",
])
def test_readers_match_dictreader_on_headers(tmp_path, caplog, name, text):
    path = tmp_path / f"{name}.csv"
    path.write_text(text, encoding="utf-8")
    _assert_reads_like_dictreader(name, path, {}, caplog)


def test_read_weather_peak_is_under_three_times_its_columns(tmp_path):
    # 63 nodes x 45 days x hours 08-16: the two hours outside 09:00-15:00 drop
    nodes, days, hours = 63, 45, np.arange(8, 17)
    hour_us = 3_600_000_000
    t0 = ingest.to_micros([datetime(2020, 6, 1, tzinfo=UTC)])[0]
    times = (t0 + (np.arange(days)[:, None] * 24 + hours) * hour_us).ravel()
    n = len(times) * nodes
    rng = np.random.default_rng(0)
    values = rng.uniform(0.0, 1.0, size=(n, 9))
    archive = ingest.WeatherArchive(
        np.repeat(times, nodes), np.tile(np.linspace(50.0, 60.0, nodes), len(times)),
        np.tile(np.linspace(5.0, 20.0, nodes), len(times)), values,
    )
    path = tmp_path / "w.csv"
    ingest.write_weather(archive, path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        back = ingest.read_weather(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(back) == days * 7 * nodes
    kept = sum(a.nbytes for a in (back.times, back.latitudes, back.longitudes, back.values))
    assert peak < 3 * kept


def test_read_station_series_peak_is_under_twice_its_columns(tmp_path):
    stations, hours = 16, 1500
    t0 = ingest.to_micros([datetime(2020, 1, 1, tzinfo=UTC)])[0]
    ids = np.array([f"ST{i:02d}" for i in range(stations)], dtype=object)
    series = ingest.StationSeries(
        np.repeat(ids, hours), np.tile(t0 + np.arange(hours) * 3_600_000_000, stations),
        np.random.default_rng(0).uniform(390.0, 430.0, stations * hours),
    )
    path = tmp_path / "se.csv"
    ingest.write_station_series(series, path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        back = ingest.read_station_series(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(back) == stations * hours
    kept = sum(a.nbytes for a in (back.station_id, back.time, back.co2))
    assert peak < 2 * kept


def test_read_soundings_peak_is_under_one_and_a_fifth_of_its_records(tmp_path):
    # 20k soundings in shuffled time order, one in ten failing the quality flag
    n = 20_000
    rng = np.random.default_rng(0)
    t0 = datetime(2020, 6, 1, tzinfo=UTC)
    records = [
        ingest.SoundingRecord(t0 + timedelta(seconds=s), GeoPoint(lat, lon), xco2, 0.5, flag)
        for s, lat, lon, xco2, flag in zip(
            rng.permutation(n).tolist(), rng.uniform(50.0, 60.0, n).tolist(),
            rng.uniform(5.0, 20.0, n).tolist(), rng.uniform(400.0, 430.0, n).tolist(),
            (rng.random(n) < 0.1).astype(int).tolist())
    ]
    path = tmp_path / "s.csv"
    ingest.write_soundings(records, path)
    del records
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        back = ingest.read_soundings(path)
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert 17_000 < len(back) < 19_000
    # no whole-file table or column set is alive next to the records
    assert peak < 1.2 * kept
