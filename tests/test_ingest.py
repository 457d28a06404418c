import sys
from datetime import datetime, time, timezone

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
