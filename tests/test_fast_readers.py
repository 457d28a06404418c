"""The readers' np.loadtxt fast path against their csv.reader pass.

Clean canonical files must take the fast path, and every file must read the
same bits, log lines and errors as the DictReader oracles (for dataset.csv:
as the csv.reader pass), whichever path it takes.
"""

import csv
import logging
import warnings
from datetime import datetime, time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from co2fuse import fusion, ingest
from co2fuse.errors import SchemaError

from test_ingest import READERS, _outcome

FAST_READERS = sorted(set(READERS) - {"catalog"})

# ------------------------------------------------------------------ coverage


def _no_csv_pass(*args, **kwargs):
    raise AssertionError("the csv.reader pass ran")


def _files(campaign_dir, dataset, out, rows=None):
    """Copies of the campaign files and of the written dataset in `out`,
    cut to their header and first `rows` rows when `rows` is given."""
    fusion.write_dataset(dataset, out / "dataset.csv")
    for name in ("soundings.csv", "station_series.csv", "weather.csv"):
        (out / name).write_bytes((campaign_dir / name).read_bytes())
    if rows is not None:
        for path in out.glob("*.csv"):
            path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:rows + 1]))
    return out


def _reads(files):
    """name -> (the read, its reference: the DictReader oracle, or for the
    dataset the csv.reader pass)."""
    soundings, series = files / "soundings.csv", files / "station_series.csv"
    weather, dataset = files / "weather.csv", files / "dataset.csv"
    return {
        "soundings": (lambda: ingest.read_soundings(soundings),
                      lambda: READERS["soundings"][1](soundings)),
        "soundings-unfiltered": (
            lambda: ingest.read_soundings(soundings, quality_filter=False),
            lambda: READERS["soundings"][1](soundings, quality_filter=False)),
        "series": (lambda: ingest.read_station_series(series),
                   lambda: READERS["series"][1](series)),
        "weather": (lambda: ingest.read_weather(weather),
                    lambda: READERS["weather"][1](weather)),
        "dataset": (lambda: fusion.read_dataset(dataset), lambda: fusion._csv_dataset(dataset)),
    }


def _run(read, caplog):
    """(result or exception, log lines) of a read without arguments."""
    return _outcome(lambda _: read(), None, {}, caplog)


def test_written_files_take_the_fast_path(small_campaign_dir, small_dataset, tmp_path,
                                          monkeypatch, caplog):
    """The campaign and dataset writers' files never reach csv.reader, and
    read the same bits and log lines as the csv readers."""
    reads = _reads(_files(small_campaign_dir, small_dataset, tmp_path))
    caplog.set_level(logging.INFO)
    expected = {name: _run(reference, caplog) for name, (_, reference) in reads.items()}
    monkeypatch.setattr(csv, "reader", _no_csv_pass)
    for name, (read, _) in reads.items():
        assert _run(read, caplog) == expected[name], name


@pytest.mark.parametrize("block_rows", [1, 2, 3, 6, 7, 8])
def test_block_boundaries_read_every_row_once(small_campaign_dir, small_dataset, tmp_path,
                                              monkeypatch, caplog, block_rows):
    """Seven rows in blocks of 1-8 rows, the last block full or not."""
    reads = _reads(_files(small_campaign_dir, small_dataset, tmp_path, rows=7))
    caplog.set_level(logging.INFO)
    expected = {name: _run(reference, caplog) for name, (_, reference) in reads.items()}
    monkeypatch.setattr(csv, "reader", _no_csv_pass)
    monkeypatch.setattr(ingest, "_READ_BLOCK_ROWS", block_rows)
    for name, (read, _) in reads.items():
        assert _run(read, caplog) == expected[name], name


# -------------------------------------------------------- parity on traps

CANONICAL_TIMES = st.datetimes(min_value=datetime(1, 1, 1)).map(
    lambda d: f"{d.year:04d}-{d.month:02d}-{d.day:02d}T{d.hour:02d}:{d.minute:02d}:{d.second:02d}Z")
TIME_TRAPS = [
    "2019-06-13T11:44:00Zjunk", "2019-06-13T11:44:00ZZ", "2019-06-13T11:44:60Z",
    "0000-03-01T00:00:00Z", "2019-02-29T12:00:00Z", "2020-02-29T12:00:00Z",
    "1900-02-29T12:00:00Z", "2000-02-29T12:00:00Z", "2019-04-31T00:00:00Z",
    "2019-13-01T00:00:00Z", "2019-00-10T00:00:00Z", "2019-06-00T00:00:00Z",
    "2019-06-13T24:00:00Z", "2019-06-13T11:60:00Z", "2019-06-13T11:44:00z",
    "2019-06-13T11:44:00+00:00", "2019-06-13T13:44:00+02:00", "2019-06-13T11:44:00.5Z",
    "2019-06-13 11:44:00Z", "2019-6-13T11:44:00Z", " 2019-06-13T11:44:00Z",
    "2019-06-13T11:44:00Z ", "2019-06-13T11:4a:00Z", "2019-06-13T11:44:00", "0001-01-01T00:00:00Z",
    "9999-12-31T23:59:59Z", "1969-12-31T23:59:59Z", "0001-01-01T00:30:00+01:00",
    "2019-06-13T11:44:0０Z", "",
]
FLOAT_TRAPS = [
    " 1.5 ", "\t2", "\x0c1.5\x1c", "1.5\x0b", "1_0", "infinity", "+nan", "-nan", "1e999",
    "-inf", "nan", "0x10", "1e-400", ".5", "5.", "+.5e1", "-0.0", "", "x", "1,5", "١", "1.5\x00",
    "-180.00000000000003", "359.99999999999994", "540", "-180", "180",
]
FLAG_TRAPS = ["1", "-1", "2", "0.0", "1_0", " 0 ", "+0", "00", "-0", "99999999999999999999",
              "", "0x0", "٠", "1e0"]
ID_TRAPS = [" A", "A ", "\tB", "A\x0b", "", " ", 'A"B', '"A"', "Ä", "Ａ", "S" * 31, "S" * 32,
            "S" * 40, "A\x00", "\x00"]


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


CLEAN = {
    "time_utc": st.one_of(CANONICAL_TIMES, st.sampled_from([
        "2020-06-01T08:59:59Z", "2020-06-01T09:00:00Z", "2020-06-01T15:00:00Z",
        "2020-06-01T15:00:01Z", "2020-06-01T12:00:00Z"])),
    "latitude_deg": st.one_of(_floats(-90.0, 90.0), st.sampled_from(["90", "-90.0", "-0.0"])),
    "longitude_deg": st.one_of(_floats(-400.0, 400.0), st.sampled_from([
        "-180.00000000000003", "359.99999999999994", "540", "-180", "180", "-0.0"])),
    "xco2_ppm": _floats(300.0001, 599.9999),
    "xco2_uncertainty_ppm": st.one_of(_floats(0.0, 3.0), st.just("-0.0")),
    "quality_flag": st.sampled_from(["0", "0", "0", "1", "-3"]),
    "station_id": st.sampled_from(["ST00", "ST01", "A", " A", "B" * 31]),
    "co2_ppm": _floats(300.0, 500.0),
    "total_cloud_cover": _floats(0.0, 1.0),
}
OTHER_FLOATS = _floats(-1e6, 1e7)
# texts that the fast path refuses, or that both paths must read alike
TRAPS = {
    "time_utc": TIME_TRAPS,
    "latitude_deg": FLOAT_TRAPS + ["90.5", "-95"],
    "xco2_ppm": FLOAT_TRAPS + ["300", "600", "300.0000001"],
    "xco2_uncertainty_ppm": FLOAT_TRAPS + ["-0.1"],
    "quality_flag": FLAG_TRAPS,
    "station_id": ID_TRAPS,
    "co2_ppm": FLOAT_TRAPS + ["0", "-1"],
    "total_cloud_cover": FLOAT_TRAPS + ["1.0000001"],
}
WINDOWS = st.one_of(st.just(ingest.DEFAULT_WEATHER_WINDOW),
                    st.tuples(st.times(), st.times()).map(sorted).map(tuple))


@st.composite
def canonical_csv(draw, columns):
    """CSV text with the canonical header and clean rows joined without
    quoting; in about half the files one or two fields are traps, and now
    and then the file has a BOM, a blank line, a lone CR or no final line
    end. The line ends are LF or CRLF."""
    rows = [[draw(CLEAN.get(name, OTHER_FLOATS)) for name in columns]
            for _ in range(draw(st.integers(1, 8)))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        row, column = draw(st.sampled_from(rows)), draw(st.integers(0, len(columns) - 1))
        row[column] = draw(st.sampled_from(TRAPS.get(columns[column], FLOAT_TRAPS)))
    lines = [",".join(columns)] + [",".join(row) for row in rows]
    ends = [draw(st.sampled_from(["\n", "\r\n"]))] * len(lines)
    flaw = draw(st.sampled_from([None] * 8 + ["bom", "blank", "lone-cr", "no-final-end"]))
    at = draw(st.integers(0, len(lines) - 1))
    if flaw == "blank":
        lines.insert(at + 1, "")
        ends.append(ends[0])
    elif flaw == "lone-cr":
        ends[at] = "\r"
    elif flaw == "no-final-end":
        ends[-1] = ""
    return ("\ufeff" if flaw == "bom" else "") + "".join(map(str.__add__, lines, ends))


@pytest.mark.parametrize("name", FAST_READERS)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_canonical_files_read_like_dictreader(tmp_path, caplog, name, data):
    reader, reference, columns, _ = READERS[name]
    kwargs = {"soundings": {"quality_filter": data.draw(st.booleans())},
              "weather": {"window": data.draw(WINDOWS)}}.get(name, {})
    path = tmp_path / f"{name}.csv"
    path.write_bytes(data.draw(canonical_csv(columns)).encode("utf-8"))
    caplog.set_level(logging.INFO, logger="co2fuse.ingest")
    assert _outcome(reader, path, kwargs, caplog) == _outcome(reference, path, kwargs, caplog)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_canonical_datasets_read_like_the_csv_pass(tmp_path, caplog, data):
    path = tmp_path / "dataset.csv"
    columns = fusion.FEATURE_NAMES + fusion.DATASET_EXTRA_COLUMNS
    path.write_bytes(data.draw(canonical_csv(columns)).encode("utf-8"))
    assert (_outcome(fusion.read_dataset, path, {}, caplog)
            == _outcome(fusion._csv_dataset, path, {}, caplog))


def _sounding_line(t="2019-06-13T11:44:00Z", lat="52.0", lon="9.5", xco2="412.5",
                   unc="0.5", flag="0"):
    return ",".join((t, lat, lon, xco2, unc, flag))


@pytest.mark.parametrize("field, text", [
    *(("t", t) for t in TIME_TRAPS),
    *(("lon", x) for x in FLOAT_TRAPS),
    *(("flag", f) for f in FLAG_TRAPS),
])
def test_one_trap_among_clean_soundings(tmp_path, caplog, field, text):
    """A trap in one of three rows: the file reads as the oracle reads it."""
    lines = [",".join(ingest.SOUNDING_COLUMNS), _sounding_line(),
             _sounding_line(**{field: text}), _sounding_line(t="2019-06-13T11:45:00Z")]
    path = tmp_path / "s.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
    caplog.set_level(logging.INFO, logger="co2fuse.ingest")
    for kwargs in ({}, {"quality_filter": False}):
        assert (_outcome(ingest.read_soundings, path, kwargs, caplog)
                == _outcome(READERS["soundings"][1], path, kwargs, caplog))


def _loadtxt_of_numpy_1_24(loadtxt):
    """np.loadtxt as numpy 1.23-1.26 read an int field of '0.0' that ends a
    line: as 0, with a DeprecationWarning, where later numpy refuses it."""
    def read(fh, dtype, **kwargs):
        lines = [fh.readline() for _ in range(kwargs["max_rows"])]
        as_ints = [line.replace(",0.0\n", ",0\n") for line in lines]
        if as_ints != lines:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
        return loadtxt(as_ints, dtype, **kwargs)
    return read


def test_a_numpy_warning_refuses_the_file(tmp_path, monkeypatch, caplog):
    """int() refuses a flag of '0.0', so the row is malformed; the fast path
    refuses the file on numpy's warning instead of keeping the row."""
    lines = [",".join(ingest.SOUNDING_COLUMNS), _sounding_line(),
             _sounding_line(t="2019-06-13T11:45:00Z", flag="0.0"),
             _sounding_line(t="2019-06-13T11:46:00Z")]
    path = tmp_path / "s.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    caplog.set_level(logging.INFO, logger="co2fuse.ingest")
    expected = _outcome(READERS["soundings"][1], path, {}, caplog)
    assert "skipped 1 malformed sounding row(s) of 3" in expected[1][0][1]
    monkeypatch.setattr(np, "loadtxt", _loadtxt_of_numpy_1_24(np.loadtxt))
    assert _outcome(ingest.read_soundings, path, {}, caplog) == expected


@pytest.mark.parametrize("sid", ID_TRAPS)
def test_one_station_id_trap_in_a_series(tmp_path, caplog, sid):
    lines = ["station_id,time_utc,co2_ppm", "A,2020-01-01T00:00:00Z,401.0",
             f"{sid},2020-01-01T01:00:00Z,402.0", "A,2020-01-01T02:00:00Z,403.0"]
    path = tmp_path / "se.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    caplog.set_level(logging.INFO, logger="co2fuse.ingest")
    assert (_outcome(ingest.read_station_series, path, {}, caplog)
            == _outcome(READERS["series"][1], path, {}, caplog))


def test_duplicate_series_key_raises_as_the_csv_pass_does(tmp_path, caplog):
    lines = ["station_id,time_utc,co2_ppm", "B,2020-01-01T00:00:00Z,401.0",
             "A,2020-01-01T01:00:00Z,402.0", "B,2020-01-01T00:00:00Z,403.0"]
    path = tmp_path / "se.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
    outcome = _outcome(ingest.read_station_series, path, {}, caplog)
    assert outcome == _outcome(READERS["series"][1], path, {}, caplog)
    assert "duplicate observation 'B' @ 2020-01-01T00:00:00Z" in outcome[0][1]


# ------------------------------------------------------------- timestamps


def _texts(texts):
    return np.array([t.encode("utf-8") for t in texts], dtype="S21")


@settings(max_examples=200, deadline=None)
@given(st.lists(CANONICAL_TIMES, min_size=1, max_size=20))
def test_canonical_micros_match_parse_timestamp(texts):
    expected = ingest.to_micros([ingest.parse_timestamp(t) for t in texts])
    assert np.array_equal(ingest._canonical_micros(_texts(texts)), expected)


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32),
                 st.integers(0, 25), st.integers(0, 61), st.integers(0, 61)))
@example((2019, 6, 13, 11, 44, 60))
@example((0, 3, 1, 0, 0, 0))
@example((2019, 2, 29, 12, 0, 0))
@example((1900, 2, 29, 12, 0, 0))
@example((2000, 2, 29, 12, 0, 0))
@example((2019, 4, 31, 0, 0, 0))
@example((9999, 12, 31, 23, 59, 59))
def test_canonical_micros_refuse_what_parse_timestamp_refuses(fields):
    text = "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}Z".format(*fields)
    try:
        expected = ingest.to_micros([ingest.parse_timestamp(text)])
    except ValueError:
        with pytest.raises(ingest._Refused):
            ingest._canonical_micros(_texts([text]))
    else:
        assert np.array_equal(ingest._canonical_micros(_texts([text])), expected)


@pytest.mark.parametrize("text", [
    "2019-06-13T11:44:00Zjunk", "2019-06-13T11:44:00ZZ", "2019-06-13T11:44:00z",
    "2019-06-13T11:44:00+00:00", "2019-06-13T11:44:00.5Z", "2019-06-13 11:44:00Z",
    "2019-6-13T11:44:00Z", " 2019-06-13T11:44:00Z", "2019-06-13T11:44:00Z ",
    "2019-06-13T11:4a:00Z", "2019-06-13T11:44:00", "2019-06-13T11:44:0/Z", "",
])
def test_canonical_micros_refuse_other_forms(text):
    """Other forms, including a canonical time with a tail that an S20 field
    would cut off, take the csv.reader pass."""
    with pytest.raises(ingest._Refused):
        ingest._canonical_micros(_texts([text]))


# -------------------------------------------------------------- refusals


def test_dataset_blank_line_is_the_same_schema_error_on_both_paths(small_dataset, tmp_path):
    """csv.reader reads a blank line as a row of no fields, which read_dataset
    refuses; np.loadtxt would skip it, so the fast path refuses the file."""
    path = tmp_path / "dataset.csv"
    fusion.write_dataset(small_dataset, path)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:3] + [b"\r\n"] + lines[3:]))
    with pytest.raises(ingest._Refused):
        fusion._canonical_dataset(path)
    with pytest.raises(SchemaError, match=r"dataset\.csv:4: wrong column count") as fast:
        fusion.read_dataset(path)
    with pytest.raises(SchemaError) as csv_pass:
        fusion._csv_dataset(path)
    assert str(fast.value) == str(csv_pass.value)


@pytest.mark.parametrize("name", FAST_READERS + ["dataset"])
@pytest.mark.filterwarnings("error")
def test_header_only_files_read_without_warnings(tmp_path, name):
    """np.loadtxt warns on a block without rows; no reader asks it for one."""
    columns = (fusion.FEATURE_NAMES + fusion.DATASET_EXTRA_COLUMNS if name == "dataset"
               else READERS[name][2])
    path = tmp_path / f"{name}.csv"
    path.write_text(",".join(columns) + "\r\n", encoding="utf-8")
    with pytest.raises(ingest._Refused):
        ingest._clean_rows(path, columns)
    read = fusion.read_dataset if name == "dataset" else READERS[name][0]
    assert len(read(path)) == 0


@pytest.mark.filterwarnings("error")
def test_weather_window_drops_on_the_fast_path(tmp_path, monkeypatch, caplog):
    """The window drops and their log line come from the fast path too."""
    rows = [f"2020-06-01T{h:02d}:00:00Z,55.0,13.0,1,1,101000,290,291,1,10,1000,0.5"
            for h in (8, 9, 15, 16)]
    path = tmp_path / "w.csv"
    path.write_text("\n".join([",".join(ingest.WEATHER_COLUMNS), *rows]) + "\n", encoding="utf-8")
    monkeypatch.setattr(csv, "reader", _no_csv_pass)
    caplog.set_level(logging.INFO, logger="co2fuse.ingest")
    archive = ingest.read_weather(path, window=(time(9, 0), time(15, 0)))
    assert len(archive) == 2
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: dropped 2 weather sample(s) outside the 09:00-15:00 UTC window"]
