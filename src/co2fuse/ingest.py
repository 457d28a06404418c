"""Readers and writers for the three input archives.

All inputs are UTF-8 CSV with a header row and RFC3339 timestamps:

- soundings.csv:       time_utc,latitude_deg,longitude_deg,xco2_ppm,xco2_uncertainty_ppm,quality_flag
- stations.csv:        station_id,latitude_deg,longitude_deg,elevation_m
- station_series.csv:  station_id,time_utc,co2_ppm
- weather.csv:         time_utc,latitude_deg,longitude_deg,u10_mps,v10_mps,surface_pressure_pa,
                       t2m_k,skin_temperature_k,vint_temperature,tcwv_kgm2,cloud_base_height_m,
                       total_cloud_cover

Readers never crash on arbitrary bytes: bad rows are counted and skipped
(logged), and files that are mostly garbage raise CorruptInputError. The
station catalog is the exception: it is small and foundational, so any
invalid row there is a SchemaError.

The soundings, series and weather readers (and fusion.read_dataset) first
try a fast path for clean canonical files: the header is exactly the one
above, the bytes are ASCII with no quote, no blank line and no control
character but the line ends (see `_clean_rows`), and np.loadtxt's C
tokenizer reads the rows in blocks of _READ_BLOCK_ROWS without a warning
(see `_loadtxt_blocks`). Timestamps must read 'YYYY-MM-DDTHH:MM:SSZ'; they
and the value checks are handled as arrays. The fast path keeps a file only
when every row is well formed, so it drops rows by the quality flag or the
weather window alone. Anything else it refuses, and the whole file then
takes the csv.reader pass: each row read as a tuple of its named fields, as
csv.DictReader would read it (see `_rows`), counted and skipped when
malformed. That pass is the only source of malformed counts, the corrupt
gate and line-numbered errors; both paths return the same bits.

Soundings and stations are lists of records; the station series and the
weather are numpy columns (`StationSeries`, `WeatherArchive`). The column
writers format a block of rows at a time.
"""

from __future__ import annotations

import csv
import logging
import math
import operator
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, time, timedelta, timezone
from typing import Iterable, Optional

import numpy as np

from .errors import CorruptInputError, DuplicateKeyError, SchemaError
from .geo import GeoPoint

log = logging.getLogger(__name__)

# sanity gate for satellite retrievals; out-of-band rows are malformed
XCO2_PLAUSIBLE_PPM = (300.0, 600.0)

SOUNDING_COLUMNS = (
    "time_utc",
    "latitude_deg",
    "longitude_deg",
    "xco2_ppm",
    "xco2_uncertainty_ppm",
    "quality_flag",
)
STATION_COLUMNS = ("station_id", "latitude_deg", "longitude_deg", "elevation_m")
SERIES_COLUMNS = ("station_id", "time_utc", "co2_ppm")
WEATHER_COLUMNS = (
    "time_utc",
    "latitude_deg",
    "longitude_deg",
    "u10_mps",
    "v10_mps",
    "surface_pressure_pa",
    "t2m_k",
    "skin_temperature_k",
    "vint_temperature",
    "tcwv_kgm2",
    "cloud_base_height_m",
    "total_cloud_cover",
)


@dataclass(frozen=True, slots=True)
class SoundingRecord:
    """One satellite xCO2 retrieval."""

    time: datetime
    location: GeoPoint
    xco2: float
    xco2_uncertainty: float
    quality_flag: int


@dataclass(frozen=True, slots=True)
class Station:
    """A ground station; station_id is unique within a catalog."""

    station_id: str
    location: GeoPoint
    elevation_m: Optional[float] = None


@dataclass(frozen=True, eq=False)  # == on arrays has no single truth value
class StationSeries:
    """Hourly ground-level CO2 averages (ppm) as columns, one row per
    observation: station ids (an object array of str), int64 UTC
    microsecond times and float64 values."""

    station_id: np.ndarray
    time: np.ndarray
    co2: np.ndarray

    def __len__(self) -> int:
        return len(self.time)


class WeatherArchive:
    """Weather samples as node-major columns, built once.

    Row r is the sample at `times[r]` (int64 UTC microseconds) and
    (`latitudes[r]`, `longitudes[r]`), with its nine fields in `values[r]`
    (WEATHER_COLUMNS[3:] order; vint_temperature in the source units, which
    the upstream archive does not document). Nodes are the distinct
    (latitude, longitude) pairs in sorted order; node n owns rows
    node_offsets[n]:node_offsets[n + 1], sorted by time, equal times in
    input order.
    """

    def __init__(self, times, latitudes, longitudes, values):
        times = np.asarray(times, dtype=np.int64)
        latitudes = np.asarray(latitudes, dtype=np.float64)
        longitudes = np.asarray(longitudes, dtype=np.float64)
        order = np.lexsort((times, longitudes, latitudes))
        self.times = times[order]
        self.latitudes = latitudes[order]
        self.longitudes = longitudes[order]
        self.values = np.asarray(values, dtype=np.float64).reshape(-1, 9)[order]
        lats, lons = self.latitudes, self.longitudes
        new_node = np.ones(len(order), dtype=bool)
        new_node[1:] = (lats[1:] != lats[:-1]) | (lons[1:] != lons[:-1])
        starts = np.flatnonzero(new_node)
        self.node_offsets = np.append(starts, len(order))
        self.node_latitudes = lats[starts]
        self.node_longitudes = lons[starts]

    def __len__(self) -> int:
        return len(self.times)


def parse_timestamp(text: str) -> datetime:
    """Parse an RFC3339 timestamp into an aware UTC datetime, seconds precision."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        raise ValueError(f"timestamp {text!r} has no UTC offset")
    try:
        dt = dt.astimezone(timezone.utc)
    except OverflowError as exc:  # e.g. 0001-01-01T00:30:00+01:00
        raise ValueError(f"timestamp {text!r} is outside the years 1-9999 in UTC") from exc
    return dt.replace(microsecond=0)


def format_timestamp(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def to_micros(times: list[datetime]) -> np.ndarray:
    """Aware datetimes as int64 UTC microseconds since 1970, exactly."""
    return np.fromiter(((t - _EPOCH) // _MICROSECOND for t in times), np.int64, len(times))


class _TextByMicros(dict):
    """int UTC microseconds since 1970 -> format_timestamp text, each
    distinct time formatted once."""

    def __missing__(self, micros: int) -> str:
        text = self[micros] = format_timestamp(_EPOCH + micros * _MICROSECOND)
        return text


class _MicrosByText(dict):
    """Timestamp text -> int UTC microseconds since 1970, each distinct text
    parsed once; a text that does not parse raises ValueError each time."""

    def __missing__(self, text: str) -> int:
        micros = self[text] = (parse_timestamp(text) - _EPOCH) // _MICROSECOND
        return micros


def epoch_years(micros: np.ndarray) -> np.ndarray:
    """Continuous calendar time of UTC microseconds, e.g. 2015.37 for mid-May 2015.

    The year fraction divides integer microseconds, as timedelta division does.
    """
    year = np.asarray(micros).astype("datetime64[us]").astype("datetime64[Y]")
    start = year.astype("datetime64[us]").astype(np.int64)
    end = (year + 1).astype("datetime64[us]").astype(np.int64)
    return (year.astype(np.int64) + 1970) + (micros - start) / (end - start)


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise ValueError("non-finite value")
    return x


@contextmanager
def csv_errors(path):
    """Map undecodable bytes and CSV syntax errors met in the block, such
    as a field over the csv module's size limit, to SchemaError."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not valid UTF-8 ({exc})") from exc
    except csv.Error as exc:
        raise SchemaError(f"{path}: CSV parse failure ({exc})") from exc


def _rows(path, columns: tuple[str, ...]):
    """Yield (line, fields) for each csv row: the file line that the row ends
    on, and a tuple of the named fields in `columns` order; header problems
    raise SchemaError.

    Rows read as csv.DictReader reads them: the last of duplicate header
    names wins, blank lines are skipped, extra fields are ignored and a short
    row's missing fields read as "", which no field accepts."""
    with csv_errors(path), open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file, header row required")
        position = {name: i for i, name in enumerate(header)}
        missing = [c for c in columns if c not in position]
        if missing:
            raise SchemaError(f"{path}: missing required columns {missing}")
        positions = [position[c] for c in columns]
        fields = operator.itemgetter(*positions)
        width = max(positions) + 1
        for row in reader:
            if len(row) < width:
                if not row:
                    continue
                row += [""] * (width - len(row))
            yield reader.line_num, fields(row)


class _Refused(Exception):
    """The file is not clean canonical CSV: it takes the csv.reader pass."""


def _require(ok) -> None:
    if not np.all(ok):
        raise _Refused


# bytes checked at a time, and rows per np.loadtxt call: a chunk and a block
# of records stay small next to the columns that a reader keeps
_SCAN_BYTES = 1 << 16
_READ_BLOCK_ROWS = 1024


def _clean_rows(path, columns: tuple[str, ...]) -> int:
    """The number of data rows of a file that np.loadtxt splits into the
    rows and fields that csv.reader gives; raises _Refused for any other.

    The header must be exactly `columns` and at least one row must follow.
    The bytes must be ASCII with no quote (csv.reader strips quotes) and no
    control character but the line ends: numpy's S fields drop trailing
    NULs, and np.loadtxt strips \x1c-\x1f around a number, which float()
    refuses. No line may be blank (np.loadtxt skips blank lines) or reach
    the csv module's field size limit."""
    header = ",".join(columns).encode()
    rows = 0
    with open(path, "rb") as fh:
        if fh.readline() not in (header + b"\n", header + b"\r\n"):
            raise _Refused
        while chunk := fh.read(_SCAN_BYTES) + fh.readline():
            _require(chunk.isascii() and b'"' not in chunk)
            text = np.frombuffer(chunk, np.uint8)
            ends = np.flatnonzero(text == ord("\n"))
            line_feeds = len(ends)
            if text[-1] != ord("\n"):  # the last line, without its LF
                ends = np.append(ends, len(text))
            width = np.diff(ends, prepend=-1) - 1
            cr = (width > 0) & (text[ends - 1] == ord("\r"))
            _require((width > cr) & (width < csv.field_size_limit()))
            _require(np.count_nonzero(text < ord(" ")) == line_feeds + np.count_nonzero(cr))
            rows += len(ends)
    _require(rows > 0)
    return rows


def _loadtxt_blocks(path, columns: tuple[str, ...], dtype: np.dtype):
    """(rows, blocks) of a file with the header `columns`: its number of
    data rows, and an iterator of (slice, records) for consecutive blocks of
    them, read by np.loadtxt as `dtype` records.

    Raises _Refused, at once or while iterating, for a file that
    `_clean_rows` refuses and where np.loadtxt refuses a field or warns.
    A warning is a refusal because its meaning moves across numpy versions:
    numpy 1.23-1.26 read an int field of '0.0' as 0 with a
    DeprecationWarning, where int() and later numpy refuse it."""
    rows = _clean_rows(path, columns)

    def blocks():
        with open(path, encoding="utf-8") as fh:
            fh.readline()
            for start in range(0, rows, _READ_BLOCK_ROWS):
                want = min(_READ_BLOCK_ROWS, rows - start)
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        block = np.loadtxt(fh, dtype, comments=None, delimiter=",", ndmin=1,
                                           max_rows=want, encoding="utf-8")
                except (ValueError, Warning) as exc:
                    raise _Refused from exc
                _require(len(block) == want)
                yield slice(start, start + want), block

    return rows, blocks()


def _bytes(texts: np.ndarray) -> np.ndarray:
    """S fields as a (rows, width) uint8 matrix, NUL-padded."""
    return np.ascontiguousarray(texts).view(np.uint8).reshape(-1, texts.dtype.itemsize)


def _ids(texts: np.ndarray) -> np.ndarray:
    """S32 fields as an object array of str; _Refused for a full-width one,
    which np.loadtxt may have cut short."""
    _require(_bytes(texts)[:, -1] == 0)
    return texts.astype(str).astype(object)


_TIME_TEMPLATE = np.frombuffer(b"0000-00-00T00:00:00Z\0", np.uint8)
_TIME_DIGITS = _TIME_TEMPLATE == ord("0")
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _canonical_micros(texts: np.ndarray) -> np.ndarray:
    """int64 UTC microseconds of 'YYYY-MM-DDTHH:MM:SSZ' texts read as S21
    fields, as parse_timestamp reads them; _Refused for any other text and
    for the times that parse_timestamp refuses, such as year 0, second 60 or
    29 February of a common year.

    Days count from the civil date as in H. Hinnant's days_from_civil."""
    chars = _bytes(texts)
    _require(chars[:, ~_TIME_DIGITS] == _TIME_TEMPLATE[~_TIME_DIGITS])
    digits = chars[:, _TIME_DIGITS] - np.uint8(ord("0"))  # bytes below "0" wrap past 9
    _require(digits <= 9)
    pairs = (digits[:, 0::2] * np.uint8(10) + digits[:, 1::2]).astype(np.int64)
    century, year, month, day, hour, minute, second = pairs.T
    year += century * 100
    _require((year >= 1) & (month >= 1) & (month <= 12))
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    _require((day >= 1) & (day <= _MONTH_DAYS[month] + (leap & (month == 2))))
    _require((hour <= 23) & (minute <= 59) & (second <= 59))
    year -= month <= 2  # years start on 1 March
    era = year // 400
    of_era = year - era * 400
    of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = era * 146_097 + of_era * 365 + of_era // 4 - of_era // 100 + of_year - 719_468
    return (((days * 24 + hour) * 60 + minute) * 60 + second) * 1_000_000


def _latitudes_ok(lat: np.ndarray) -> np.ndarray:
    return (lat >= -90.0) & (lat <= 90.0)


def _corrupt_gate(path, total: int, malformed: int, what: str) -> None:
    if malformed > 0:
        log.warning("%s: skipped %d malformed %s row(s) of %d", path, malformed, what, total)
    if total > 0 and malformed * 2 > total:
        raise CorruptInputError(
            f"{path}: {malformed} of {total} {what} rows malformed (> 50%)"
        )


def read_soundings(path, quality_filter: bool = True) -> list[SoundingRecord]:
    """Read satellite soundings; rows with quality_flag != 0 are dropped when
    quality_filter is set. Returns records sorted by time."""
    try:
        records, dropped_quality = _canonical_soundings(path, quality_filter)
    except _Refused:
        records, dropped_quality = _csv_soundings(path, quality_filter)
    if dropped_quality:
        log.info("%s: dropped %d sounding(s) failing the quality flag", path, dropped_quality)
    records.sort(key=lambda r: r.time)
    return records


_SOUNDING_RECORD = np.dtype([("time_utc", "S21"), ("latitude_deg", "f8"), ("longitude_deg", "f8"),
                             ("xco2_ppm", "f8"), ("xco2_uncertainty_ppm", "f8"),
                             ("quality_flag", "i8")])


def _canonical_soundings(path, quality_filter: bool):
    """The fast path of read_soundings: (records in file order, quality
    drops). Each block's records are built before the next block is read."""
    rows, blocks = _loadtxt_blocks(path, SOUNDING_COLUMNS, _SOUNDING_RECORD)
    records = []
    for _, block in blocks:
        lat, lon, xco2, unc = (block[c] for c in SOUNDING_COLUMNS[1:5])
        _require(_latitudes_ok(lat) & np.isfinite(lon) & np.isfinite(unc) & (unc >= 0.0))
        _require((XCO2_PLAUSIBLE_PPM[0] < xco2) & (xco2 < XCO2_PLAUSIBLE_PPM[1]))
        t = _canonical_micros(block["time_utc"])
        if quality_filter:
            keep = block["quality_flag"] == 0
            block, t = block[keep], t[keep]
        when = (_EPOCH + micros * _MICROSECOND for micros in t.tolist())
        points = map(GeoPoint, block["latitude_deg"].tolist(), block["longitude_deg"].tolist())
        rest = (block[c].tolist() for c in SOUNDING_COLUMNS[3:])
        records += map(SoundingRecord, when, points, *rest)
    return records, rows - len(records)


def _csv_soundings(path, quality_filter: bool):
    """The csv.reader pass of read_soundings: (records in file order, quality
    drops), after the corrupt gate."""
    records = []
    total = malformed = dropped_quality = 0
    for _, (t_text, lat, lon, xco2_text, unc_text, flag_text) in _rows(path, SOUNDING_COLUMNS):
        total += 1
        try:
            t = parse_timestamp(t_text)
            loc = GeoPoint(float(lat), float(lon))
            xco2 = _finite(float(xco2_text))
            unc = _finite(float(unc_text))
            flag = int(flag_text)
            if not (XCO2_PLAUSIBLE_PPM[0] < xco2 < XCO2_PLAUSIBLE_PPM[1]):
                raise ValueError(f"xco2 {xco2} outside plausibility band")
            if unc < 0.0:
                raise ValueError("negative uncertainty")
        except ValueError:
            malformed += 1
            continue
        if quality_filter and flag != 0:
            dropped_quality += 1
            continue
        records.append(SoundingRecord(t, loc, xco2, unc, flag))
    _corrupt_gate(path, total, malformed, "sounding")
    return records, dropped_quality


def read_station_catalog(path) -> list[Station]:
    """Read the station catalog. The catalog is strict: any invalid row is a
    SchemaError and duplicate ids are a DuplicateKeyError."""
    stations = []
    seen: set[str] = set()
    for lineno, (sid, lat, lon, raw_elev) in _rows(path, STATION_COLUMNS):
        try:
            sid = sid.strip()
            if not sid:
                raise ValueError("empty station_id")
            loc = GeoPoint(float(lat), float(lon))
            raw_elev = raw_elev.strip()
            elev = _finite(float(raw_elev)) if raw_elev else None
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: invalid station row ({exc})") from exc
        if sid in seen:
            raise DuplicateKeyError(f"{path}: duplicate station_id {sid!r}")
        seen.add(sid)
        stations.append(Station(sid, loc, elev))
    return stations


def read_station_series(path) -> StationSeries:
    """Read hourly station CO2 series, sorted by (station_id, time); gaps are
    fine, duplicates are not."""
    try:
        code_of, codes, times, co2s, total, malformed = _canonical_series(path)
    except _Refused:
        code_of, codes, times, co2s, total, malformed = _csv_series(path)
    # rank the ids with Python's string order: numpy's <U strings drop
    # trailing NULs
    names = sorted(code_of)
    rank = np.empty(len(names), dtype=np.int64)
    rank[[code_of[sid] for sid in names]] = np.arange(len(names))
    station = rank[np.frombuffer(codes, dtype=np.int64)]
    del codes
    order = np.lexsort((np.frombuffer(times, dtype=np.int64), station))
    # each unsorted column goes as soon as its sorted copy exists
    station = station[order]
    t = np.frombuffer(times, dtype=np.int64)[order]
    del times
    # equal keys keep file order, so each run's later rows are repeats
    repeats = np.flatnonzero((station[1:] == station[:-1]) & (t[1:] == t[:-1])) + 1
    if len(repeats):
        at = repeats[np.argmin(order[repeats])]  # the first repeat in file order
        raise DuplicateKeyError(f"{path}: duplicate observation {names[station[at]]!r} @ "
                                f"{_TextByMicros()[int(t[at])]}")
    _corrupt_gate(path, total, malformed, "series")
    co2 = np.frombuffer(co2s, dtype=np.float64)[order]
    del co2s, order
    return StationSeries(np.array(names, dtype=object)[station], t, co2)


_SERIES_RECORD = np.dtype([("station_id", "S32"), ("time_utc", "S21"), ("co2_ppm", "f8")])


def _canonical_series(path):
    """The fast path of read_station_series: (station id -> code, codes,
    times, CO2 values, rows, 0 malformed), in file order."""
    rows, blocks = _loadtxt_blocks(path, SERIES_COLUMNS, _SERIES_RECORD)
    # three buffers, so that each can go as soon as its sorted copy exists
    codes, times, co2s = (np.empty(rows, dtype=dtype) for dtype in (np.int64, np.int64, float))
    code_of: dict[str, int] = {}  # stripped station id -> code, in first-seen order
    for at, block in blocks:
        co2 = block["co2_ppm"]
        _require(np.isfinite(co2) & (co2 > 0.0))
        texts, inverse = np.unique(block["station_id"], return_inverse=True)
        sids = [sid.strip() for sid in _ids(texts)]
        _require(all(sids))
        codes[at] = np.array([code_of.setdefault(sid, len(code_of)) for sid in sids])[inverse]
        times[at] = _canonical_micros(block["time_utc"])
        co2s[at] = co2
    return code_of, codes, times, co2s, rows, 0


def _csv_series(path):
    """The csv.reader pass of read_station_series: (station id -> code,
    codes, times, CO2 values, rows, malformed rows), in file order."""
    codes, times, co2s = array("q"), array("q"), array("d")
    code_of: dict[str, int] = {}  # station id -> code, in first-seen order
    micros = _MicrosByText()
    total = malformed = 0
    for _, (sid, t_text, co2_text) in _rows(path, SERIES_COLUMNS):
        total += 1
        try:
            sid = sid.strip()
            if not sid:
                raise ValueError("empty station_id")
            t = micros[t_text]
            co2 = _finite(float(co2_text))
            if co2 <= 0.0:
                raise ValueError("co2 must be positive")
        except ValueError:
            malformed += 1
            continue
        codes.append(code_of.setdefault(sid, len(code_of)))
        times.append(t)
        co2s.append(co2)
    return code_of, codes, times, co2s, total, malformed


DEFAULT_WEATHER_WINDOW = (time(9, 0), time(15, 0))


def parse_weather_window(text: str) -> tuple[time, time]:
    """Parse the CLI form 'HH:MM-HH:MM'."""
    try:
        lo, hi = text.split("-")
        h1, m1 = (int(v) for v in lo.split(":"))
        h2, m2 = (int(v) for v in hi.split(":"))
        window = (time(h1, m1), time(h2, m2))
    except ValueError as exc:
        raise ValueError(f"expected 'HH:MM-HH:MM', got {text!r}") from exc
    if window[0] > window[1]:
        raise ValueError("weather window start must not be after its end")
    return window


def _day_micros(t: time) -> int:
    return ((t.hour * 60 + t.minute) * 60 + t.second) * 1_000_000 + t.microsecond


_DAY_MICROS = 86_400_000_000


def read_weather(path, window: tuple[time, time] = DEFAULT_WEATHER_WINDOW) -> WeatherArchive:
    """Read weather samples, dropping those outside the daily UTC window
    (default 09:00-15:00, both ends inclusive)."""
    lo, hi = map(_day_micros, window)
    try:
        *columns, dropped_window = _canonical_weather(path, lo, hi)
    except _Refused:
        *columns, dropped_window = _csv_weather(path, lo, hi)
    if dropped_window:
        log.warning(
            "%s: dropped %d weather sample(s) outside the %s-%s UTC window",
            path, dropped_window, window[0].strftime("%H:%M"), window[1].strftime("%H:%M"),
        )
    return WeatherArchive(*columns)


_WEATHER_RECORD = np.dtype([("time_utc", "S21"), ("latitude_deg", "f8"),
                            ("longitude_deg", "f8"), ("values", "f8", (9,))])


def _canonical_weather(path, lo: int, hi: int):
    """The fast path of read_weather: (times, latitudes, normalized
    longitudes, values, window drops) of the samples at day microseconds
    lo..hi."""
    rows, blocks = _loadtxt_blocks(path, WEATHER_COLUMNS, _WEATHER_RECORD)
    times, lats, lons = np.empty(rows, dtype=np.int64), np.empty(rows), np.empty(rows)
    values = np.empty((rows, 9))
    kept = 0
    for _, block in blocks:
        tcc = block["values"][:, -1]
        _require(_latitudes_ok(block["latitude_deg"]) & np.isfinite(block["longitude_deg"]))
        _require(np.isfinite(block["values"]).all(axis=1) & (tcc >= 0.0) & (tcc <= 1.0))
        t = _canonical_micros(block["time_utc"])
        keep = (lo <= t % _DAY_MICROS) & (t % _DAY_MICROS <= hi)
        block, t = block[keep], t[keep]
        at = slice(kept, kept + len(t))
        times[at], lats[at], lons[at], values[at] = (
            t, block["latitude_deg"], block["longitude_deg"], block["values"])
        kept += len(t)
    # longitudes normalized into [-180, 180) as GeoPoint does it
    lons = np.fmod(lons[:kept] + 180.0, 360.0)
    lons[lons < 0.0] += 360.0
    return times[:kept], lats[:kept], lons - 180.0, values[:kept], rows - kept


def _csv_weather(path, lo: int, hi: int):
    """The csv.reader pass of read_weather: (times, latitudes, normalized
    longitudes, values, window drops), after the corrupt gate."""
    times, lats, lons, values = array("q"), array("d"), array("d"), array("d")
    micros = _MicrosByText()
    total = malformed = dropped_window = 0
    for _, (t_text, lat, lon, *raw) in _rows(path, WEATHER_COLUMNS):
        total += 1
        try:
            t = micros[t_text]
            loc = GeoPoint(float(lat), float(lon))
            fields = list(map(float, raw))
            if not all(map(math.isfinite, fields)):
                raise ValueError("non-finite value")
            tcc = fields[-1]
            if not 0.0 <= tcc <= 1.0:
                raise ValueError(f"total_cloud_cover {tcc} outside [0, 1]")
        except ValueError:
            malformed += 1
            continue
        if not lo <= t % _DAY_MICROS <= hi:
            dropped_window += 1
            continue
        times.append(t)
        lats.append(loc.latitude)
        lons.append(loc.longitude)
        values.extend(fields)
    _corrupt_gate(path, total, malformed, "weather")
    return times, lats, lons, values, dropped_window


def _fmt(x: float) -> str:
    return repr(float(x))


def write_csv(path, columns: tuple[str, ...], rows) -> None:
    """Write a header row and then the rows as UTF-8 CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows(rows)


def write_soundings(records: Iterable[SoundingRecord], path) -> None:
    write_csv(path, SOUNDING_COLUMNS, (
        [format_timestamp(r.time), _fmt(r.location.latitude), _fmt(r.location.longitude),
         _fmt(r.xco2), _fmt(r.xco2_uncertainty), r.quality_flag]
        for r in records
    ))


def write_station_catalog(stations: Iterable[Station], path) -> None:
    write_csv(path, STATION_COLUMNS, (
        [s.station_id, _fmt(s.location.latitude), _fmt(s.location.longitude),
         "" if s.elevation_m is None else _fmt(s.elevation_m)]
        for s in stations
    ))


# rows formatted at a time by the column writers (the campaign files and
# dataset.csv), so that only one block's numbers and texts are alive
_WRITE_BLOCK_ROWS = 1024


def _in_blocks(n: int, rows_of):
    """The rows of `rows_of(block)` for consecutive row slices of range(n)."""
    for start in range(0, n, _WRITE_BLOCK_ROWS):
        yield from rows_of(slice(start, start + _WRITE_BLOCK_ROWS))


def write_station_series(series: StationSeries, path) -> None:
    """Write the series rows in their order."""
    texts = _TextByMicros()
    write_csv(path, SERIES_COLUMNS, _in_blocks(len(series), lambda block: zip(
        series.station_id[block].tolist(), map(texts.__getitem__, series.time[block].tolist()),
        map(repr, series.co2[block].tolist()),
    )))


def write_weather(archive: WeatherArchive, path) -> None:
    """Write the archive's samples in (time, latitude, longitude) order,
    equal keys in input order."""
    order = np.lexsort((archive.longitudes, archive.latitudes, archive.times))
    texts = _TextByMicros()

    def rows_of(block):
        rows = order[block]
        columns = (archive.latitudes[rows], archive.longitudes[rows], *archive.values[rows].T)
        return zip(map(texts.__getitem__, archive.times[rows].tolist()),
                   *(map(repr, c.tolist()) for c in columns))

    write_csv(path, WEATHER_COLUMNS, _in_blocks(len(order), rows_of))


__all__ = [
    "SoundingRecord",
    "Station",
    "StationSeries",
    "WeatherArchive",
    "read_soundings",
    "read_station_catalog",
    "read_station_series",
    "read_weather",
    "write_soundings",
    "write_station_catalog",
    "write_station_series",
    "write_weather",
    "parse_timestamp",
    "format_timestamp",
    "to_micros",
    "epoch_years",
    "parse_weather_window",
    "DEFAULT_WEATHER_WINDOW",
]
