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

The soundings, series and weather readers each state their row rules once,
as masks over the typed columns of blocks of at most _READ_BLOCK_ROWS rows
(see `_read`). np.loadtxt's C tokenizer reads the blocks of a clean
canonical file: the header is exactly the one above, the bytes are ASCII
with no quote, no blank line and no control character but the line ends
(see `_clean_rows`), timestamps read 'YYYY-MM-DDTHH:MM:SSZ' and np.loadtxt
converts every field without a warning (see `_loadtxt_blocks`). It refuses
any other file, even partway through, and csv.reader then reads the whole
file again, each row as csv.DictReader would read it (see `_csv_blocks`).
Either way the block loop counts the malformed rows, and the corrupt gate
and log lines follow the last block; both tokenizers give the same bits.
fusion.read_dataset takes the same fast path; its csv.reader pass raises a
line-numbered SchemaError instead of counting.

Soundings and stations are lists of records; the station series and the
weather are numpy columns (`StationSeries`, `WeatherArchive`). The column
writers format a block of rows at a time.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
import operator
import warnings
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
    """'YYYY-MM-DDTHH:MM:SSZ' in UTC, the year zero-padded to four digits
    (strftime's %Y does not pad it on every platform)."""
    utc = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return utc.isoformat(timespec="seconds") + "Z"


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


_LOADTXT_FIELDS = {"time": "S21", "float": "f8", "int": "i8", "id": "S32"}


def _loadtxt_blocks(path, columns: tuple[str, ...], kinds: tuple[str, ...]):
    """(rows, blocks) of a file with the header `columns`: its number of
    data rows, and an iterator of (rows read, typed columns) for consecutive
    blocks of at most _READ_BLOCK_ROWS rows, read by np.loadtxt.

    Each column comes out as its kind says: "time" as int64 UTC
    microseconds, "float" as float64, "int" as int64 and "id" as the block's
    distinct texts (a list of str) with each row's index into them.

    Raises _Refused, at once or while iterating, for a file that
    `_clean_rows` refuses and where np.loadtxt refuses a field or warns.
    A warning is a refusal because its meaning moves across numpy versions:
    numpy 1.23-1.26 read an int field of '0.0' as 0 with a
    DeprecationWarning, where int() and later numpy refuse it."""
    rows = _clean_rows(path, columns)
    dtype = np.dtype([(c, _LOADTXT_FIELDS[kind]) for c, kind in zip(columns, kinds)])
    typed = {"time": _canonical_micros, "id": _ids}

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
                yield want, [typed.get(kind, np.asarray)(block[c]) for c, kind in zip(columns, kinds)]

    return rows, blocks()


def _csv_blocks(path, columns: tuple[str, ...], kinds: tuple[str, ...]):
    """(rows, blocks) as `_loadtxt_blocks` gives them, read by csv.reader
    (see `_rows`), but rows is only at least the number of data rows: the
    file's line count. Ints come out as an object array of int, so that no
    flag changes its value. A row with a field that does not convert counts
    in its block's rows read, but is left out of its columns."""
    with open(path, "rb") as fh:  # CR, LF and CRLF each end a line
        chunks = iter(lambda: fh.read(_SCAN_BYTES) + fh.readline(), b"")
        lines = sum(c.count(b"\n") + c.count(b"\r") - c.count(b"\r\n") for c in chunks) + 1
    micros = _MicrosByText()
    converters = [{"time": micros.__getitem__, "float": float, "int": int, "id": str}[kind]
                  for kind in kinds]
    dtypes = {"time": np.int64, "float": np.float64, "int": object, "id": object}

    def converted(fields):
        try:
            return [to(text) for to, text in zip(converters, fields)]
        except ValueError:
            return None

    def blocks():
        parsed = _rows(path, columns)
        while block := [fields for _, fields in itertools.islice(parsed, _READ_BLOCK_ROWS)]:
            try:  # a column at a time, as long as every field converts
                values = [list(map(to, texts)) for to, texts in zip(converters, zip(*block))]
            except ValueError:
                rows = [row for row in map(converted, block) if row is not None]
                values = zip(*rows) if rows else [()] * len(kinds)
            typed = [np.array(v, dtypes[kind]) for v, kind in zip(values, kinds)]
            yield len(block), [_coded(c) if kind == "id" else c for c, kind in zip(typed, kinds)]

    return lines, blocks()


def _read(path, columns: tuple[str, ...], kinds: tuple[str, ...], consume):
    """consume(rows, blocks) of np.loadtxt's blocks, or of csv.reader's when
    np.loadtxt refuses the file, which it may do partway through: so consume
    changes nothing outside itself, and the readers gate and log only after
    this returns. rows is at least the number of data rows."""
    try:
        return consume(*_loadtxt_blocks(path, columns, kinds))
    except _Refused:
        return consume(*_csv_blocks(path, columns, kinds))


def _bytes(texts: np.ndarray) -> np.ndarray:
    """S fields as a (rows, width) uint8 matrix, NUL-padded."""
    return np.ascontiguousarray(texts).view(np.uint8).reshape(-1, texts.dtype.itemsize)


def _ids(texts: np.ndarray):
    """S32 fields as (their distinct texts as str, each row's index into
    them); _Refused for a full-width one, which np.loadtxt may have cut
    short. Only the distinct texts are decoded."""
    distinct, inverse = np.unique(texts, return_inverse=True)
    _require(_bytes(distinct)[:, -1] == 0)
    return distinct.astype(str).tolist(), inverse


def _coded(ids: np.ndarray):
    """An object array of str as `_ids` gives S32 fields, the distinct
    texts in first-seen order."""
    code_of: dict[str, int] = {}
    of_row = np.fromiter((code_of.setdefault(i, len(code_of)) for i in ids), np.int64, len(ids))
    return list(code_of), of_row


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

    def consume(_, blocks):
        records = []
        total = valid = 0
        for read, (t, lat, lon, xco2, unc, flag) in blocks:
            ok = (_latitudes_ok(lat) & np.isfinite(lon) & (XCO2_PLAUSIBLE_PPM[0] < xco2)
                  & (xco2 < XCO2_PLAUSIBLE_PPM[1]) & np.isfinite(unc) & (unc >= 0.0))
            total += read
            valid += np.count_nonzero(ok)
            if quality_filter:
                ok &= flag == 0
            when = (_EPOCH + micros * _MICROSECOND for micros in t[ok].tolist())
            points = map(GeoPoint, lat[ok].tolist(), lon[ok].tolist())
            records += map(SoundingRecord, when, points, *(c[ok].tolist() for c in (xco2, unc, flag)))
        return records, total, valid

    records, total, valid = _read(path, SOUNDING_COLUMNS, ("time",) + ("float",) * 4 + ("int",),
                                  consume)
    _corrupt_gate(path, total, total - valid, "sounding")
    if valid > len(records):
        log.info("%s: dropped %d sounding(s) failing the quality flag", path, valid - len(records))
    records.sort(key=lambda r: r.time)
    return records


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

    def consume(rows, blocks):
        # three columns, so that each can go as soon as its sorted copy exists
        codes, times, co2s = np.empty(rows, np.int64), np.empty(rows, np.int64), np.empty(rows)
        code_of: dict[str, int] = {}  # stripped station id -> code, in first-seen order
        total = kept = 0
        for read, ((texts, of_row), t, co2) in blocks:
            sids = (text.strip() for text in texts)  # -1 codes an id blank once stripped
            code = np.array([code_of.setdefault(sid, len(code_of)) if sid else -1 for sid in sids],
                            dtype=np.int64)[of_row]
            ok = (code >= 0) & np.isfinite(co2) & (co2 > 0.0)
            at = slice(kept, kept + np.count_nonzero(ok))
            codes[at], times[at], co2s[at] = code[ok], t[ok], co2[ok]
            total += read
            kept = at.stop
        return code_of, codes[:kept], times[:kept], co2s[:kept], total

    code_of, codes, times, co2s, total = _read(path, SERIES_COLUMNS, ("id", "time", "float"),
                                               consume)
    # rank the ids with Python's string order: numpy's <U strings drop
    # trailing NULs
    names = sorted(code_of)
    rank = np.empty(len(names), dtype=np.int64)
    rank[[code_of[sid] for sid in names]] = np.arange(len(names))
    station = rank[codes]
    del codes
    order = np.lexsort((times, station))
    # each unsorted column goes as soon as its sorted copy exists
    station = station[order]
    t = times[order]
    del times
    # equal keys keep file order, so each run's later rows are repeats
    repeats = np.flatnonzero((station[1:] == station[:-1]) & (t[1:] == t[:-1])) + 1
    if len(repeats):
        at = repeats[np.argmin(order[repeats])]  # the first repeat in file order
        raise DuplicateKeyError(f"{path}: duplicate observation {names[station[at]]!r} @ "
                                f"{_TextByMicros()[int(t[at])]}")
    _corrupt_gate(path, total, total - len(t), "series")
    co2 = co2s[order]
    del co2s, order
    return StationSeries(np.array(names, dtype=object)[station], t, co2)


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

    def consume(rows, blocks):
        times, lats, lons = np.empty(rows, np.int64), np.empty(rows), np.empty(rows)
        values = np.empty((rows, 9))
        total = valid = kept = 0
        for read, (t, lat, lon, *fields) in blocks:
            fields = np.column_stack(fields)
            tcc = fields[:, -1]
            ok = (_latitudes_ok(lat) & np.isfinite(lon) & np.isfinite(fields).all(axis=1)
                  & (tcc >= 0.0) & (tcc <= 1.0))
            total += read
            valid += np.count_nonzero(ok)
            ok &= (lo <= t % _DAY_MICROS) & (t % _DAY_MICROS <= hi)
            at = slice(kept, kept + np.count_nonzero(ok))
            times[at], lats[at], lons[at], values[at] = t[ok], lat[ok], lon[ok], fields[ok]
            kept = at.stop
        return (times[:kept], lats[:kept], lons[:kept], values[:kept]), total, valid

    (times, lats, lons, values), total, valid = _read(
        path, WEATHER_COLUMNS, ("time",) + ("float",) * 11, consume)
    _corrupt_gate(path, total, total - valid, "weather")
    if valid > len(times):
        log.warning(
            "%s: dropped %d weather sample(s) outside the %s-%s UTC window",
            path, valid - len(times), window[0].strftime("%H:%M"), window[1].strftime("%H:%M"),
        )
    # longitudes normalized into [-180, 180) as GeoPoint does it, in place:
    # a copy would stay alive next to the archive's sorted columns
    lons += 180.0
    np.fmod(lons, 360.0, out=lons)
    lons[lons < 0.0] += 360.0
    lons -= 180.0
    return WeatherArchive(times, lats, lons, values)


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
