"""Readers and writers for the three input archives.

All inputs are UTF-8 CSV with a header row and RFC3339 timestamps:

- soundings.csv:       time_utc,latitude_deg,longitude_deg,xco2_ppm,xco2_uncertainty_ppm,quality_flag
- stations.csv:        station_id,latitude_deg,longitude_deg,elevation_m
- station_series.csv:  station_id,time_utc,co2_ppm
- weather.csv:         time_utc,latitude_deg,longitude_deg,u10_mps,v10_mps,surface_pressure_pa,
                       t2m_k,skin_temperature_k,vint_temperature,tcwv_kgm2,cloud_base_height_m,
                       total_cloud_cover

Readers take one csv.reader pass and never crash on arbitrary bytes: bad
rows are counted and skipped (logged), and files that are mostly garbage
raise CorruptInputError. The station catalog is the exception: it is small
and foundational, so any invalid row there is a SchemaError. Each row is read
as a tuple of its named fields, as csv.DictReader would read them (see
`_rows`); the series and weather readers parse each distinct timestamp text
once and append to typed arrays, so no per-row object outlives its row.

Soundings and stations are lists of records; the station series and the
weather are numpy columns (`StationSeries`, `WeatherArchive`). The column
writers format a block of rows at a time.
"""

from __future__ import annotations

import csv
import logging
import math
import operator
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
    if dropped_quality:
        log.info("%s: dropped %d sounding(s) failing the quality flag", path, dropped_quality)
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
    del micros
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
    times, lats, lons, values = array("q"), array("d"), array("d"), array("d")
    micros = _MicrosByText()
    lo, hi = map(_day_micros, window)
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
    if dropped_window:
        log.warning(
            "%s: dropped %d weather sample(s) outside the %s-%s UTC window",
            path, dropped_window, window[0].strftime("%H:%M"), window[1].strftime("%H:%M"),
        )
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
