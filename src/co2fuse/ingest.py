"""Readers and writers for the three input archives.

All inputs are UTF-8 CSV with a header row and RFC3339 timestamps:

- soundings.csv:       time_utc,latitude_deg,longitude_deg,xco2_ppm,xco2_uncertainty_ppm,quality_flag
- stations.csv:        station_id,latitude_deg,longitude_deg,elevation_m
- station_series.csv:  station_id,time_utc,co2_ppm
- weather.csv:         time_utc,latitude_deg,longitude_deg,u10_mps,v10_mps,surface_pressure_pa,
                       t2m_k,skin_temperature_k,vint_temperature,tcwv_kgm2,cloud_base_height_m,
                       total_cloud_cover

Readers are single-pass and never crash on arbitrary bytes: bad rows are
counted and skipped (logged), and files that are mostly garbage raise
CorruptInputError. The station catalog is the exception: it is small and
foundational, so any invalid row there is a SchemaError.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from datetime import datetime, time, timezone
from typing import Iterable, Optional

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


@dataclass(frozen=True)
class SoundingRecord:
    """One satellite xCO2 retrieval."""

    time: datetime
    location: GeoPoint
    xco2: float
    xco2_uncertainty: float
    quality_flag: int


@dataclass(frozen=True)
class Station:
    """A ground station; station_id is unique within a catalog."""

    station_id: str
    location: GeoPoint
    elevation_m: Optional[float] = None


@dataclass(frozen=True)
class StationObservation:
    """One hourly ground-level CO2 average (ppm)."""

    station_id: str
    time: datetime
    co2: float


@dataclass(frozen=True)
class WeatherSample:
    """Weather fields at one grid node and time.

    vint_temperature is passed through in source units (the upstream archive
    does not document them).
    """

    time: datetime
    location: GeoPoint
    u10: float
    v10: float
    surface_pressure: float
    t2m: float
    skin_temperature: float
    vint_temperature: float
    tcwv: float
    cloud_base_height: float
    total_cloud_cover: float


class WeatherArchive:
    """Weather samples grouped by grid node, each node's series time-sorted."""

    def __init__(self, samples: Iterable[WeatherSample]):
        import numpy as np

        self.samples = sorted(
            samples, key=lambda s: (s.time, s.location.latitude, s.location.longitude)
        )
        by_node: dict[tuple[float, float], list[WeatherSample]] = {}
        for s in self.samples:
            by_node.setdefault((s.location.latitude, s.location.longitude), []).append(s)
        for series in by_node.values():
            series.sort(key=lambda s: s.time)
        self._by_node = by_node
        self._node_keys = sorted(by_node)
        self.node_latitudes = np.array([k[0] for k in self._node_keys], dtype=np.float64)
        self.node_longitudes = np.array([k[1] for k in self._node_keys], dtype=np.float64)
        self._node_times = [
            [s.time for s in by_node[k]] for k in self._node_keys
        ]

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def nodes(self) -> list[GeoPoint]:
        return [GeoPoint(lat, lon) for lat, lon in self._node_keys]

    def node_series(self, index: int) -> tuple[list, list[WeatherSample]]:
        """Sorted times and samples of node `index` (order of `nodes`)."""
        return self._node_times[index], self._by_node[self._node_keys[index]]


def parse_timestamp(text: str) -> datetime:
    """Parse an RFC3339 timestamp into an aware UTC datetime, seconds precision."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        raise ValueError(f"timestamp {text!r} has no UTC offset")
    return dt.astimezone(timezone.utc).replace(microsecond=0)


def format_timestamp(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def to_epoch_years(dt: datetime) -> float:
    """Continuous calendar time, e.g. 2015.37 for mid-May 2015."""
    dt = dt.astimezone(timezone.utc)
    year_start = datetime(dt.year, 1, 1, tzinfo=timezone.utc)
    year_end = datetime(dt.year + 1, 1, 1, tzinfo=timezone.utc)
    frac = (dt - year_start) / (year_end - year_start)
    return dt.year + frac


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise ValueError("non-finite value")
    return x


def _rows(path, columns: tuple[str, ...]):
    """Yield raw csv rows as dicts; header problems raise SchemaError."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise SchemaError(f"{path}: empty file, header row required")
            missing = [c for c in columns if c not in reader.fieldnames]
            if missing:
                raise SchemaError(f"{path}: missing required columns {missing}")
            yield from reader
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not valid UTF-8 ({exc})") from exc
    except csv.Error as exc:
        raise SchemaError(f"{path}: CSV parse failure ({exc})") from exc


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
    for row in _rows(path, SOUNDING_COLUMNS):
        total += 1
        try:
            t = parse_timestamp(row["time_utc"])
            loc = GeoPoint(float(row["latitude_deg"]), float(row["longitude_deg"]))
            xco2 = _finite(float(row["xco2_ppm"]))
            unc = _finite(float(row["xco2_uncertainty_ppm"]))
            flag = int(row["quality_flag"])
            if not (XCO2_PLAUSIBLE_PPM[0] < xco2 < XCO2_PLAUSIBLE_PPM[1]):
                raise ValueError(f"xco2 {xco2} outside plausibility band")
            if unc < 0.0:
                raise ValueError("negative uncertainty")
        except (ValueError, TypeError, KeyError):
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
    for lineno, row in enumerate(_rows(path, STATION_COLUMNS), start=2):
        try:
            sid = row["station_id"].strip()
            if not sid:
                raise ValueError("empty station_id")
            loc = GeoPoint(float(row["latitude_deg"]), float(row["longitude_deg"]))
            raw_elev = (row.get("elevation_m") or "").strip()
            elev = _finite(float(raw_elev)) if raw_elev else None
        except (ValueError, TypeError, KeyError) as exc:
            raise SchemaError(f"{path}:{lineno}: invalid station row ({exc})") from exc
        if sid in seen:
            raise DuplicateKeyError(f"{path}: duplicate station_id {sid!r}")
        seen.add(sid)
        stations.append(Station(sid, loc, elev))
    return stations


def read_station_series(path) -> list[StationObservation]:
    """Read hourly station CO2 series; gaps are fine, duplicates are not."""
    obs = []
    seen: set[tuple[str, datetime]] = set()
    total = malformed = 0
    for row in _rows(path, SERIES_COLUMNS):
        total += 1
        try:
            sid = row["station_id"].strip()
            if not sid:
                raise ValueError("empty station_id")
            t = parse_timestamp(row["time_utc"])
            co2 = _finite(float(row["co2_ppm"]))
            if co2 <= 0.0:
                raise ValueError("co2 must be positive")
        except (ValueError, TypeError, KeyError):
            malformed += 1
            continue
        key = (sid, t)
        if key in seen:
            raise DuplicateKeyError(f"{path}: duplicate observation {sid!r} @ {format_timestamp(t)}")
        seen.add(key)
        obs.append(StationObservation(sid, t, co2))
    _corrupt_gate(path, total, malformed, "series")
    obs.sort(key=lambda o: (o.station_id, o.time))
    return obs


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


def read_weather(path, window: tuple[time, time] = DEFAULT_WEATHER_WINDOW) -> WeatherArchive:
    """Read weather samples, dropping those outside the daily UTC window
    (default 09:00-15:00, both ends inclusive)."""
    samples = []
    total = malformed = dropped_window = 0
    for row in _rows(path, WEATHER_COLUMNS):
        total += 1
        try:
            t = parse_timestamp(row["time_utc"])
            loc = GeoPoint(float(row["latitude_deg"]), float(row["longitude_deg"]))
            fields = [
                _finite(float(row[c]))
                for c in WEATHER_COLUMNS[3:]
            ]
            tcc = fields[-1]
            if not 0.0 <= tcc <= 1.0:
                raise ValueError(f"total_cloud_cover {tcc} outside [0, 1]")
        except (ValueError, TypeError, KeyError):
            malformed += 1
            continue
        if not window[0] <= t.time() <= window[1]:
            dropped_window += 1
            continue
        samples.append(WeatherSample(t, loc, *fields))
    _corrupt_gate(path, total, malformed, "weather")
    if dropped_window:
        log.warning(
            "%s: dropped %d weather sample(s) outside the %s-%s UTC window",
            path, dropped_window, window[0].strftime("%H:%M"), window[1].strftime("%H:%M"),
        )
    return WeatherArchive(samples)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_soundings(records: Iterable[SoundingRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SOUNDING_COLUMNS)
        for r in records:
            w.writerow(
                [
                    format_timestamp(r.time),
                    _fmt(r.location.latitude),
                    _fmt(r.location.longitude),
                    _fmt(r.xco2),
                    _fmt(r.xco2_uncertainty),
                    r.quality_flag,
                ]
            )


def write_station_catalog(stations: Iterable[Station], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(STATION_COLUMNS)
        for s in stations:
            w.writerow(
                [
                    s.station_id,
                    _fmt(s.location.latitude),
                    _fmt(s.location.longitude),
                    "" if s.elevation_m is None else _fmt(s.elevation_m),
                ]
            )


def write_station_series(obs: Iterable[StationObservation], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SERIES_COLUMNS)
        for o in obs:
            w.writerow([o.station_id, format_timestamp(o.time), _fmt(o.co2)])


def write_weather(samples: Iterable[WeatherSample], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(WEATHER_COLUMNS)
        for s in samples:
            w.writerow(
                [
                    format_timestamp(s.time),
                    _fmt(s.location.latitude),
                    _fmt(s.location.longitude),
                    _fmt(s.u10),
                    _fmt(s.v10),
                    _fmt(s.surface_pressure),
                    _fmt(s.t2m),
                    _fmt(s.skin_temperature),
                    _fmt(s.vint_temperature),
                    _fmt(s.tcwv),
                    _fmt(s.cloud_base_height),
                    _fmt(s.total_cloud_cover),
                ]
            )


__all__ = [
    "SoundingRecord",
    "Station",
    "StationObservation",
    "WeatherSample",
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
    "to_epoch_years",
    "parse_weather_window",
    "DEFAULT_WEATHER_WINDOW",
]
