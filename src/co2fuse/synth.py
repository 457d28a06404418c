"""Synthetic campaigns with a known generative law, for end-to-end checks.

The ground truth is a smooth deterministic field: a base level plus a linear
trend, a one-year seasonal cycle, low-frequency spatial harmonics and a term
coupled to the (equally deterministic) weather law. Station series sample
the field at fixed locations with Gaussian noise; satellite transects sample
it along narrow strips with an additional smooth column offset, mimicking
the column-versus-ground discrepancy that the context features are supposed
to explain away. Everything is generated from one seeded RNG, so a campaign
is byte-reproducible. The station catalog, the series and the weather are
built as columns: one array per catalog column, one array per station, and
one evaluation of the weather law over the whole node grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .geo import BoundingBox, GeoPoint, wrap_longitudes
from .ingest import (
    SoundingRecord,
    StationCatalog,
    StationSeries,
    WeatherArchive,
    epoch_years,
    to_micros,
    write_soundings,
    write_station_catalog,
    write_station_series,
    write_weather,
)

DEFAULT_BBOX = BoundingBox(south=52.0, west=8.0, north=58.0, east=16.0)
_HOUR_MICROS = 3_600_000_000


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    bbox: BoundingBox = DEFAULT_BBOX
    n_stations: int = 16
    n_transects: int = 160
    soundings_per_transect: int = 150
    start: datetime = datetime(2019, 1, 1, tzinfo=timezone.utc)
    days: int = 365
    noise_std: float = 1.0
    base_ppm: float = 415.0
    trend_ppm_per_year: float = 2.4
    seasonal_amp_ppm: float = 8.0
    seasonal_phase: float = -1.7
    spatial_amp_ppm: float = 2.0
    offset_amp_ppm: float = 4.0
    coupling_t2m: float = 0.35  # ppm per K of 2m-temperature anomaly
    coupling_u10: float = 0.3  # ppm per m/s of zonal wind

    def __post_init__(self):
        if self.n_stations < 1 or self.n_transects < 1 or self.soundings_per_transect < 1:
            raise ValueError("station/transect counts must be >= 1")
        if not self.noise_std >= 0.0:
            raise ValueError("noise_std must be >= 0")
        if self.days < 1:
            raise ValueError("days must be >= 1")


class Campaign(NamedTuple):
    soundings: list[SoundingRecord]
    catalog: StationCatalog
    series: StationSeries
    archive: WeatherArchive


def weather_law(cfg: SynthConfig, lat, lon, year_frac):
    """Deterministic weather fields at (lat, lon) and fractional year phase.

    Accepts scalars or numpy arrays; returns the fields in the weather CSV
    column order (u10 .. total_cloud_cover).
    """
    lat_r = np.radians(lat)
    lon_r = np.radians(lon)
    season = 2.0 * np.pi * year_frac
    t2m = 288.0 + 8.0 * np.sin(season - 1.9) + 6.0 * np.cos(2.0 * lat_r)
    skin = t2m + 1.5 + 0.5 * np.sin(season)
    u10 = 3.0 * np.sin(2.0 * lon_r + season) + 1.0
    v10 = 2.0 * np.cos(3.0 * lat_r - season)
    sp = 101325.0 - 600.0 * np.sin(3.0 * lat_r) + 300.0 * np.cos(2.0 * lon_r + season)
    vint = 6.5e6 + 5.0e4 * np.sin(season) + 2.0e4 * np.cos(2.0 * lat_r)
    tcwv = 18.0 + 9.0 * np.sin(season - 1.2) * np.cos(lat_r) + 4.0 * np.cos(lon_r)
    cbh = 1400.0 + 500.0 * np.sin(2.0 * lon_r + season) + 300.0 * np.cos(4.0 * lat_r)
    tcc = 0.5 + 0.35 * np.sin(5.0 * lat_r + 2.0 * season) + 0.1 * np.cos(3.0 * lon_r)
    return u10, v10, sp, t2m, skin, vint, tcwv, cbh, tcc


def _field_from_parts(cfg: SynthConfig, lat, lon, years):
    t0 = float(cfg.start.year)
    year_frac = np.asarray(years, dtype=np.float64) % 1.0
    lat_r = np.radians(lat)
    lon_r = np.radians(lon)
    u10, _, _, t2m, *_ = weather_law(cfg, lat, lon, year_frac)
    return (
        cfg.base_ppm
        + cfg.trend_ppm_per_year * (np.asarray(years) - t0)
        + cfg.seasonal_amp_ppm * np.sin(2.0 * np.pi * year_frac + cfg.seasonal_phase)
        + cfg.spatial_amp_ppm * np.sin(6.0 * lat_r) * np.cos(4.0 * lon_r)
        + cfg.coupling_t2m * (t2m - 288.0)
        + cfg.coupling_u10 * u10
    )


def _column_offset(cfg: SynthConfig, lat, lon, year_frac):
    """Smooth column-vs-ground discrepancy added to satellite retrievals.

    Mostly seasonal plus a water-vapor-tracking component (column retrievals
    really do diverge from ground air with the moisture burden), plus a small
    purely spatial residual."""
    lat_r = np.radians(lat)
    lon_r = np.radians(lon)
    tcwv = weather_law(cfg, lat, lon, year_frac)[6]
    return cfg.offset_amp_ppm * (
        np.sin(2.0 * np.pi * year_frac + 1.0)
        + 0.3 * (tcwv - 18.0) / 9.0
        + 0.15 * np.sin(3.0 * lat_r + 2.0 * lon_r)
    )


def generate_campaign(cfg: SynthConfig) -> Campaign:
    """Stations, hourly series, satellite transects and a 1-degree weather grid."""
    rng = np.random.default_rng(cfg.seed)
    bbox = cfg.bbox

    # station network on a jittered lattice: covers the box evenly (as a real
    # network would aim to) and keeps every station off the edges
    lat_margin = min(0.3, 0.25 * (bbox.north - bbox.south))
    lon_margin = min(0.3, 0.25 * (bbox.east - bbox.west))
    south, north = bbox.south + lat_margin, bbox.north - lat_margin
    west, east = bbox.west + lon_margin, bbox.east - lon_margin
    ncols = max(1, int(math.ceil(math.sqrt(cfg.n_stations))))
    nrows = max(1, int(math.ceil(cfg.n_stations / ncols)))
    cell_lat = (north - south) / nrows
    cell_lon = (east - west) / ncols
    r, c = np.divmod(np.arange(cfg.n_stations), ncols)
    # each station draws its latitude, longitude and elevation jitter in turn
    jitter = rng.uniform((-0.25, -0.25, 0.0), (0.25, 0.25, 500.0), size=(cfg.n_stations, 3))
    catalog = StationCatalog(
        np.array([f"ST{i:02d}" for i in range(cfg.n_stations)], dtype=object),
        south + (r + 0.5) * cell_lat + jitter[:, 0] * cell_lat,
        wrap_longitudes(west + (c + 0.5) * cell_lon + jitter[:, 1] * cell_lon),
        np.array([round(e, 1) for e in jitter[:, 2].tolist()]),
    )

    # hourly ground series over the whole period, station by station
    n_hours = cfg.days * 24
    hour_micros = to_micros([cfg.start]) + np.arange(n_hours) * _HOUR_MICROS
    hour_years = epoch_years(hour_micros)
    co2 = [
        _field_from_parts(cfg, lat, lon, hour_years) + rng.normal(0.0, cfg.noise_std, size=n_hours)
        for lat, lon in zip(catalog.latitude, catalog.longitude)
    ]
    series = StationSeries(np.repeat(catalog.station_id, n_hours),
                           np.tile(hour_micros, len(catalog)), np.concatenate(co2))

    # satellite transects: narrow tilted strips passing near a station
    soundings = []
    transect_days = []
    for j in range(cfg.n_transects):
        st_lat, st_lon = catalog.latitude[j % cfg.n_stations], catalog.longitude[j % cfg.n_stations]
        day = int(rng.integers(0, cfg.days))
        transect_days.append(day)
        minute = int(rng.integers(11 * 60, 14 * 60))
        t0 = cfg.start + timedelta(days=day, minutes=minute)
        center_lon = st_lon + rng.uniform(-0.15, 0.15)
        center_lon = min(max(center_lon, bbox.west + 0.2), bbox.east - 0.2)
        tilt = rng.uniform(-0.05, 0.05)
        lat_lo = max(bbox.south + 0.02, st_lat - 1.5)
        lat_hi = min(bbox.north - 0.02, st_lat + 1.5)
        n_per = cfg.soundings_per_transect
        lats = np.linspace(lat_lo, lat_hi, n_per)
        # cross-track jitter approximating the ~10 km swath width
        jitter = rng.uniform(-0.05, 0.05, size=n_per)
        noise = rng.normal(0.0, cfg.noise_std, size=n_per)
        uncs = rng.uniform(0.3, 0.8, size=n_per)
        flags = rng.random(size=n_per) < 0.03
        lons = center_lon + tilt * (lats - st_lat) + jitter
        times = [t0 + timedelta(seconds=i) for i in range(n_per)]
        years = epoch_years(to_micros(times))
        xco2 = (
            _field_from_parts(cfg, lats, lons, years)
            + _column_offset(cfg, lats, lons, years % 1.0)
            + noise
        )
        soundings += [
            SoundingRecord(t, GeoPoint(lat, lon), x, unc, int(flag))
            for t, lat, lon, x, unc, flag in zip(times, lats.tolist(), lons.tolist(),
                                                 xco2.tolist(), uncs.tolist(), flags.tolist())
            if bbox.west <= lon <= bbox.east
        ]

    # weather on the integer-degree lattice, three samples per transect day,
    # in (time, lat, lon) order; the law sees a node at longitude 180, which
    # is stored as -180 (wrap_longitudes normalizes a copy of the lattice)
    days = np.array(sorted(set(transect_days)))
    hours = (24 * days[:, None] + [9, 12, 15]).ravel()
    lats = np.arange(math.ceil(bbox.south), math.floor(bbox.north) + 1, dtype=np.float64)
    lons = np.arange(math.ceil(bbox.west), math.floor(bbox.east) + 1, dtype=np.float64)
    h, lat, k = (a.ravel() for a in np.meshgrid(hours, lats, np.arange(len(lons)), indexing="ij"))
    t = to_micros([cfg.start]) + h * _HOUR_MICROS
    fields = weather_law(cfg, lat, lons[k], epoch_years(t) % 1.0)
    archive = WeatherArchive(t, lat, wrap_longitudes(lons.copy())[k], np.stack(fields, axis=1))
    return Campaign(soundings, catalog, series, archive)


def write_campaign(campaign: Campaign, out_dir) -> dict[str, Path]:
    """Write the four ingest-schema CSVs into a directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "soundings": out / "soundings.csv",
        "stations": out / "stations.csv",
        "series": out / "station_series.csv",
        "weather": out / "weather.csv",
    }
    write_soundings(campaign.soundings, paths["soundings"])
    write_station_catalog(campaign.catalog, paths["stations"])
    write_station_series(campaign.series, paths["series"])
    write_weather(campaign.archive, paths["weather"])
    return paths
