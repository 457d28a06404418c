"""Sounding-to-station matching and supervised dataset assembly.

Each satellite sounding is matched to the spatially nearest station that has
at least one observation within the time window; the matched pair plus the
nearest weather sample becomes one 14-feature labeled sample. Train/test
splits are by whole stations to prevent spatial leakage.
"""

from __future__ import annotations

import bisect
import csv
import logging
import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import (
    DegenerateFeatureError,
    EmptyDatasetError,
    NoDataError,
    StaleWeatherError,
)
from .geo import EARTH_RADIUS_KM, geodesic_km_many
from .ingest import (
    SoundingRecord,
    Station,
    StationObservation,
    WeatherArchive,
    WeatherSample,
    format_timestamp,
    parse_timestamp,
    to_epoch_years,
)

log = logging.getLogger(__name__)

# canonical model input, order frozen in the model file format
FEATURE_NAMES = (
    "xco2",
    "xco2_uncertainty",
    "latitude",
    "longitude",
    "time_epoch_years",
    "u10",
    "v10",
    "surface_pressure",
    "t2m",
    "skin_temperature",
    "vint_temperature",
    "tcwv",
    "cloud_base_height",
    "total_cloud_cover",
)
N_FEATURES = len(FEATURE_NAMES)

# weather joins farther than 2 degrees of arc or 6 hours are refused
STALE_WEATHER_KM = EARTH_RADIUS_KM * math.radians(2.0)
STALE_WEATHER_HOURS = 6.0


@dataclass(frozen=True)
class MatchConfig:
    max_distance_km: float = 25.0
    max_time_minutes: float = 60.0

    def __post_init__(self):
        if self.max_distance_km <= 0 or self.max_time_minutes <= 0:
            raise ValueError("match thresholds must be positive")


@dataclass(frozen=True)
class LabeledSample:
    """One matched sounding: 14 features, station CO2 label, provenance."""

    features: np.ndarray
    label: float
    station_id: str
    sounding_time: datetime
    station_distance_km: float

    def __post_init__(self):
        if self.features.shape != (N_FEATURES,):
            raise ValueError(f"feature vector must have exactly {N_FEATURES} entries")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("feature vector must be finite")


@dataclass(frozen=True)
class NormStats:
    """Per-feature mean and population standard deviation (training data only)."""

    mean: np.ndarray
    std: np.ndarray


class SeriesIndex:
    """Station observations keyed by station id, times sorted for bisection."""

    def __init__(self, series: list[StationObservation]):
        by_station: dict[str, list[StationObservation]] = {}
        for obs in series:
            by_station.setdefault(obs.station_id, []).append(obs)
        self._times: dict[str, list[datetime]] = {}
        self._obs: dict[str, list[StationObservation]] = {}
        for sid, obs_list in by_station.items():
            obs_list.sort(key=lambda o: o.time)
            self._obs[sid] = obs_list
            self._times[sid] = [o.time for o in obs_list]

    def nearest_in_window(
        self, station_id: str, when: datetime, max_minutes: float
    ) -> StationObservation | None:
        """Temporally nearest observation within +/- max_minutes; ties to the
        earlier timestamp."""
        times = self._times.get(station_id)
        if not times:
            return None
        i = bisect.bisect_left(times, when)
        best = None
        for j in (i - 1, i):
            if 0 <= j < len(times):
                dt = abs((times[j] - when).total_seconds())
                if dt <= max_minutes * 60.0:
                    key = (dt, times[j])
                    if best is None or key < best[0]:
                        best = (key, self._obs[station_id][j])
        return None if best is None else best[1]


def _match_against(
    sounding: SoundingRecord,
    distances: np.ndarray,
    station_ids: list[str],
    index: SeriesIndex,
    cfg: MatchConfig,
) -> tuple[str, StationObservation, float] | None:
    """Walk stations in (distance, station_id) order; first in-window hit wins."""
    within = np.nonzero(distances <= cfg.max_distance_km)[0]
    for j in sorted(within, key=lambda j: (distances[j], station_ids[j])):
        obs = index.nearest_in_window(station_ids[j], sounding.time, cfg.max_time_minutes)
        if obs is not None:
            return station_ids[j], obs, float(distances[j])
    return None


def match_sounding(
    sounding: SoundingRecord,
    catalog: list[Station],
    series: list[StationObservation] | SeriesIndex,
    cfg: MatchConfig = MatchConfig(),
) -> tuple[str, StationObservation, float] | None:
    """Match one sounding to the spatially nearest qualifying station.

    A station qualifies if it is within cfg.max_distance_km and has at least
    one observation within +/- cfg.max_time_minutes of the sounding time.
    Distance ties break on station_id. Returns None when nothing qualifies.
    """
    index = series if isinstance(series, SeriesIndex) else SeriesIndex(series)
    distances = geodesic_km_many(
        sounding.location,
        np.array([s.location.latitude for s in catalog]),
        np.array([s.location.longitude for s in catalog]),
    )
    return _match_against(
        sounding, distances, [s.station_id for s in catalog], index, cfg
    )


def nearest_weather(sounding: SoundingRecord, archive: WeatherArchive) -> WeatherSample:
    """Weather sample minimizing (geodesic distance, |dt|) lexicographically.

    Distance ties between nodes resolve on |dt|, then the earlier timestamp.
    Raises NoDataError for an empty archive and StaleWeatherError when the
    winner is farther than 2 degrees of arc or more than 6 hours away.
    """
    if len(archive) == 0:
        raise NoDataError("weather archive is empty")
    distances = geodesic_km_many(
        sounding.location, archive.node_latitudes, archive.node_longitudes
    )
    dmin = float(distances.min())
    best = None
    for j in np.nonzero(distances == dmin)[0]:
        times, node_series = archive.node_series(int(j))
        i = bisect.bisect_left(times, sounding.time)
        for idx in (i - 1, i):
            if 0 <= idx < len(times):
                dt = abs((times[idx] - sounding.time).total_seconds())
                key = (dt, times[idx])
                if best is None or key < best[0]:
                    best = (key, node_series[idx])
    (dt, _), sample = best
    if dmin > STALE_WEATHER_KM or dt > STALE_WEATHER_HOURS * 3600.0:
        raise StaleWeatherError(
            f"nearest weather sample is {dmin:.1f} km / {dt / 3600.0:.1f} h away "
            f"(limits {STALE_WEATHER_KM:.1f} km, {STALE_WEATHER_HOURS:.0f} h)"
        )
    return sample


def assemble_features(sounding: SoundingRecord, weather: WeatherSample) -> np.ndarray:
    """Build the canonical 14-feature vector for one sounding."""
    return np.array(
        [
            sounding.xco2,
            sounding.xco2_uncertainty,
            sounding.location.latitude,
            sounding.location.longitude,
            to_epoch_years(sounding.time),
            weather.u10,
            weather.v10,
            weather.surface_pressure,
            weather.t2m,
            weather.skin_temperature,
            weather.vint_temperature,
            weather.tcwv,
            weather.cloud_base_height,
            weather.total_cloud_cover,
        ],
        dtype=np.float64,
    )


def build_dataset(
    soundings: list[SoundingRecord],
    catalog: list[Station],
    series: list[StationObservation],
    archive: WeatherArchive,
    cfg: MatchConfig = MatchConfig(),
) -> list[LabeledSample]:
    """One labeled sample per successfully matched sounding.

    Soundings without a qualifying station, or whose nearest weather is stale,
    are skipped and counted. Output is deterministically ordered by
    (sounding time, station_id). Raises EmptyDatasetError on zero matches.
    """
    index = SeriesIndex(series)
    station_lats = np.array([s.location.latitude for s in catalog])
    station_lons = np.array([s.location.longitude for s in catalog])
    station_ids = [s.station_id for s in catalog]
    samples = []
    unmatched = stale = 0
    for s in soundings:
        distances = geodesic_km_many(s.location, station_lats, station_lons)
        hit = _match_against(s, distances, station_ids, index, cfg)
        if hit is None:
            unmatched += 1
            continue
        station_id, obs, dist = hit
        try:
            weather = nearest_weather(s, archive)
        except (NoDataError, StaleWeatherError):
            stale += 1
            continue
        samples.append(
            LabeledSample(
                features=assemble_features(s, weather),
                label=obs.co2,
                station_id=station_id,
                sounding_time=s.time,
                station_distance_km=dist,
            )
        )
    total = len(soundings)
    rate = len(samples) / total if total else 0.0
    log.info(
        "matched %d of %d soundings (%.1f%%); %d unmatched, %d with stale weather",
        len(samples), total, 100.0 * rate, unmatched, stale,
    )
    if not samples:
        raise EmptyDatasetError(
            f"no sounding matched within {cfg.max_distance_km} km and "
            f"{cfg.max_time_minutes} min ({total} soundings, {unmatched} unmatched, "
            f"{stale} stale-weather)"
        )
    samples.sort(key=lambda x: (x.sounding_time, x.station_id))
    return samples


def split_by_station(
    dataset: list[LabeledSample], holdout_ids: set[str]
) -> tuple[list[LabeledSample], list[LabeledSample]]:
    """Station-holdout split: test gets every sample of the holdout stations."""
    present = {s.station_id for s in dataset}
    unknown = set(holdout_ids) - present
    if unknown:
        raise ValueError(f"holdout station id(s) not present in dataset: {sorted(unknown)}")
    train = [s for s in dataset if s.station_id not in holdout_ids]
    test = [s for s in dataset if s.station_id in holdout_ids]
    return train, test


def design_matrix(dataset: list[LabeledSample]) -> tuple[np.ndarray, np.ndarray]:
    """Stack a dataset into (X, y) arrays for the model layer."""
    if not dataset:
        return np.empty((0, N_FEATURES)), np.empty((0,))
    X = np.stack([s.features for s in dataset])
    y = np.array([s.label for s in dataset], dtype=np.float64)
    return X, y


def fit_norm_stats(train: np.ndarray | list[LabeledSample]) -> NormStats:
    """Per-feature mean and population (1/n) standard deviation.

    A constant feature cannot be standardized; that raises
    DegenerateFeatureError naming the feature.
    """
    X = train if isinstance(train, np.ndarray) else design_matrix(train)[0]
    if X.ndim != 2 or X.shape[0] == 0:
        raise NoDataError("cannot fit normalization statistics on an empty set")
    mean = X.mean(axis=0)
    std = X.std(axis=0)  # population convention
    for i, s in enumerate(std):
        if s <= 0.0 or not math.isfinite(s):
            name = FEATURE_NAMES[i] if X.shape[1] == N_FEATURES else f"feature {i}"
            raise DegenerateFeatureError(f"feature {name!r} is constant on the training data")
    return NormStats(mean=mean, std=std)


def standardize(v: np.ndarray, stats: NormStats) -> np.ndarray:
    """Z-score one vector or a whole (n, d) matrix."""
    return (np.asarray(v, dtype=np.float64) - stats.mean) / stats.std


DATASET_EXTRA_COLUMNS = ("label_ppm", "station_id", "time_utc", "distance_km")


def write_dataset(dataset: list[LabeledSample], path) -> None:
    """Cache a dataset as CSV: the 14 canonical features plus label columns."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(FEATURE_NAMES + DATASET_EXTRA_COLUMNS)
        for s in dataset:
            w.writerow(
                [repr(float(x)) for x in s.features]
                + [
                    repr(float(s.label)),
                    s.station_id,
                    format_timestamp(s.sounding_time),
                    repr(float(s.station_distance_km)),
                ]
            )


def read_dataset(path) -> list[LabeledSample]:
    """Read a dataset.csv written by write_dataset."""
    from .errors import SchemaError

    expected = FEATURE_NAMES + DATASET_EXTRA_COLUMNS
    dataset = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != expected:
            raise SchemaError(f"{path}: expected dataset header {expected}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise SchemaError(f"{path}:{lineno}: wrong column count")
            try:
                features = np.array([float(x) for x in row[:N_FEATURES]])
                label = float(row[N_FEATURES])
                station_id = row[N_FEATURES + 1]
                when = parse_timestamp(row[N_FEATURES + 2])
                dist = float(row[N_FEATURES + 3])
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from exc
            dataset.append(LabeledSample(features, label, station_id, when, dist))
    return dataset
