"""Sounding-to-station matching and supervised dataset assembly.

Each satellite sounding is matched to the spatially nearest station that has
at least one observation within the time window; the matched pair plus the
nearest weather sample becomes one 14-feature labeled sample. Train/test
splits are by whole stations to prevent spatial leakage.

Both joins are batched over all soundings. Haversine distances from the
soundings to the weather nodes (or the stations) are computed in blocks of
_CHUNK_ROWS soundings. For weather, every node at a sounding's exact minimum
distance is searched (`searchsorted` on its int64 microsecond times) and the
winner minimizes (|dt|, time), earlier nodes winning full ties. For stations,
each station's nearest observation is checked against the time window and
the first qualifying station in (distance, station_id) order wins. The
station series and the weather archive are column tables, so a match is a
series row and a weather winner an archive row, and the features and
labels are gathered from those columns. `nearest_weather` and
`assemble_features` are the one-sounding cases of the same code.
"""

from __future__ import annotations

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
    SchemaError,
    StaleWeatherError,
)
from .geo import EARTH_RADIUS_KM, haversine_km
from .ingest import (
    SoundingRecord,
    Station,
    StationSeries,
    WeatherArchive,
    epoch_years,
    format_timestamp,
    parse_timestamp,
    to_micros,
    write_csv,
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
        if not (self.max_distance_km > 0 and self.max_time_minutes > 0):
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


# soundings per block of the distance pass: no soundings-wide matrix is
# built, and a block (512 x 63 nodes at seed 43 is 0.25 MB) stays small next
# to the records, so the join does not raise the peak memory
_CHUNK_ROWS = 512


def _sounding_columns(soundings: list[SoundingRecord]):
    """Latitudes, longitudes and int64 UTC microsecond times of records."""
    lat = np.array([s.location.latitude for s in soundings], dtype=np.float64)
    lon = np.array([s.location.longitude for s in soundings], dtype=np.float64)
    return lat, lon, to_micros([s.time for s in soundings])


def _distance_blocks(lat, lon, target_lat, target_lon):
    """(row slice, rows x targets haversine block) over chunks of the rows,
    each row the origin of its distances."""
    for lo in range(0, len(lat), _CHUNK_ROWS):
        rows = slice(lo, lo + _CHUNK_ROWS)
        yield rows, haversine_km(lat[rows, None], lon[rows, None], target_lat, target_lon)


def _nearest_time(times: np.ndarray, t: np.ndarray):
    """Per query time, the index into non-empty sorted `times` minimizing
    (|dt|, time) and that |dt| in seconds, as timedelta.total_seconds gives it."""
    i = np.searchsorted(times, t)
    before = np.maximum(i - 1, 0)
    after = np.minimum(i, len(times) - 1)
    dt_before = (t - times[before]) / 1e6
    dt_after = (times[after] - t) / 1e6
    take_before = (i > 0) & ((i == len(times)) | (dt_before <= dt_after))
    return np.where(take_before, before, after), np.where(take_before, dt_before, dt_after)


def _join_weather(lat, lon, t, archive: WeatherArchive):
    """Nearest weather for each row of a non-empty archive.

    Minimizes (geodesic distance, |dt|, sample time) lexicographically over
    every node at the minimum distance, earlier nodes winning full ties.
    Returns the archive row of each winner, its distance (km) and |dt| (s).
    """
    dmin = np.empty(len(lat))
    pair_rows, pair_nodes = [], []
    for rows, d in _distance_blocks(lat, lon, archive.node_latitudes, archive.node_longitudes):
        dmin[rows] = d.min(axis=1)
        r, j = np.nonzero(d == dmin[rows, None])
        pair_rows.append(r + rows.start)
        pair_nodes.append(j)
    r = np.concatenate(pair_rows)
    j = np.concatenate(pair_nodes)
    cand = np.empty(len(r), dtype=np.int64)
    dt = np.empty(len(r))
    for node in np.flatnonzero(np.bincount(j)):
        pairs = j == node
        lo, hi = archive.node_offsets[node], archive.node_offsets[node + 1]
        idx, dt[pairs] = _nearest_time(archive.times[lo:hi], t[r[pairs]])
        cand[pairs] = lo + idx
    # pairs come row by row, nodes ascending: a stable sort keeps the first
    order = np.lexsort((archive.times[cand], dt, r))
    first = order[np.diff(r[order], prepend=-1) != 0]
    return cand[first], dmin, dt[first]


def _stale(dist, dt):
    """Weather joined from farther than 2 degrees of arc or 6 hours."""
    return (dist > STALE_WEATHER_KM) | (dt > STALE_WEATHER_HOURS * 3600.0)


def _features(soundings: list[SoundingRecord], lat, lon, t, weather: np.ndarray) -> np.ndarray:
    """The (n, 14) canonical feature matrix: sounding columns, then weather."""
    X = np.empty((len(soundings), N_FEATURES))
    X[:, 0] = [s.xco2 for s in soundings]
    X[:, 1] = [s.xco2_uncertainty for s in soundings]
    X[:, 2] = lat
    X[:, 3] = lon
    X[:, 4] = epoch_years(t)
    X[:, 5:] = weather
    return X


def weather_features(
    soundings: list[SoundingRecord], archive: WeatherArchive
) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows of the soundings whose nearest weather is usable.

    Returns (X, usable): X has one row per True entry of the boolean mask
    `usable`, in sounding order. Nothing is usable in an empty archive, and
    a winner farther than 2 degrees of arc or more than 6 hours is stale.
    """
    lat, lon, t = _sounding_columns(soundings)
    if len(archive) == 0 or not soundings:
        return np.empty((0, N_FEATURES)), np.zeros(len(soundings), dtype=bool)
    row, dist, dt = _join_weather(lat, lon, t, archive)
    usable = ~_stale(dist, dt)
    kept = [s for s, ok in zip(soundings, usable) if ok]
    weather = archive.values[row[usable]]
    return _features(kept, lat[usable], lon[usable], t[usable], weather), usable


def nearest_weather(sounding: SoundingRecord, archive: WeatherArchive) -> np.ndarray:
    """The nine weather fields (WEATHER_COLUMNS[3:] order) of the sample
    minimizing (geodesic distance, |dt|) lexicographically.

    Distance ties between nodes resolve on |dt|, then the earlier timestamp.
    Raises NoDataError for an empty archive and StaleWeatherError when the
    winner is farther than 2 degrees of arc or more than 6 hours away.
    """
    if len(archive) == 0:
        raise NoDataError("weather archive is empty")
    (row,), (dmin,), (dt,) = _join_weather(*_sounding_columns([sounding]), archive)
    if _stale(dmin, dt):
        raise StaleWeatherError(
            f"nearest weather sample is {dmin:.1f} km / {dt / 3600.0:.1f} h away "
            f"(limits {STALE_WEATHER_KM:.1f} km, {STALE_WEATHER_HOURS:.0f} h)"
        )
    return archive.values[row]


def assemble_features(sounding: SoundingRecord, weather: np.ndarray) -> np.ndarray:
    """Build the canonical 14-feature vector for one sounding and the nine
    fields of its weather sample."""
    lat, lon, t = _sounding_columns([sounding])
    return _features([sounding], lat, lon, t, weather[None, :])[0]


def _series_by_station(series: StationSeries) -> dict[str, tuple]:
    """Station id -> (sorted int64 times, the series rows in that order);
    equal times keep input order."""
    by_station: dict[str, list[int]] = {}
    for i, sid in enumerate(series.station_id.tolist()):
        by_station.setdefault(sid, []).append(i)
    index = {}
    for sid, rows in by_station.items():
        rows = np.array(rows)[np.argsort(series.time[rows], kind="stable")]
        index[sid] = (series.time[rows], rows)
    return index


def match_stations(
    soundings: list[SoundingRecord],
    catalog: list[Station],
    series: StationSeries,
    cfg: MatchConfig = MatchConfig(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Match each sounding to the spatially nearest qualifying station.

    A station qualifies if it is within cfg.max_distance_km and has at least
    one observation within +/- cfg.max_time_minutes of the sounding time; the
    observation nearest in (|dt|, earlier time) is taken. Distance ties break
    on station_id. Returns per sounding the catalog index of the station and
    the series row of its observation (both -1 when nothing qualifies), and
    the distance in km (nan).
    """
    station = np.full(len(soundings), -1)
    obs = np.full(len(soundings), -1)
    dist = np.full(len(soundings), np.nan)
    if not catalog:
        return station, obs, dist
    lat, lon, t = _sounding_columns(soundings)
    order = np.array(sorted(range(len(catalog)), key=lambda k: catalog[k].station_id))
    index = _series_by_station(series)
    lats = np.array([catalog[k].location.latitude for k in order])
    lons = np.array([catalog[k].location.longitude for k in order])
    for rows, d in _distance_blocks(lat, lon, lats, lons):
        ok = d <= cfg.max_distance_km
        cand = np.zeros(d.shape, dtype=np.int64)
        for col, k in enumerate(order):
            found = index.get(catalog[k].station_id)
            if found is None:
                ok[:, col] = False
                continue
            cand[:, col], dt = _nearest_time(found[0], t[rows])
            ok[:, col] &= dt <= cfg.max_time_minutes * 60.0
        # columns are in station_id order, so argmin keeps the smaller id
        best = np.where(ok, d, np.inf).argmin(axis=1)
        at = np.arange(len(best))
        for i in np.flatnonzero(ok[at, best]):
            k = order[best[i]]
            station[rows.start + i] = k
            obs[rows.start + i] = index[catalog[k].station_id][1][cand[i, best[i]]]
            dist[rows.start + i] = d[i, best[i]]
    return station, obs, dist


def build_dataset(
    soundings: list[SoundingRecord],
    catalog: list[Station],
    series: StationSeries,
    archive: WeatherArchive,
    cfg: MatchConfig = MatchConfig(),
) -> list[LabeledSample]:
    """One labeled sample per successfully matched sounding.

    Soundings without a qualifying station, or whose nearest weather is stale,
    are skipped and counted. Output is deterministically ordered by
    (sounding time, station_id). Raises EmptyDatasetError on zero matches.
    """
    station, obs, dist = match_stations(soundings, catalog, series, cfg)
    matched = np.flatnonzero(station >= 0)
    X, usable = weather_features([soundings[i] for i in matched], archive)
    kept = matched[usable]
    samples = [
        LabeledSample(
            features=x,
            label=label,
            station_id=catalog[station[i]].station_id,
            sounding_time=soundings[i].time,
            station_distance_km=float(dist[i]),
        )
        for i, x, label in zip(kept, X, series.co2[obs[kept]].tolist())
    ]
    total = len(soundings)
    unmatched = total - len(matched)
    stale = len(matched) - len(samples)
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
    write_csv(path, FEATURE_NAMES + DATASET_EXTRA_COLUMNS, (
        [repr(float(x)) for x in s.features]
        + [repr(float(s.label)), s.station_id, format_timestamp(s.sounding_time),
           repr(float(s.station_distance_km))]
        for s in dataset
    ))


def read_dataset(path) -> list[LabeledSample]:
    """Read a dataset.csv written by write_dataset."""
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
