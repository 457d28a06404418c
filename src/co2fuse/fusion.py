"""Sounding-to-station matching and supervised dataset assembly.

Each satellite sounding is matched to the spatially nearest station that has
at least one observation within the time window; the matched pair plus the
nearest weather sample becomes one row of the dataset, a column table
(`Dataset`) of 14 features and the station CO2 label. Train/test splits are
by whole stations, through one boolean mask, to prevent spatial leakage.

Each entry point turns its sounding records into columns once: the first
five feature columns (xco2 .. time_epoch_years) and the int64 UTC
microsecond times. The joins read those columns, batched over all soundings,
with haversine distances computed in blocks of _CHUNK_ROWS soundings. For
weather, every node at a sounding's exact minimum distance is searched
(`searchsorted` on its times) and the winner minimizes (|dt|, time), earlier
nodes winning full ties; its nine fields complete the 14 features. For
stations, one stable lexsort orders the series rows by (station in id order,
time), with per-station offsets as in `WeatherArchive.node_offsets`; each
station's nearest observation is checked against the time window and the
first qualifying station in (distance, station_id) order wins.
"""

from __future__ import annotations

import csv
import logging
import math
from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import (
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
    _MicrosByText,
    _Refused,
    _TextByMicros,
    _canonical_micros,
    _ids,
    _in_blocks,
    _loadtxt_blocks,
    _require,
    csv_errors,
    epoch_years,
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


@dataclass(frozen=True, eq=False)  # == on arrays has no single truth value
class Dataset:
    """The fused table as columns, one row per matched sounding: the (n, 14)
    float64 features `X` in FEATURE_NAMES order, the station CO2 label `y`
    (ppm), `station_id` (an object array of str), the sounding `time` (int64
    UTC microseconds) and the station `distance_km`."""

    X: np.ndarray
    y: np.ndarray
    station_id: np.ndarray
    time: np.ndarray
    distance_km: np.ndarray

    def __len__(self) -> int:
        return len(self.y)

    def rows(self, index) -> Dataset:
        """The rows a boolean mask selects, or an index array orders."""
        return Dataset(self.X[index], self.y[index], self.station_id[index],
                       self.time[index], self.distance_km[index])


# soundings per block of the distance pass: no soundings-wide matrix is
# built, and a block (512 x 63 nodes at seed 43 is 0.25 MB) stays small next
# to the records, so the join does not raise the peak memory
_CHUNK_ROWS = 512


def _sounding_table(soundings: list[SoundingRecord]):
    """The first five feature columns of records (xco2 .. time_epoch_years)
    as an (n, 5) array, and the records' int64 UTC microsecond times."""
    S = np.empty((len(soundings), 5))
    S[:, 0] = [s.xco2 for s in soundings]
    S[:, 1] = [s.xco2_uncertainty for s in soundings]
    S[:, 2] = [s.location.latitude for s in soundings]
    S[:, 3] = [s.location.longitude for s in soundings]
    t = to_micros([s.time for s in soundings])
    S[:, 4] = epoch_years(t)
    return S, t


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


def _with_weather(S: np.ndarray, t: np.ndarray, archive: WeatherArchive):
    """(X, usable): the 14 features of the rows of the sounding table S (times
    `t`) whose nearest weather is usable, and that mask. Nothing in an empty
    archive is usable, nor a winner farther than 2 degrees or 6 hours."""
    if len(archive) == 0 or not len(S):
        return np.empty((0, N_FEATURES)), np.zeros(len(S), dtype=bool)
    row, dist, dt = _join_weather(S[:, 2], S[:, 3], t, archive)
    usable = ~_stale(dist, dt)
    return np.hstack((S[usable], archive.values[row[usable]])), usable


def weather_features(soundings: list[SoundingRecord],
                     archive: WeatherArchive) -> tuple[np.ndarray, np.ndarray]:
    """(X, usable): the feature rows, in sounding order, of the soundings
    whose nearest weather is usable, and the boolean mask of those."""
    return _with_weather(*_sounding_table(soundings), archive)


def nearest_weather(sounding: SoundingRecord, archive: WeatherArchive) -> np.ndarray:
    """The nine weather fields (WEATHER_COLUMNS[3:] order) of the sample
    minimizing (geodesic distance, |dt|) lexicographically.

    Distance ties between nodes resolve on |dt|, then the earlier timestamp.
    Raises NoDataError for an empty archive and StaleWeatherError when the
    winner is farther than 2 degrees of arc or more than 6 hours away.
    """
    if len(archive) == 0:
        raise NoDataError("weather archive is empty")
    S, t = _sounding_table([sounding])
    (row,), (dmin,), (dt,) = _join_weather(S[:, 2], S[:, 3], t, archive)
    if _stale(dmin, dt):
        raise StaleWeatherError(
            f"nearest weather sample is {dmin:.1f} km / {dt / 3600.0:.1f} h away "
            f"(limits {STALE_WEATHER_KM:.1f} km, {STALE_WEATHER_HOURS:.0f} h)"
        )
    return archive.values[row]


def assemble_features(sounding: SoundingRecord, weather: np.ndarray) -> np.ndarray:
    """Build the canonical 14-feature vector for one sounding and the nine
    fields of its weather sample."""
    S, _ = _sounding_table([sounding])
    return np.concatenate((S[0], weather))


def match_stations(
    lat: np.ndarray, lon: np.ndarray, t: np.ndarray,
    catalog: list[Station], series: StationSeries, cfg: MatchConfig = MatchConfig(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Match each sounding, given as latitude, longitude and int64 UTC
    microsecond time columns, to the spatially nearest qualifying station.

    A station qualifies if it is within cfg.max_distance_km and has at least
    one observation within +/- cfg.max_time_minutes of the sounding time; the
    observation nearest in (|dt|, earlier time) is taken. Distance ties break
    on station_id. Returns per sounding the catalog index of the station and
    the series row of its observation (both -1 when nothing qualifies), and
    the distance in km (nan).
    """
    station, obs = np.full((2, len(t)), -1)
    dist = np.full(len(t), np.nan)
    if not catalog:
        return station, obs, dist
    # column c of the distance blocks is catalog[order[c]], in station_id order
    order = np.array(sorted(range(len(catalog)), key=lambda k: catalog[k].station_id))
    column = {catalog[k].station_id: c for c, k in enumerate(order)}
    col = np.fromiter(map(column.get, series.station_id, repeat(-1)), np.int64, len(series))
    # series rows by (column, time), equal times in input order; column c
    # owns by_time[offsets[c]:offsets[c + 1]], rows of other stations lead
    by_time = np.lexsort((series.time, col))
    offsets = np.searchsorted(col, np.arange(len(order) + 1), sorter=by_time)
    times = series.time[by_time]
    lats = np.array([catalog[k].location.latitude for k in order])
    lons = np.array([catalog[k].location.longitude for k in order])
    for rows, d in _distance_blocks(lat, lon, lats, lons):
        # a station without observations never qualifies
        ok = (d <= cfg.max_distance_km) & (np.diff(offsets) > 0)
        cand = np.zeros(d.shape, dtype=np.int64)
        for c in np.flatnonzero(np.diff(offsets)):
            lo, hi = offsets[c], offsets[c + 1]
            idx, dt = _nearest_time(times[lo:hi], t[rows])
            cand[:, c] = lo + idx
            ok[:, c] &= dt <= cfg.max_time_minutes * 60.0
        # columns are in station_id order, so argmin keeps the smaller id
        best = np.where(ok, d, np.inf).argmin(axis=1)
        at = np.arange(len(best))
        won = ok[at, best]
        # basic slices are views, so these masked writes land in the results
        station[rows][won] = order[best[won]]
        obs[rows][won] = by_time[cand[at, best][won]]
        dist[rows][won] = d[at, best][won]
    return station, obs, dist


def build_dataset(
    soundings: list[SoundingRecord],
    catalog: list[Station],
    series: StationSeries,
    archive: WeatherArchive,
    cfg: MatchConfig = MatchConfig(),
) -> Dataset:
    """One labeled row per successfully matched sounding.

    Soundings without a qualifying station, or whose nearest weather is stale,
    are skipped and counted. Rows are ordered by (sounding time, station_id),
    equal keys in sounding order. Raises EmptyDatasetError on zero matches.
    """
    S, t = _sounding_table(soundings)
    station, obs, dist = match_stations(S[:, 2], S[:, 3], t, catalog, series, cfg)
    matched = np.flatnonzero(station >= 0)
    X, usable = _with_weather(S[matched], t[matched], archive)
    kept = matched[usable]
    total = len(soundings)
    unmatched = total - len(matched)
    stale = len(matched) - len(kept)
    rate = len(kept) / total if total else 0.0
    log.info(
        "matched %d of %d soundings (%.1f%%); %d unmatched, %d with stale weather",
        len(kept), total, 100.0 * rate, unmatched, stale,
    )
    if not len(kept):
        raise EmptyDatasetError(
            f"no sounding matched within {cfg.max_distance_km} km and "
            f"{cfg.max_time_minutes} min ({total} soundings, {unmatched} unmatched, "
            f"{stale} stale-weather)"
        )
    ids = np.array([catalog[k].station_id for k in station[kept]], dtype=object)
    # rank the ids in Python's string order: numpy's <U strings drop trailing NULs
    rank = {sid: r for r, sid in enumerate(sorted(set(ids)))}
    order = np.lexsort((np.array([rank[sid] for sid in ids], dtype=np.int64), t[kept]))
    return Dataset(X, series.co2[obs[kept]], ids, t[kept], dist[kept]).rows(order)


def split_by_station(dataset: Dataset, holdout_ids: set[str]) -> tuple[Dataset, Dataset]:
    """Station-holdout split: test gets every row of the holdout stations."""
    station_ids = dataset.station_id.tolist()
    unknown = set(holdout_ids) - set(station_ids)
    if unknown:
        raise ValueError(f"holdout station id(s) not present in dataset: {sorted(unknown)}")
    test = np.array([sid in holdout_ids for sid in station_ids], dtype=bool)
    return dataset.rows(~test), dataset.rows(test)


def design_matrix(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The (X, y) arrays of a dataset for the model layer."""
    return dataset.X, dataset.y


DATASET_EXTRA_COLUMNS = ("label_ppm", "station_id", "time_utc", "distance_km")


def write_dataset(dataset: Dataset, path) -> None:
    """Cache a dataset as CSV: the 14 canonical features plus label columns."""
    texts = _TextByMicros()

    def rows_of(block):
        d = dataset.rows(block)
        numbers = (map(repr, c.tolist()) for c in (*d.X.T, d.y))
        return zip(*numbers, d.station_id.tolist(), map(texts.__getitem__, d.time.tolist()),
                   map(repr, d.distance_km.tolist()))

    write_csv(path, FEATURE_NAMES + DATASET_EXTRA_COLUMNS, _in_blocks(len(dataset), rows_of))


def read_dataset(path) -> Dataset:
    """Read a dataset.csv written by write_dataset. A wrong header or column
    count, a value that does not parse and a non-finite number are each a
    SchemaError naming the file line of the first bad row. Bytes that are
    not UTF-8 and CSV syntax errors are a SchemaError naming the file.

    Clean canonical files take np.loadtxt's fast path, as the ingest readers
    do; any other file, and every error, comes from the csv.reader pass."""
    try:
        return _canonical_dataset(path)
    except _Refused:
        return _csv_dataset(path)


_DATASET_RECORD = np.dtype([("X", "f8", (N_FEATURES,)), ("label_ppm", "f8"),
                            ("station_id", "S32"), ("time_utc", "S21"), ("distance_km", "f8")])


def _canonical_dataset(path) -> Dataset:
    """The fast path of read_dataset."""
    rows, blocks = _loadtxt_blocks(path, FEATURE_NAMES + DATASET_EXTRA_COLUMNS, _DATASET_RECORD)
    X, time = np.empty((rows, N_FEATURES)), np.empty(rows, dtype=np.int64)
    y, distance_km = np.empty((2, rows))
    station_id = np.empty(rows, dtype=object)
    for at, block in blocks:
        X[at], y[at], distance_km[at] = block["X"], block["label_ppm"], block["distance_km"]
        _require(np.isfinite(X[at]).all(axis=1) & np.isfinite(y[at]) & np.isfinite(distance_km[at]))
        station_id[at] = _ids(block["station_id"])
        time[at] = _canonical_micros(block["time_utc"])
    return Dataset(X, y, station_id, time, distance_km)


def _csv_dataset(path) -> Dataset:
    """The csv.reader pass of read_dataset."""
    expected = FEATURE_NAMES + DATASET_EXTRA_COLUMNS
    # the returned columns view these buffers: no second copy of the table
    features, labels, distances = array("d"), array("d"), array("d")
    station_ids, times = [], array("q")
    micros = _MicrosByText()
    with csv_errors(path), open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != expected:
            raise SchemaError(f"{path}: expected dataset header {expected}")
        for row in reader:
            try:
                if len(row) != len(expected):
                    raise ValueError("wrong column count")
                values = list(map(float, row[:N_FEATURES + 1]))
                times.append(micros[row[N_FEATURES + 2]])
                values.append(float(row[N_FEATURES + 3]))
                if not all(map(math.isfinite, values)):
                    raise ValueError("non-finite value")
            except ValueError as exc:
                raise SchemaError(f"{path}:{reader.line_num}: {exc}") from exc
            features.extend(values[:N_FEATURES])
            labels.append(values[N_FEATURES])
            distances.append(values[-1])
            station_ids.append(row[N_FEATURES + 1])
    X = np.frombuffer(features).reshape(-1, N_FEATURES)
    return Dataset(X, np.frombuffer(labels), np.array(station_ids, dtype=object),
                   np.array(times, dtype=np.int64), np.frombuffer(distances))
