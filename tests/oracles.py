"""Independent reference implementations used to cross-check the library.

Everything here is written from the definitions, deliberately not sharing
code with the package: distances use the spherical law of cosines (or a
separately written haversine), the KNN oracle is a plain full scan with
explicit sorting, gradients come from central finite differences, and the
tree builder sorts every feature again at every node. The exceptions are
``fullscan_k_nearest``, ``reference_sweep`` and the per-sounding join: they
pin the bits of the library's neighbour search, sweep and sounding join, so
they measure every distance with the library's own haversine kernel and take
grid statistics from its Grid. ``mlp_predict_unblocked`` and
``shapley_row_by_gathers`` likewise pin the bits of the blocked MLP forward
pass and the strided Shapley sums: they keep the arithmetic of the one-shot
pass and of the index-gather loop that those replaced. ``reference_train_mlp``
pins the trainer's weights and loss trace with the unblocked forward pass,
per-array velocities and allocating updates that the trainer replaced. The
``reference_read_*`` readers are the csv.DictReader readers that the
one-pass readers replaced; they parse with the package's timestamp parser
and GeoPoint, so they pin the readers' results, log lines and errors. The
last section holds small helpers that only the tests need (point columns,
tree depth, the synthetic truth at one point, the calendar time of one
datetime); they call into the package.
"""

import bisect
import csv
import logging
import math
from datetime import datetime, timezone

import numpy as np

from co2fuse import ingest, synth
from co2fuse.errors import (
    CorruptInputError,
    DuplicateKeyError,
    NoDataError,
    SchemaError,
    StaleWeatherError,
    TrainingDivergedError,
)
from co2fuse.geo import GeoPoint, cell_centers, geodesic_km_many
from co2fuse.interpolate import Grid, PointSet

EARTH_RADIUS_KM = 6371.0
# distances at or below this are coincident; the 1/d^p weights clamp to it
EPSILON_KM = 1e-6


def law_of_cosines_km(lat1, lon1, lat2, lon2):
    """Great-circle distance via the spherical law of cosines."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return EARTH_RADIUS_KM * math.acos(min(1.0, max(-1.0, c)))


def haversine_km(lat1, lon1, lat2, lon2):
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dphi = p2 - p1
    dlmb = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dlmb / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(min(1.0, a)))


def naive_knn(points, qlat, qlon, k, p):
    """Full-scan weighted KNN oracle.

    points: iterable of (lat, lon, value). k=None means all points. Ties at
    the k-th neighbor break on (distance, lat, lon, value), matching the
    documented library rule.
    """
    ranked = sorted(
        ((haversine_km(qlat, qlon, lat, lon), lat, lon, value)
         for lat, lon, value in points)
    )
    if k is None:
        k = len(ranked)
    chosen = ranked[: min(k, len(ranked))]
    if p > 0.0:
        coincident = [v for d, _, _, v in chosen if d <= EPSILON_KM]
        if coincident:
            return sum(coincident) / len(coincident)
    weights = [1.0 / max(d, EPSILON_KM) ** p for d, _, _, _ in chosen]
    total = sum(weights)
    return sum(w * v for w, (_, _, _, v) in zip(weights, chosen)) / total


def fullscan_k_nearest(lats, lons, values, query, k):
    """(idx, dist) of the k nearest points by a full scan: every distance,
    then one sort on (distance, lat, lon, value), stable in index order."""
    dist = geodesic_km_many(query, lats, lons)
    pick = np.lexsort((values, lons, lats, dist))[: min(k, len(values))]
    return pick, dist[pick]


def reference_sweep(lats, lons, values, spec, k_list, p_list):
    """The sweep over the points given as (lats, lons, values) columns, as one
    rasterization per (k, p) pair, k-major, with every cell ranked anew by the
    full scan and weighted by w = 1/max(d, eps)^p.

    Returns ([(k, p, mean, std)], [grid values]); mean and std are the
    library Grid's, so only the ranking and the weighting are re-derived.
    """
    n = len(values)
    rows, grids = [], []
    for k in k_list:
        for p in p_list:
            k_eff = n if k is None else min(k, n)
            cells = []
            for center in cell_centers(spec):
                if p == 0.0 and k_eff == n:
                    cells.append(float(np.sort(values).mean()))
                    continue
                idx, dist = fullscan_k_nearest(lats, lons, values, center, k_eff)
                near = values[idx]
                coincident = dist <= EPSILON_KM
                if p > 0.0 and coincident.any():
                    cells.append(float(near[coincident].mean()))
                    continue
                w = 1.0 / np.maximum(dist, EPSILON_KM) ** p
                w = w / w.sum()
                cells.append(float(w @ near))
            grid = Grid(spec=spec, values=np.array(cells, dtype=np.float64))
            rows.append((k, p, grid.mean, grid.std))
            grids.append(grid.values)
    return rows, grids


def central_difference(f, x, i, h=1e-5):
    """d f / d x_i by central differences; f takes a flat list."""
    xp = list(x)
    xm = list(x)
    xp[i] += h
    xm[i] -= h
    return (f(xp) - f(xm)) / (2.0 * h)


def ols_slope_intercept(xs, ys):
    """Plain least squares line fit, written from the normal equations."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, my - slope * mx


def _reference_best_split(X, g, h, reg_lambda):
    """Best (gain, feature, threshold) at one node, re-sorting every feature."""
    G = g.sum()
    H = h.sum()
    parent_score = G * G / (H + reg_lambda)
    best_gain, best_feature, best_threshold = 0.0, -1, 0.0
    for f in range(X.shape[1]):
        xs = X[:, f]
        order = np.argsort(xs, kind="stable")
        xo = xs[order]
        boundaries = xo[1:] != xo[:-1]
        if not boundaries.any():
            continue
        gl = np.cumsum(g[order])[:-1]
        hl = np.cumsum(h[order])[:-1]
        gr = G - gl
        hr = H - hl
        gains = gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda) - parent_score
        gains[~boundaries] = -np.inf
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            lo, hi = xo[i], xo[i + 1]
            thr = 0.5 * (lo + hi)
            if thr <= lo:  # midpoint rounded onto the lower value
                thr = hi
            best_gain, best_feature, best_threshold = float(gains[i]), f, float(thr)
    return best_gain, best_feature, best_threshold


def reference_tree_sexpr(X, grad, hess, max_depth, reg_lambda=0.0):
    """Exact greedy tree that sorts every feature again at every node,
    written out directly as the s-expression ``(split f thr l r)``/``(leaf v)``;
    a split needs a gain above 1e-12."""

    def build(idx, depth):
        g = grad[idx]
        h = hess[idx]
        leaf = f"(leaf {-g.sum() / (h.sum() + reg_lambda):.17g})"
        if depth >= max_depth or idx.size < 2:
            return leaf
        gain, f, thr = _reference_best_split(X[idx], g, h, reg_lambda)
        if f < 0 or gain <= 1e-12:
            return leaf
        mask = X[idx, f] < thr
        left = build(idx[mask], depth + 1)
        right = build(idx[~mask], depth + 1)
        return f"(split {f} {thr:.17g} {left} {right})"

    return build(np.arange(X.shape[0]), 0)


def predict_rows_one_at_a_time(root, X):
    """Route each row on its own from the root to a leaf."""
    out = []
    for row in X:
        node = root
        while node.left is not None:
            node = node.left if row[node.feature] < node.threshold else node.right
        out.append(node.value)
    return np.array(out, dtype=np.float64)


# ------------------------------------------------------- per-sounding join


def reference_series_index(observations):
    """Station id -> (times, rows) of (station_id, time, co2) observations:
    each station's input rows sorted by time, equal times in input order."""
    by_station = {}
    for row, (sid, when, _) in enumerate(observations):
        by_station.setdefault(sid, []).append((when, row))
    index = {}
    for sid, items in by_station.items():
        items.sort(key=lambda item: item[0])
        index[sid] = ([when for when, _ in items], [row for _, row in items])
    return index


def _nearest_in_window(times, items, when, max_seconds):
    """Item minimizing (|dt|, time) among the two neighbours of `when` in
    sorted `times` that lie within max_seconds; None when neither does."""
    i = bisect.bisect_left(times, when)
    best = None
    for j in (i - 1, i):
        if 0 <= j < len(times):
            dt = abs((times[j] - when).total_seconds())
            if dt <= max_seconds:
                key = (dt, times[j])
                if best is None or key < best[0]:
                    best = (key, items[j])
    return best


def reference_match_sounding(sounding, catalog, index, cfg):
    """(station_id, observation row, distance) of the nearest qualifying
    station, walking stations in (distance, station_id) order; or None."""
    distances = geodesic_km_many(
        sounding.location,
        np.array([s.location.latitude for s in catalog]),
        np.array([s.location.longitude for s in catalog]),
    )
    within = np.nonzero(distances <= cfg.max_distance_km)[0]
    for j in sorted(within, key=lambda j: (distances[j], catalog[j].station_id)):
        found = index.get(catalog[j].station_id)
        if found is None:
            continue
        hit = _nearest_in_window(*found, sounding.time, cfg.max_time_minutes * 60.0)
        if hit is not None:
            return catalog[j].station_id, hit[1], float(distances[j])
    return None


def reference_weather_nodes(samples):
    """Sorted (lat, lon) node keys and each node's time-sorted samples, of
    (time, GeoPoint, fields) samples; equal times stay in input order."""
    by_node = {}
    for s in samples:
        by_node.setdefault((s[1].latitude, s[1].longitude), []).append(s)
    keys = sorted(by_node)
    return keys, [sorted(by_node[k], key=lambda s: s[0]) for k in keys]


def reference_nearest_weather(sounding, nodes, stale_km, stale_hours):
    """The sample minimizing (distance, |dt|, time) over the nodes at the
    minimum distance, earlier nodes winning full ties; raises NoDataError
    without nodes and StaleWeatherError beyond the limits."""
    keys, node_samples = nodes
    if not keys:
        raise NoDataError("weather archive is empty")
    distances = geodesic_km_many(
        sounding.location, np.array([k[0] for k in keys]), np.array([k[1] for k in keys])
    )
    dmin = float(distances.min())
    best = None
    for j in np.nonzero(distances == dmin)[0]:
        samples = node_samples[j]
        hit = _nearest_in_window(
            [s[0] for s in samples], samples, sounding.time, math.inf
        )
        if best is None or hit[0] < best[0]:
            best = hit
    (dt, _), sample = best
    if dmin > stale_km or dt > stale_hours * 3600.0:
        raise StaleWeatherError(f"{dmin} km / {dt} s")
    return sample


def reference_epoch_years(dt):
    """Calendar year plus the elapsed fraction of it, by timedelta division."""
    dt = dt.astimezone(timezone.utc)
    start = datetime(dt.year, 1, 1, tzinfo=timezone.utc)
    end = datetime(dt.year + 1, 1, 1, tzinfo=timezone.utc)
    return dt.year + (dt - start) / (end - start)


# ------------------------------ MLP prediction, training and Shapley sums


def mlp_predict_unblocked(model, X):
    """An MlpModel's predictions in one pass over all rows: standardize when
    the model has stats, then h @ w + b and ReLU, layer by layer."""
    h = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if model.norm is not None:
        h = (h - model.norm.mean) / model.norm.std
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w
        h += b
        if i != last:
            np.maximum(h, 0.0, out=h)
    return h[:, 0]


def reference_train_mlp(X, y, cfg):
    """mlp.train_mlp as one pass per layer allocating z = h @ w + b, with one
    velocity list per parameter kind, v = momentum * v - lr * g, and the
    per-epoch loss from one unblocked pass over all rows. X holds the rows
    already z-scored, which train_mlp does itself. Returns (weights, biases,
    loss_trace); raises TrainingDivergedError as train_mlp does."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    rng = np.random.default_rng(cfg.seed)
    sizes = [X.shape[1], *cfg.hidden_sizes, 1]
    weights = [rng.normal(0.0, np.sqrt(2.0 / a), size=(a, b)) for a, b in zip(sizes, sizes[1:])]
    biases = [np.zeros(b) for b in sizes[1:]]
    biases[-1][0] = float(y.mean())

    def forward(A):
        acts = [A]
        for i, (w, b) in enumerate(zip(weights, biases)):
            z = acts[-1] @ w + b
            acts.append(z if i == len(weights) - 1 else np.maximum(z, 0.0))
        return acts[-1][:, 0], acts

    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    loss_trace = []
    n = X.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                pred, acts = forward(X[batch])
                delta = (2.0 / len(batch)) * (pred - y[batch])[:, None]
                gw, gb = [None] * len(weights), [None] * len(weights)
                for i in reversed(range(len(weights))):
                    gw[i] = acts[i].T @ delta + 2.0 * cfg.l2_lambda * weights[i]
                    gb[i] = delta.sum(axis=0)
                    if i > 0:
                        delta = (delta @ weights[i].T) * (acts[i] > 0.0)
                for i in range(len(weights)):
                    vel_w[i] = cfg.momentum * vel_w[i] - cfg.learning_rate * gw[i]
                    vel_b[i] = cfg.momentum * vel_b[i] - cfg.learning_rate * gb[i]
                    weights[i] += vel_w[i]
                    biases[i] += vel_b[i]
            reg = cfg.l2_lambda * sum(float(np.sum(w**2)) for w in weights)
            loss = float(np.mean((forward(X)[0] - y) ** 2)) + reg
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"training loss became non-finite at epoch {epoch}")
            loss_trace.append(loss)
    return weights, biases, loss_trace


def shapley_row_by_gathers(predict_fn, x, mu):
    """Exact Shapley values of one row under mean imputation: every mask S
    without bit i is found by np.nonzero and paired with S + 2^i by index."""
    d = x.shape[0]
    masks = np.arange(1 << d)
    member = (masks[:, None] >> np.arange(d)) & 1 == 1
    sizes = member.sum(axis=1)
    fact = [math.factorial(i) for i in range(d + 1)]
    w_by_size = np.array([fact[s] * fact[d - 1 - s] / fact[d] for s in range(d)])
    v = np.asarray(predict_fn(np.where(member, x[None, :], mu[None, :])), dtype=np.float64)
    phi = np.empty(d)
    for i in range(d):
        without = np.nonzero(~member[:, i])[0]
        partner = without + (1 << i)
        phi[i] = float(np.sum(w_by_size[sizes[without]] * (v[partner] - v[without])))
    return phi


# ------------------------------------------------- csv.DictReader readers

_reader_log = logging.getLogger("co2fuse.ingest")


def _reference_rows(path, columns):
    """(line, row) for each csv row: the file line that DictReader ended the
    row on, and the row as a dict; header problems raise SchemaError."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            # a short row's missing fields read as "", which no field accepts
            reader = csv.DictReader(fh, restval="")
            if reader.fieldnames is None:
                raise SchemaError(f"{path}: empty file, header row required")
            missing = [c for c in columns if c not in reader.fieldnames]
            if missing:
                raise SchemaError(f"{path}: missing required columns {missing}")
            for row in reader:
                yield reader.line_num, row
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not valid UTF-8 ({exc})") from exc
    except csv.Error as exc:
        raise SchemaError(f"{path}: CSV parse failure ({exc})") from exc


def _reference_finite(x):
    if not math.isfinite(x):
        raise ValueError("non-finite value")
    return x


def _reference_gate(path, total, malformed, what):
    if malformed > 0:
        _reader_log.warning("%s: skipped %d malformed %s row(s) of %d",
                            path, malformed, what, total)
    if total > 0 and malformed * 2 > total:
        raise CorruptInputError(
            f"{path}: {malformed} of {total} {what} rows malformed (> 50%)"
        )


def reference_read_soundings(path, quality_filter=True):
    """ingest.read_soundings on one DictReader dict per row."""
    records = []
    total = malformed = dropped_quality = 0
    for _, row in _reference_rows(path, ingest.SOUNDING_COLUMNS):
        total += 1
        try:
            t = ingest.parse_timestamp(row["time_utc"])
            loc = GeoPoint(float(row["latitude_deg"]), float(row["longitude_deg"]))
            xco2 = _reference_finite(float(row["xco2_ppm"]))
            unc = _reference_finite(float(row["xco2_uncertainty_ppm"]))
            flag = int(row["quality_flag"])
            if not (ingest.XCO2_PLAUSIBLE_PPM[0] < xco2 < ingest.XCO2_PLAUSIBLE_PPM[1]):
                raise ValueError(f"xco2 {xco2} outside plausibility band")
            if unc < 0.0:
                raise ValueError("negative uncertainty")
        except (ValueError, TypeError, KeyError):
            malformed += 1
            continue
        if quality_filter and flag != 0:
            dropped_quality += 1
            continue
        records.append(ingest.SoundingRecord(t, loc, xco2, unc, flag))
    _reference_gate(path, total, malformed, "sounding")
    if dropped_quality:
        _reader_log.info("%s: dropped %d sounding(s) failing the quality flag",
                         path, dropped_quality)
    records.sort(key=lambda r: r.time)
    return records


def reference_read_station_catalog(path):
    """ingest.read_station_catalog on one DictReader dict per row."""
    stations = []
    seen = set()
    for lineno, row in _reference_rows(path, ingest.STATION_COLUMNS):
        try:
            sid = row["station_id"].strip()
            if not sid:
                raise ValueError("empty station_id")
            loc = GeoPoint(float(row["latitude_deg"]), float(row["longitude_deg"]))
            raw_elev = (row.get("elevation_m") or "").strip()
            elev = _reference_finite(float(raw_elev)) if raw_elev else None
        except (ValueError, TypeError, KeyError) as exc:
            raise SchemaError(f"{path}:{lineno}: invalid station row ({exc})") from exc
        if sid in seen:
            raise DuplicateKeyError(f"{path}: duplicate station_id {sid!r}")
        seen.add(sid)
        stations.append(ingest.Station(sid, loc, elev))
    return stations


def reference_read_station_series(path):
    """ingest.read_station_series on one DictReader dict and one datetime
    per row, with a (station_id, datetime) set for the duplicates."""
    rows = []
    seen = set()
    first_repeat = None
    total = malformed = 0
    for _, row in _reference_rows(path, ingest.SERIES_COLUMNS):
        total += 1
        try:
            sid = row["station_id"].strip()
            if not sid:
                raise ValueError("empty station_id")
            t = ingest.parse_timestamp(row["time_utc"])
            co2 = _reference_finite(float(row["co2_ppm"]))
            if co2 <= 0.0:
                raise ValueError("co2 must be positive")
        except (ValueError, TypeError, KeyError):
            malformed += 1
            continue
        if (sid, t) in seen and first_repeat is None:
            first_repeat = (sid, t)
        seen.add((sid, t))
        rows.append((sid, t, co2))
    if first_repeat is not None:
        sid, t = first_repeat
        raise DuplicateKeyError(
            f"{path}: duplicate observation {sid!r} @ {ingest.format_timestamp(t)}")
    _reference_gate(path, total, malformed, "series")
    rows.sort(key=lambda r: (r[0], r[1]))
    return ingest.StationSeries(
        np.array([r[0] for r in rows], dtype=object),
        ingest.to_micros([r[1] for r in rows]),
        np.array([r[2] for r in rows], dtype=np.float64),
    )


def reference_read_weather(path, window=ingest.DEFAULT_WEATHER_WINDOW):
    """ingest.read_weather on one DictReader dict, one datetime and one list
    of fields per row, windowed on datetime.time()."""
    times, lats, lons, values = [], [], [], []
    total = malformed = dropped_window = 0
    for _, row in _reference_rows(path, ingest.WEATHER_COLUMNS):
        total += 1
        try:
            t = ingest.parse_timestamp(row["time_utc"])
            loc = GeoPoint(float(row["latitude_deg"]), float(row["longitude_deg"]))
            fields = [_reference_finite(float(row[c])) for c in ingest.WEATHER_COLUMNS[3:]]
            tcc = fields[-1]
            if not 0.0 <= tcc <= 1.0:
                raise ValueError(f"total_cloud_cover {tcc} outside [0, 1]")
        except (ValueError, TypeError, KeyError):
            malformed += 1
            continue
        if not window[0] <= t.time() <= window[1]:
            dropped_window += 1
            continue
        times.append(t)
        lats.append(loc.latitude)
        lons.append(loc.longitude)
        values.append(fields)
    _reference_gate(path, total, malformed, "weather")
    if dropped_window:
        _reader_log.warning(
            "%s: dropped %d weather sample(s) outside the %s-%s UTC window",
            path, dropped_window, window[0].strftime("%H:%M"), window[1].strftime("%H:%M"),
        )
    return ingest.WeatherArchive(ingest.to_micros(times), lats, lons, values)


# ------------------------------------------------------- test-only helpers


def point_columns(triples):
    """(lats, lons, values) arrays of (lat, lon, value) triples, each location
    normalized by GeoPoint first, as the package's readers do."""
    triples = list(triples)
    locations = [GeoPoint(float(lat), float(lon)) for lat, lon, _ in triples]
    return (
        np.array([g.latitude for g in locations]),
        np.array([g.longitude for g in locations]),
        np.array([float(v) for _, _, v in triples]),
    )


def point_set(triples):
    """PointSet of (lat, lon, value) triples (see point_columns)."""
    return PointSet(*point_columns(triples))


def tree_depth(root):
    """Longest root-to-leaf path of a TreeNode tree, in edges."""
    depth, stack = 0, [(root, 0)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if not node.is_leaf:
            stack += [(node.left, d + 1), (node.right, d + 1)]
    return depth


def to_epoch_years(dt):
    """The package's continuous calendar time of one aware datetime."""
    return float(ingest.epoch_years(ingest.to_micros([dt]))[0])


def true_field(cfg, location, when):
    """Noise-free synthetic ground truth in ppm at a GeoPoint and time."""
    years = to_epoch_years(when)
    return float(synth._field_from_parts(cfg, location.latitude, location.longitude, years))
