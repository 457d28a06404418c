"""Independent reference implementations used to cross-check the library.

Everything here is written from the definitions, deliberately not sharing
code with the package: distances use the spherical law of cosines (or a
separately written haversine), the KNN oracle is a plain full scan with
explicit sorting, gradients come from central finite differences, and the
tree builder sorts every feature again at every node. The exceptions are
``fullscan_k_nearest``, ``reference_sweep`` and the per-sounding join: they
pin the bits of the library's neighbour search, sweep and sounding join, so
they measure every distance with the library's own haversine kernel and take
grid statistics from its Grid.
"""

import bisect
import math
from datetime import datetime, timezone

import numpy as np

from co2fuse.errors import NoDataError, StaleWeatherError
from co2fuse.geo import cell_centers, geodesic_km_many
from co2fuse.interpolate import Grid

EARTH_RADIUS_KM = 6371.0


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


def naive_knn(points, qlat, qlon, k, p, epsilon_km=1e-6):
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
        coincident = [v for d, _, _, v in chosen if d <= epsilon_km]
        if coincident:
            return sum(coincident) / len(coincident)
    weights = [1.0 / max(d, epsilon_km) ** p for d, _, _, _ in chosen]
    total = sum(weights)
    return sum(w * v for w, (_, _, _, v) in zip(weights, chosen)) / total


def fullscan_k_nearest(lats, lons, values, query, k):
    """(idx, dist) of the k nearest points by a full scan: every distance,
    then one sort on (distance, lat, lon, value), stable in index order."""
    dist = geodesic_km_many(query, lats, lons)
    pick = np.lexsort((values, lons, lats, dist))[: min(k, len(values))]
    return pick, dist[pick]


def reference_sweep(points, spec, k_list, p_list, epsilon_km=1e-6):
    """The sweep as one rasterization per (k, p) pair, k-major, with every
    cell ranked anew by the full scan and weighted by w = 1/max(d, eps)^p.

    Returns ([(k, p, mean, std)], [grid values]); mean and std are the
    library Grid's, so only the ranking and the weighting are re-derived.
    """
    lats = np.array([q.location.latitude for q in points])
    lons = np.array([q.location.longitude for q in points])
    values = np.array([q.value for q in points])
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
                coincident = dist <= epsilon_km
                if p > 0.0 and coincident.any():
                    cells.append(float(near[coincident].mean()))
                    continue
                w = 1.0 / np.maximum(dist, epsilon_km) ** p
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


def reference_tree_sexpr(X, grad, hess, max_depth, reg_lambda=0.0, min_gain=0.0):
    """Exact greedy tree that sorts every feature again at every node,
    written out directly as the s-expression ``(split f thr l r)``/``(leaf v)``."""
    min_gain = max(min_gain, 1e-12)

    def build(idx, depth):
        g = grad[idx]
        h = hess[idx]
        leaf = f"(leaf {-g.sum() / (h.sum() + reg_lambda):.17g})"
        if depth >= max_depth or idx.size < 2:
            return leaf
        gain, f, thr = _reference_best_split(X[idx], g, h, reg_lambda)
        if f < 0 or gain <= min_gain:
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


def reference_series_index(series):
    """Station id -> (times, observations), each station's list sorted by
    time, equal times in input order."""
    by_station = {}
    for obs in series:
        by_station.setdefault(obs.station_id, []).append(obs)
    index = {}
    for sid, obs_list in by_station.items():
        obs_list.sort(key=lambda o: o.time)
        index[sid] = ([o.time for o in obs_list], obs_list)
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
    """(station_id, observation, distance) of the nearest qualifying
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


def reference_weather_nodes(archive):
    """Sorted (lat, lon) node keys and each node's time-sorted samples."""
    by_node = {}
    for s in archive.samples:
        by_node.setdefault((s.location.latitude, s.location.longitude), []).append(s)
    keys = sorted(by_node)
    return keys, [sorted(by_node[k], key=lambda s: s.time) for k in keys]


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
            [s.time for s in samples], samples, sounding.time, math.inf
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
