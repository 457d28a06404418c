"""Independent reference implementations used to cross-check the library.

Everything here is written from the definitions, deliberately not sharing
code with the package: distances use the spherical law of cosines (or a
separately written haversine), the KNN oracle is a plain full scan with
explicit sorting, gradients come from central finite differences, and the
tree builder sorts every feature again at every node. The exceptions are
``fullscan_k_nearest`` and ``reference_sweep``: they pin the bits of the
library's neighbour search and sweep, so they rank every point by the
library's own haversine kernel and take grid statistics from its Grid.
"""

import math

import numpy as np

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
