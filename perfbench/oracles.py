"""Brute-force reference implementations the benchmark checks outputs against.

They share no code with co2fuse's search or attribution paths: the KNN oracle
scans every point with its own haversine, and the Shapley oracle enumerates
all 2^d coalitions of its own mask table.
"""

from __future__ import annotations

import math

import numpy as np

EARTH_RADIUS_KM = 6371.0


def haversine_km(lat: float, lon: float, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    phi1, phi2 = math.radians(lat), np.radians(lats)
    dlon = np.radians(lons - lon)
    h = np.sin((phi2 - phi1) / 2.0) ** 2 + math.cos(phi1) * np.cos(phi2) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def knn_value(lat, lon, lats, lons, values, k, p, epsilon_km=1e-6) -> float:
    """Inverse-distance KNN estimate at (lat, lon) by a full scan.

    Neighbours are ranked on (distance, latitude, longitude, value); k None
    means every point. With p > 0 a query within epsilon_km of a selected
    point returns the mean of those coincident points.
    """
    dist = haversine_km(lat, lon, lats, lons)
    order = np.lexsort((values, lons, lats, dist))
    pick = order if k is None else order[:k]
    d, v = dist[pick], values[pick]
    if p > 0.0 and np.any(d <= epsilon_km):
        return float(v[d <= epsilon_km].mean())
    w = 1.0 / np.maximum(d, epsilon_km) ** p
    return float(w @ v / w.sum())


def shapley_values(predict, x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Exact Shapley values of one row with absent features set to mu.

    phi_i = sum over coalitions S without i of
            |S|! (d - |S| - 1)! / d! * (v(S + i) - v(S)).
    """
    d = x.shape[0]
    coalitions = np.arange(1 << d)
    present = (coalitions[:, None] >> np.arange(d)[None, :]) & 1 == 1
    v = np.asarray(predict(np.where(present, x, mu)), dtype=np.float64)
    size = present.sum(axis=1)
    weight = np.array(
        [math.factorial(s) * math.factorial(d - s - 1) / math.factorial(d) for s in range(d)]
    )
    phi = np.empty(d)
    for i in range(d):
        without = coalitions[~present[:, i]]
        phi[i] = np.sum(weight[size[without]] * (v[without | (1 << i)] - v[without]))
    return phi
