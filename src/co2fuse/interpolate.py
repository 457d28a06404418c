"""Weighted K-nearest-neighbor inverse-distance interpolation on the sphere.

The measured points come in as columns: a PointSet of latitudes, longitudes
and values. For a query location the K nearest points are found by
great-circle distance, weighted by w = 1/d^p, the weights normalized to sum
to one, and the weighted sum of the values returned. The d = 0 singularity
is handled by clamping distances below EPSILON_KM = 1e-6 km; when p > 0 and
any selected neighbor is within EPSILON_KM the result is the mean of those
coincident points, so querying at a measured location reproduces the
measurement.

Neighbor search has one path. The cosine of the angle to every point (one
dot product of unit vectors) picks a small superset of the k nearest; only
those get an exact haversine distance and are ranked. Ties break on the
point content (distance, then latitude, longitude, value), which makes every
result invariant to the input ordering: PointSet sorts its points once by
(latitude, longitude, value), and each search ranks its candidates, taken in
that canonical order, on distance. Points equal in all four keys keep their
input order. The ranking is numpy's default sort, which is the stable sort's
whenever the first k + 1 sorted distances are all distinct; only when two of
them are equal is the stable sort run.

A search may be given a bound: a distance within which at least k points
are known to lie. A great-circle distance is never less than the latitude
difference, so the k nearest then lie in the band of points whose latitude
is within the bound (plus _BAND_PAD_KM) of the query's, one contiguous slice
of the latitude-sorted points, and only that slice is scanned.

A raster, or a whole K x p sweep, ranks each cell once: every (K, p) pair
reads a prefix of one ranking made for the largest K any pair needs. The
order is total, so a prefix is exactly the smaller K's result. Each cell is
bounded by the one before it: its K nearest lie within the previous cell's
K-th distance plus the hop between the two centres (triangle inequality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyDatasetError
from .geo import EARTH_RADIUS_KM, GeoPoint, GridSpec, cell_centers, geodesic_km_many, haversine_km

# Fig-4-style ablation defaults; None means K = ALL
DEFAULT_K_LIST: tuple[Optional[int], ...] = (10, 200, 1000, None)
DEFAULT_P_LIST: tuple[float, ...] = (1.0, 0.2, 0.0)

# grid-product defaults for regional rasters
DEFAULT_GRID_K = 200
DEFAULT_GRID_P = 0.05

# distances below this count as coincident (and clamp the 1/d^p weights)
EPSILON_KM = 1e-6


@dataclass(frozen=True)
class KnnParams:
    """k = None means use every point (the ablation's K = infinity column)."""

    k: Optional[int] = DEFAULT_GRID_K
    p: float = DEFAULT_GRID_P

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1 (or None for ALL)")
        if not (math.isfinite(self.p) and self.p >= 0.0):
            raise ValueError("p must be finite and >= 0")


# Slack below the k-th largest cosine when picking the points to rank. The dot
# product and the haversine term h = sin^2(d/2) = (1 - cos d)/2 are each short
# sums of products of factors bounded by 1, so at any angle both are off by
# about 1e-15 at most. A cosine lower than k others' by more than 1e-12 thus
# means an h higher by about 5e-13 whatever the rounding, and the distance
# 2R asin(sqrt(h)) rises at least 2R per unit of h: about 6e-9 km, far above
# its own rounding. Such a point is strictly farther than k others, so the
# candidates always hold the k nearest and ranking them gives the full scan's.
_COS_MARGIN = 1e-12

# Padding of a search bound before its latitude band is cut. The candidates
# picked with _COS_MARGIN lie at most about 9 m beyond the k-th nearest point
# (1e-12 of cosine at zero angle), and the bound and its conversion to degrees
# round far below that, so every candidate of the full scan is in the band.
_BAND_PAD_KM = 1.0


def _unit_vectors(lats, lons) -> np.ndarray:
    """(n, 3) Cartesian unit vectors of points given in degrees."""
    lat = np.radians(lats)
    lon = np.radians(lons)
    return np.column_stack((np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)))


class PointSet:
    """Measured points as columns, kept in canonical (latitude, longitude,
    value) order for the search.

    Takes three 1-d columns of equal length and keeps its own copies: finite
    values, latitudes in [-90, 90] and longitudes already in [-180, 180)
    (GeoPoint normalizes; this does not). `order` maps a canonical position
    to the point's input index. `lats`, `lons` and the unit vectors `xyz` are
    in canonical order, for the search; `values` stay in input order, to be
    read by the indices k_nearest returns.
    """

    def __init__(self, lats, lons, values):
        lats, lons, values = (np.array(c, dtype=np.float64) for c in (lats, lons, values))
        if lats.ndim != 1 or lats.shape != lons.shape or lats.shape != values.shape:
            raise ValueError("point columns must be 1-d and of equal length")
        if len(values) == 0:
            raise EmptyDatasetError("interpolation needs at least one measured point")
        if not all(np.isfinite(c).all() for c in (lats, lons, values)):
            raise ValueError("point coordinates and values must be finite")
        if not (np.abs(lats) <= 90.0).all():
            raise ValueError("point latitudes must lie in [-90, 90]")
        if not ((lons >= -180.0) & (lons < 180.0)).all():
            raise ValueError("point longitudes must lie in [-180, 180)")
        self.values = values
        self.order = np.lexsort((values, lons, lats))
        self.lats = lats[self.order]
        self.lons = lons[self.order]
        self.xyz = _unit_vectors(self.lats, self.lons)

    def __len__(self) -> int:
        return len(self.values)

    def k_nearest(
        self, query: GeoPoint, k: int, *, within_km: Optional[float] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Input indices and distances of the k nearest points (content-tie order).

        `within_km` is an optional bound: a distance from `query` within which
        at least k points are known to lie. Only the points whose latitude is
        within that distance (plus _BAND_PAD_KM) of the query's are scanned.
        """
        n = len(self)
        k = min(k, n)
        if k < n:
            lo, hi = 0, n
            if within_km is not None:
                # a great-circle distance is never less than the latitude
                # difference, so the k nearest lie in this contiguous band
                reach = math.degrees((within_km + _BAND_PAD_KM) / EARTH_RADIUS_KM)
                lo, hi = self.lats.searchsorted((query.latitude - reach, query.latitude + reach))
                if hi - lo <= k:
                    lo, hi = 0, n
            # the largest cosines are the nearest points; rank a superset of
            # the k largest by exact distance (see _COS_MARGIN)
            # the query's unit vector, as _unit_vectors gives it for one point
            c = np.cos(r := np.radians((query.latitude, query.longitude)))
            s = np.sin(r)
            cos = self.xyz[lo:hi] @ (c[0] * c[1], c[0] * s[1], s[0])
            kth = np.partition(cos, hi - lo - k)[hi - lo - k]
            pos = lo + np.flatnonzero(cos >= kth - _COS_MARGIN)
            dist = geodesic_km_many(query, self.lats[pos], self.lons[pos])
        else:
            pos = np.arange(n)
            dist = geodesic_km_many(query, self.lats, self.lons)
        # candidates are in canonical order, so a stable sort on distance
        # ranks them on (distance, latitude, longitude, value); the faster
        # default sort gives the same first k when their distances and the
        # next one's are all distinct
        rank = np.argsort(dist)
        head = dist[rank[: k + 1]]
        if (head[1:] == head[:-1]).any():
            rank = np.argsort(dist, kind="stable")
        pick = rank[:k]
        return self.order[pos[pick]], dist[pick]


def _weighted_value(dist: np.ndarray, values: np.ndarray, params: KnnParams) -> float:
    if params.p > 0.0:
        coincident = dist <= EPSILON_KM
        if coincident.any():
            return float(values[coincident].mean())
    w = 1.0 / np.maximum(dist, EPSILON_KM) ** params.p
    w = w / w.sum()
    return float(w @ values)


def _hops_km(queries: Sequence[GeoPoint]) -> np.ndarray:
    """Great-circle distance from each query to the next."""
    lats = np.fromiter((q.latitude for q in queries), np.float64, len(queries))
    lons = np.fromiter((q.longitude for q in queries), np.float64, len(queries))
    return haversine_km(lats[:-1], lons[:-1], lats[1:], lons[1:])


def _interpolate(
    ps: PointSet, queries: Sequence[GeoPoint], pairs: Sequence[KnnParams]
) -> np.ndarray:
    """(len(pairs), len(queries)) interpolated values; each query is ranked
    once, for the largest K that a pair needs, and every pair reads a prefix."""
    n = len(ps)
    out = np.empty((len(pairs), len(queries)), dtype=np.float64)
    ks = [n if params.k is None else min(params.k, n) for params in pairs]
    ranked = []
    for row, (k, params) in enumerate(zip(ks, pairs)):
        if params.p == 0.0 and k == n:
            # uniform weights over every point: the query-independent global
            # mean, summed in a canonical order so every cell gets the same bits
            out[row] = float(np.sort(ps.values).mean())
        else:
            ranked.append((row, k, params))
    if ranked:
        k_max = max(k for _, k, _ in ranked)
        hops = _hops_km(queries)
        within = None
        for col, query in enumerate(queries):
            idx, dist = ps.k_nearest(query, k_max, within_km=within)
            if col < len(hops):
                # the k_max points just found lie within dist[-1] of this
                # query, so within that plus the hop of the next one
                within = float(dist[-1] + hops[col])
            values = ps.values[idx]
            for row, k, params in ranked:
                out[row, col] = _weighted_value(dist[:k], values[:k], params)
    return out


def knn_interpolate(points: PointSet, query: GeoPoint, params: KnnParams) -> float:
    """Interpolated ppm value at `query` from the measured points."""
    return float(_interpolate(points, [query], [params])[0, 0])


@dataclass(frozen=True)
class Grid:
    """A rasterized prediction surface; values row-major north-to-south."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        expected = self.spec.nrows * self.spec.ncols
        if self.values.shape != (expected,):
            raise ValueError(f"grid values must have length {expected}")

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def std(self) -> float:
        # population convention; constant grids are exactly zero (np.std alone
        # leaves ~1e-14 residue from rounding in the mean)
        if self.values.size == 0 or np.all(self.values == self.values[0]):
            return 0.0
        return float(self.values.std())


def rasterize_many(points: PointSet, spec: GridSpec, pairs: Sequence[KnnParams]) -> list[Grid]:
    """One grid per KnnParams pair, every cell ranked once for all of them."""
    values = _interpolate(points, cell_centers(spec), pairs)
    return [Grid(spec=spec, values=row) for row in values]


def rasterize(points: PointSet, spec: GridSpec, params: KnnParams) -> Grid:
    """knn_interpolate at every cell center of the grid."""
    return rasterize_many(points, spec, [params])[0]


@dataclass(frozen=True)
class SweepRow:
    k: Optional[int]
    p: float
    mean_ppm: float
    std_ppm: float


SWEEP_CSV_HEADER = "k,p,mean_ppm,std_ppm"


def format_k(k: Optional[int]) -> str:
    return "all" if k is None else str(k)


def sweep(
    points: PointSet,
    spec: GridSpec,
    k_list: Sequence[Optional[int]] = DEFAULT_K_LIST,
    p_list: Sequence[float] = DEFAULT_P_LIST,
) -> list[SweepRow]:
    """One rasterization per (k, p) pair; rows are k-major."""
    if not k_list or not p_list:
        raise ValueError("sweep needs non-empty k and p lists")
    pairs = [KnnParams(k=k, p=p) for k in k_list for p in p_list]
    grids = rasterize_many(points, spec, pairs)
    return [
        SweepRow(k=params.k, p=params.p, mean_ppm=grid.mean, std_ppm=grid.std)
        for params, grid in zip(pairs, grids)
    ]


def write_grid_csv(grid: Grid, path) -> None:
    """Long-form CSV: one row per cell, same order as the values array."""
    centers = cell_centers(grid.spec)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("latitude_deg,longitude_deg,co2_ppm\n")
        for c, v in zip(centers, grid.values):
            fh.write(f"{c.latitude!r},{c.longitude!r},{float(v)!r}\n")


def write_ascii_grid(grid: Grid, path) -> None:
    """ESRI ASCII raster; data rows run north to south."""
    spec = grid.spec
    rows = grid.values.reshape(spec.nrows, spec.ncols)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"ncols {spec.ncols}\n")
        fh.write(f"nrows {spec.nrows}\n")
        fh.write(f"xllcorner {spec.bbox.west!r}\n")
        fh.write(f"yllcorner {spec.bbox.south!r}\n")
        fh.write(f"cellsize {spec.resolution!r}\n")
        fh.write("NODATA_value -9999\n")
        for row in rows:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def write_pgm(grid: Grid, path, extra_meta: Optional[dict] = None) -> None:
    """8-bit binary PGM, min/max scaled; scaling recorded in a .txt sidecar."""
    spec = grid.spec
    lo = float(grid.values.min())
    hi = float(grid.values.max())
    if hi > lo:
        scaled = np.rint((grid.values - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        scaled = np.zeros(grid.values.shape, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{spec.ncols} {spec.nrows}\n255\n".encode("ascii"))
        fh.write(scaled.tobytes())
    meta = {
        "min_ppm": repr(lo),
        "max_ppm": repr(hi),
        "ncols": str(spec.ncols),
        "nrows": str(spec.nrows),
    }
    if extra_meta:
        meta.update({k: str(v) for k, v in extra_meta.items()})
    with open(str(path) + ".txt", "w", encoding="utf-8") as fh:
        for key in sorted(meta):
            fh.write(f"{key} = {meta[key]}\n")
