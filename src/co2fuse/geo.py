"""Spherical geometry primitives: great-circle distance and raster grids.

All distances are haversine on a sphere of radius EARTH_RADIUS_KM. At the
25 km matching scales used by the pipeline the sub-0.5% sphere-vs-ellipsoid
error is immaterial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A point on the sphere, decimal degrees.

    Latitude must lie in [-90, 90]; longitude is normalized into [-180, 180).
    """

    latitude: float
    longitude: float

    def __post_init__(self):
        if not (math.isfinite(self.latitude) and math.isfinite(self.longitude)):
            raise ValueError("coordinates must be finite")
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude {self.latitude} out of [-90, 90]")
        lon = math.fmod(self.longitude + 180.0, 360.0)
        if lon < 0.0:
            lon += 360.0
        object.__setattr__(self, "longitude", lon - 180.0)


@dataclass(frozen=True)
class BoundingBox:
    """Geodesic rectangle given by its south/west/north/east edges (degrees).

    Boxes spanning the antimeridian are rejected (v1 restriction).
    """

    south: float
    west: float
    north: float
    east: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.south, self.west, self.north, self.east))):
            raise ValueError("bounding box edges must be finite")
        if not (-90.0 <= self.south < self.north <= 90.0):
            raise ValueError("bounding box requires -90 <= south < north <= 90")
        if not (-180.0 <= self.west < self.east <= 180.0):
            raise ValueError(
                "bounding box requires -180 <= west < east <= 180 "
                "(antimeridian-spanning boxes are not supported)"
            )

    @classmethod
    def parse(cls, text: str) -> "BoundingBox":
        """Parse the CLI form 'S,W,N,E' in decimal degrees."""
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError(f"expected 'S,W,N,E', got {text!r}")
        s, w, n, e = (float(p) for p in parts)
        return cls(s, w, n, e)


@dataclass(frozen=True)
class GridSpec:
    """A raster over a bounding box with square cells of `resolution` degrees."""

    bbox: BoundingBox
    resolution: float

    def __post_init__(self):
        if not (math.isfinite(self.resolution) and self.resolution > 0.0):
            raise ValueError("resolution must be > 0")
        if self.nrows < 1 or self.ncols < 1:
            raise ValueError("grid spec yields zero cells; enlarge bbox or shrink resolution")

    @property
    def nrows(self) -> int:
        # small guard so resolutions that exactly divide the extent are not
        # truncated by floating-point representation (e.g. 1.0 / 0.1)
        return int((self.bbox.north - self.bbox.south) / self.resolution + 1e-9)

    @property
    def ncols(self) -> int:
        return int((self.bbox.east - self.bbox.west) / self.resolution + 1e-9)


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in kilometers (haversine) between broadcast
    arrays of coordinates in degrees.

    Symmetric and non-negative; exact zero for identical points.
    """
    p1 = np.radians(lat1)
    p2 = np.radians(lat2)
    dlat = p2 - p1
    dlon = np.radians(np.subtract(lon2, lon1))
    h = np.sin(dlat / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlon / 2.0) ** 2
    # clamp against rounding before the asin
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def geodesic_km_many(origin: GeoPoint, latitudes, longitudes):
    """Haversine from one origin to arrays of coordinates (vectorized)."""
    return haversine_km(origin.latitude, origin.longitude, latitudes, longitudes)


def cell_centers(spec: GridSpec) -> list[GeoPoint]:
    """Cell centers in row-major order, north to south then west to east.

    Center latitudes are bbox.south + (i + 0.5) * resolution; all centers lie
    strictly inside the box.
    """
    res = spec.resolution
    nrows, ncols = spec.nrows, spec.ncols
    centers = []
    for i in range(nrows):
        lat = spec.bbox.south + (nrows - 1 - i + 0.5) * res
        for j in range(ncols):
            lon = spec.bbox.west + (j + 0.5) * res
            centers.append(GeoPoint(lat, lon))
    return centers
