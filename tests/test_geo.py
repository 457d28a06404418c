import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from co2fuse.geo import (
    BoundingBox,
    GeoPoint,
    GridSpec,
    cell_centers,
    geodesic_km_many,
    wrap_longitudes,
)

from oracles import law_of_cosines_km, reference_cell_centers

latitudes = st.floats(min_value=-90.0, max_value=90.0)
longitudes = st.floats(min_value=-180.0, max_value=179.999)
points = st.builds(GeoPoint, latitudes, longitudes)


def distance_km(a, b):
    """geodesic_km_many from a to the one-element arrays of b."""
    (d,) = geodesic_km_many((a.latitude, a.longitude), np.array([b.latitude]),
                            np.array([b.longitude]))
    return float(d)


def test_identity_distance_is_zero():
    assert distance_km(GeoPoint(0, 0), GeoPoint(0, 0)) == 0.0


def test_antipodal_distance_is_pi_r():
    d = distance_km(GeoPoint(0, 0), GeoPoint(0, 180))
    assert d == pytest.approx(math.pi * 6371.0, abs=0.01)
    assert d == pytest.approx(law_of_cosines_km(0, 0, 0, 180), abs=0.01)


def test_pole_distance_is_half_pi_r():
    d = distance_km(GeoPoint(0, 0), GeoPoint(90, 0))
    assert d == pytest.approx(math.pi * 6371.0 / 2.0, abs=0.01)
    assert d == pytest.approx(law_of_cosines_km(0, 0, 90, 0), abs=0.01)


@given(points, points)
def test_symmetry_exact(a, b):
    assert distance_km(a, b) == distance_km(b, a)


@given(points, points, points)
def test_triangle_inequality(a, b, c):
    assert distance_km(a, c) <= distance_km(a, b) + distance_km(b, c) + 1e-6


@given(points, points)
def test_agrees_with_law_of_cosines(a, b):
    # the law-of-cosines oracle is ill-conditioned near zero; compare where sane
    d = distance_km(a, b)
    if d > 1.0:
        oracle = law_of_cosines_km(a.latitude, a.longitude, b.latitude, b.longitude)
        assert d == pytest.approx(oracle, abs=1e-3)


def test_geopoint_validation():
    with pytest.raises(ValueError):
        GeoPoint(95.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(float("nan"), 0.0)
    assert GeoPoint(0.0, 190.0).longitude == -170.0
    assert GeoPoint(0.0, 180.0).longitude == -180.0


def test_bbox_validation():
    with pytest.raises(ValueError):
        BoundingBox(10, 0, 5, 10)  # south >= north
    with pytest.raises(ValueError):
        BoundingBox(0, 170, 10, -170)  # antimeridian span
    box = BoundingBox.parse("52,8,58,16")
    assert (box.south, box.west, box.north, box.east) == (52, 8, 58, 16)
    with pytest.raises(ValueError):
        BoundingBox.parse("1,2,3")


def bits(values) -> bytes:
    """The float64 bytes of a sequence of numbers, to compare bit for bit."""
    return np.asarray(values, dtype=np.float64).tobytes()


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
@example([-180.0, 180.0, 540.0, -0.0, math.nextafter(180.0, 0.0),
          math.nextafter(-180.0, -math.inf)])
def test_wrap_longitudes_equals_geopoint_bit_for_bit(lons):
    column = np.array(lons)
    assert wrap_longitudes(column) is column  # in place
    assert bits(column) == bits([GeoPoint(0.0, lon).longitude for lon in lons])


def centers(spec):
    """The cell centers as a list of (latitude, longitude) pairs."""
    return list(zip(*(c.tolist() for c in cell_centers(spec))))


def test_single_cell_center():
    spec = GridSpec(BoundingBox(0, 0, 1, 1), 1.0)
    assert centers(spec) == [(0.5, 0.5)]


def test_two_cell_centers_west_to_east():
    spec = GridSpec(BoundingBox(0, 0, 1, 2), 1.0)
    assert centers(spec) == [(0.5, 0.5), (0.5, 1.5)]


def test_sixteen_cells_quarter_degree():
    spec = GridSpec(BoundingBox(55, 13, 56, 14), 0.25)
    got = centers(spec)
    assert len(got) == 16
    # row-major: first row is the northmost, scanning west to east
    assert got[0] == (55.875, 13.125)
    assert got[1] == (55.875, 13.375)
    assert got[-1] == (55.125, 13.875)


@pytest.mark.parametrize("res", [1.0, 0.5, 0.25, 0.1])
def test_cell_count_for_dividing_resolutions(res):
    spec = GridSpec(BoundingBox(50, 10, 53, 12), res)
    expected = round(3 / res) * round(2 / res)
    lats, lons = cell_centers(spec)
    assert len(lats) == len(lons) == expected


def test_centers_strictly_inside_bbox():
    spec = GridSpec(BoundingBox(50, 10, 53.3, 12.7), 0.4)
    lats, lons = cell_centers(spec)
    assert ((50 < lats) & (lats < 53.3)).all()
    assert ((10 < lons) & (lons < 12.7)).all()


@pytest.mark.parametrize("bbox", [
    BoundingBox(52.0, 8.0, 58.0, 16.0),
    BoundingBox(60.0, -17.0, 70.0, 64.0),
    BoundingBox(-10.0, -180.0, 10.0, -150.0),
    BoundingBox(-10.0, 150.0, 10.0, 180.0),
    BoundingBox(-3.3, -180.0, 2.9, 180.0),
], ids=["synth", "north-europe", "west-180", "east180", "whole-width"])
@pytest.mark.parametrize("res", [0.1, 0.25, 0.5, 1.0])
def test_cell_centers_equal_the_per_cell_loop_bit_for_bit(bbox, res):
    lats, lons = cell_centers(GridSpec(bbox, res))
    want = reference_cell_centers(GridSpec(bbox, res))
    assert bits(lats) == bits([c.latitude for c in want])
    assert bits(lons) == bits([c.longitude for c in want])


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(BoundingBox(0, 0, 1, 1), 0.0)
    with pytest.raises(ValueError):
        GridSpec(BoundingBox(0, 0, 1, 1), -0.5)
    with pytest.raises(ValueError):
        GridSpec(BoundingBox(0, 0, 0.4, 1), 0.5)  # zero rows
