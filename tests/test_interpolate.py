import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from co2fuse.errors import EmptyDatasetError
from co2fuse.geo import (
    EARTH_RADIUS_KM,
    BoundingBox,
    GeoPoint,
    GridSpec,
    cell_centers,
    haversine_km,
)
from co2fuse.interpolate import (
    _BAND_PAD_KM,
    Grid,
    KnnParams,
    PointSet,
    knn_interpolate,
    rasterize,
    rasterize_many,
    sweep,
    write_ascii_grid,
    write_grid_csv,
    write_pgm,
)

from oracles import fullscan_k_nearest, naive_knn, point_columns, point_set, reference_sweep

DEG_PER_KM = 180.0 / (math.pi * 6371.0)


def random_points(rng, n, lat=(-60, 60), lon=(-179, 179)):
    """(lats, lons, values) columns of n random points."""
    return point_columns(zip(rng.uniform(*lat, n), rng.uniform(*lon, n), rng.normal(410, 5, n)))


def test_hand_weighted_case():
    # neighbors at 1 km and 2 km with values 10 and 20: weights {1, 1/2}
    # normalize to {2/3, 1/3} so the estimate is 13.333...
    pts = point_set([(DEG_PER_KM, 0.0, 10.0), (-2 * DEG_PER_KM, 0.0, 20.0)])
    v = knn_interpolate(pts, GeoPoint(0, 0), KnnParams(k=2, p=1.0))
    assert v == pytest.approx(40.0 / 3.0, abs=1e-9)


def test_k1_returns_nearest_value():
    pts = point_set([(DEG_PER_KM, 0.0, 10.0), (-2 * DEG_PER_KM, 0.0, 20.0)])
    assert knn_interpolate(pts, GeoPoint(0, 0), KnnParams(k=1, p=1.0)) == 10.0


def test_p0_k_all_is_plain_mean():
    pts = point_set([(1, 1, 5.0), (2, 2, 7.0), (3, 3, 9.0)])
    assert knn_interpolate(pts, GeoPoint(0, 0), KnnParams(k=None, p=0.0)) == pytest.approx(7.0)


def test_exact_hit_returns_measurement():
    pts = point_set([(10.0, 20.0, 444.0), (11.0, 20.0, 400.0), (10.0, 21.0, 401.0)])
    got = knn_interpolate(pts, GeoPoint(10.0, 20.0), KnnParams(k=3, p=1.0))
    assert got == 444.0


def test_coincident_points_average():
    pts = point_set([(10.0, 20.0, 440.0), (10.0, 20.0, 450.0), (12.0, 20.0, 400.0)])
    got = knn_interpolate(pts, GeoPoint(10.0, 20.0), KnnParams(k=3, p=2.0))
    assert got == pytest.approx(445.0)


def test_empty_points_rejected():
    with pytest.raises(EmptyDatasetError):
        PointSet([], [], [])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "lats, lons, values, error",
    [
        ([0.0, 1.0], [0.0, 1.0], [410.0, NAN], ValueError),
        ([0.0, 1.0], [0.0, 1.0], [410.0, INF], ValueError),
        ([0.0, 1.0], [0.0, 1.0], [-INF, 410.0], ValueError),
        ([0.0, NAN], [0.0, 1.0], [410.0, 411.0], ValueError),
        ([0.0, 91.0], [0.0, 1.0], [410.0, 411.0], ValueError),
        ([0.0, -91.0], [0.0, 1.0], [410.0, 411.0], ValueError),
        ([0.0, 1.0], [0.0, 180.0], [410.0, 411.0], ValueError),
        ([0.0, 1.0], [0.0, -180.5], [410.0, 411.0], ValueError),
        ([0.0, 1.0], [0.0, INF], [410.0, 411.0], ValueError),
        ([0.0, 1.0], [0.0], [410.0, 411.0], ValueError),
        ([0.0, 1.0], [0.0, 1.0], [410.0], ValueError),
        ([[0.0, 1.0]], [[0.0, 1.0]], [[410.0, 411.0]], ValueError),
        ([0.0, 1.0], [[0.0, 1.0]], [410.0, 411.0], ValueError),
        ([], [], [], EmptyDatasetError),
    ],
)
def test_point_set_checks_its_columns(lats, lons, values, error):
    with pytest.raises(error):
        PointSet(np.array(lats), np.array(lons), np.array(values))


def test_point_set_keeps_no_view_of_the_callers_arrays():
    rng = np.random.default_rng(19)
    X = np.column_stack((*random_points(rng, 60), rng.normal(size=60)))
    ps = PointSet(X[:, 0], X[:, 1], X[:, 2])
    query, params = GeoPoint(5.0, 20.0), KnnParams(k=7, p=1.0)
    spec = GridSpec(BoundingBox(-10, -10, 10, 30), 5.0)
    before = (knn_interpolate(ps, query, params), rasterize(ps, spec, params).values.tobytes())
    X[:, 0] = -X[:, 0]
    X[:, 1] = 0.0
    X[:, 2] = 0.0
    after = (knn_interpolate(ps, query, params), rasterize(ps, spec, params).values.tobytes())
    assert after == before


def test_params_validation():
    with pytest.raises(ValueError):
        KnnParams(k=0, p=1.0)
    with pytest.raises(ValueError):
        KnnParams(k=1, p=-0.5)
    # the coincidence radius is a module constant, not a parameter
    assert [f.name for f in dataclasses.fields(KnnParams)] == ["k", "p"]


def test_index_matches_naive_oracle_on_random_instances():
    rng = np.random.default_rng(17)
    for trial in range(60):
        n = int(rng.integers(2, 240))
        pts = random_points(rng, n)
        ps = PointSet(*pts)
        raw = list(zip(*pts))
        for _ in range(3):
            q = GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-179, 179)))
            k = int(rng.integers(1, n + 1))
            p = float(rng.choice([0.0, 0.2, 1.0, 2.0]))
            got = knn_interpolate(ps, q, KnnParams(k=k, p=p))
            want = naive_knn(raw, q.latitude, q.longitude, k, p)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


# queries at the poles, on and next to the antimeridian, and elsewhere
QUERY_SITES = ((90.0, 0.0), (-90.0, 37.5), (0.0, 180.0), (12.5, -179.75), (45.25, 10.5))


@st.composite
def tie_prone_searches(draw):
    """A query and points built to tie with each other: duplicated and
    coincident points, a 0.25-degree lattice around the query (so points
    mirrored across it lie on equal-distance rings), poles, both sides of the
    antimeridian and the query's antipode, with values from a short list."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    qlat, qlon = draw(st.sampled_from(QUERY_SITES))
    values = draw(st.sampled_from(((410.0,), (400.0, 410.0), (400.0, 405.0, 410.0, 415.0))))
    points = []  # (lat, lon, value), the location normalized by GeoPoint
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(
            ("lattice", "duplicate", "coincident", "pole", "antimeridian", "antipode", "real")
        ))
        if kind == "duplicate" and points:
            lat, lon, _ = points[int(rng.integers(len(points)))]
        elif kind == "coincident":
            lat, lon = qlat, qlon
        elif kind == "pole":
            lat, lon = float(rng.choice((-90.0, 90.0))), 0.25 * int(rng.integers(-720, 720))
        elif kind == "antimeridian":
            lat = 0.25 * int(rng.integers(-8, 9))
            lon = float(rng.choice((180.0, -180.0))) + 0.25 * int(rng.integers(-2, 3))
        elif kind == "antipode":
            lat = float(np.clip(-qlat + 0.25 * int(rng.integers(-2, 3)), -90.0, 90.0))
            lon = qlon + 180.0 + 0.25 * int(rng.integers(-2, 3))
        elif kind == "real":
            lat, lon = float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180))
        else:
            lat = float(np.clip(qlat + 0.25 * int(rng.integers(-4, 5)), -90.0, 90.0))
            lon = qlon + 0.25 * int(rng.integers(-4, 5))
        loc = GeoPoint(lat, lon)
        points.append((loc.latitude, loc.longitude, float(rng.choice(values))))
    return tuple(np.array(c) for c in zip(*points)), GeoPoint(qlat, qlon)


@settings(max_examples=300, deadline=None)
@given(tie_prone_searches())
def test_k_nearest_matches_fullscan_oracle_bit_for_bit(search):
    (lats, lons, values), query = search
    ps = PointSet(lats, lons, values)
    for k in range(1, len(values) + 1):
        idx, dist = ps.k_nearest(query, k)
        want_idx, want_dist = fullscan_k_nearest(lats, lons, values, query, k)
        assert idx.dtype == want_idx.dtype and idx.tobytes() == want_idx.tobytes(), k
        assert dist.dtype == want_dist.dtype and dist.tobytes() == want_dist.tobytes(), k


def _band_size(lats, query, within_km) -> int:
    """Points whose latitude is within the padded bound of the query's."""
    reach = math.degrees((within_km + _BAND_PAD_KM) / EARTH_RADIUS_KM)
    return int((np.abs(np.asarray(lats) - query.latitude) <= reach).sum())


@st.composite
def bounded_searches(draw):
    """A tie-prone search and an earlier query, not adjacent to it: any query
    site, a lattice step away from the query, or the query itself (whose own
    k-th distance is the tightest bound there is)."""
    (lats, lons, values), query = draw(tie_prone_searches())
    kind = draw(st.sampled_from(("site", "lattice", "same")))
    if kind == "site":
        earlier = GeoPoint(*draw(st.sampled_from(QUERY_SITES)))
    elif kind == "lattice":
        dlat, dlon = (0.25 * draw(st.integers(-40, 40)) for _ in range(2))
        earlier = GeoPoint(float(np.clip(query.latitude + dlat, -90.0, 90.0)),
                           query.longitude + dlon)
    else:
        earlier = query
    return (lats, lons, values), query, earlier


@settings(max_examples=300, deadline=None)
@given(bounded_searches())
def test_k_nearest_with_a_bound_from_an_earlier_query_matches_fullscan(search):
    # the earlier query's k nearest lie within its k-th distance plus the hop
    # to this query, so that sum bounds this query's k nearest
    (lats, lons, values), query, earlier = search
    ps = PointSet(lats, lons, values)
    hop = float(haversine_km(earlier.latitude, earlier.longitude,
                             query.latitude, query.longitude))
    for k in range(1, len(values) + 1):
        earlier_dist = fullscan_k_nearest(lats, lons, values, earlier, k)[1]
        idx, dist = ps.k_nearest(query, k, within_km=float(earlier_dist[-1]) + hop)
        want_idx, want_dist = fullscan_k_nearest(lats, lons, values, query, k)
        assert idx.dtype == want_idx.dtype and idx.tobytes() == want_idx.tobytes(), k
        assert dist.dtype == want_dist.dtype and dist.tobytes() == want_dist.tobytes(), k


def test_k_nearest_falls_back_to_the_full_scan_when_the_band_holds_k_points():
    # at the pole a distance is the colatitude, so the band of the query's own
    # k-th distance holds just the k nearest, unless the k-th ties the next
    lats = np.array([89.0, 88.5, 88.5, 88.0, 87.0, 80.0, 70.0, -10.0])
    lons = np.array([0.0, 90.0, -90.0, 45.0, -180.0, 10.0, 20.0, 30.0])
    values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    ps, query = PointSet(lats, lons, values), GeoPoint(90.0, 0.0)
    held = []
    for k in range(1, len(values)):
        within = float(fullscan_k_nearest(lats, lons, values, query, k)[1][-1])
        held.append(_band_size(lats, query, within) <= k)
        idx, dist = ps.k_nearest(query, k, within_km=within)
        want_idx, want_dist = fullscan_k_nearest(lats, lons, values, query, k)
        assert idx.tobytes() == want_idx.tobytes() and dist.tobytes() == want_dist.tobytes(), k
    assert any(held) and not all(held)


@st.composite
def tie_prone_sweeps(draw):
    """Tie-prone points, a grid of up to 3 x 3 cells of 0.25 degrees around
    the query site, and k and p lists: unsorted, with duplicates, k beyond
    the point count, K = all present or not, p = 0 present or not. Values
    are either from a short list or all distinct, so that sums of them
    depend on the order they are added in."""
    (lats, lons, values), query = draw(tie_prone_searches())
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = np.array([float(rng.normal(410.0, 5.0)) for _ in values])
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    south = float(np.clip(query.latitude - 0.25, -90.0, 90.0 - 0.25 * rows))
    west = float(np.clip(query.longitude - 0.25, -180.0, 180.0 - 0.25 * cols))
    spec = GridSpec(BoundingBox(south, west, south + 0.25 * rows, west + 0.25 * cols), 0.25)
    k_list = draw(st.lists(st.one_of(st.none(), st.integers(1, 45)), min_size=1, max_size=5))
    p_list = draw(st.lists(st.sampled_from((0.0, 0.05, 0.2, 1.0, 2.0)), min_size=1, max_size=4))
    return (lats, lons, values), spec, k_list, p_list


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=200, deadline=None)
@given(tie_prone_sweeps())
def test_sweep_matches_per_pair_oracle_bit_for_bit(case):
    columns, spec, k_list, p_list = case
    want_rows, want_grids = reference_sweep(*columns, spec, k_list, p_list)
    points = PointSet(*columns)
    rows = sweep(points, spec, k_list, p_list)
    assert [(r.k, r.p) for r in rows] == [(k, p) for k, p, _, _ in want_rows]
    for row, (_, _, mean, std) in zip(rows, want_rows):
        assert _bits(row.mean_ppm) == _bits(mean) and _bits(row.std_ppm) == _bits(std), row
    pairs = [KnnParams(k=k, p=p) for k in k_list for p in p_list]
    grids = rasterize_many(points, spec, pairs)
    for params, grid, want in zip(pairs, grids, want_grids):
        assert grid.values.tobytes() == want.tobytes(), params


class _BoundsSeen(PointSet):
    """A PointSet that records the query and bound of every search."""

    def k_nearest(self, query, k, *, within_km=None):
        self.bounds.append((query, within_km))
        return super().k_nearest(query, k, within_km=within_km)


@st.composite
def clustered_sweeps(draw):
    """A few hundred points in tight clusters over a 3 x 4 degree box, with
    duplicates and 0.05-degree lattice ties, a grid of at least 6 x 8 cells
    of 0.5 degrees over it, and K up to 45: each cell's bound then cuts a
    latitude band narrower than the points' extent."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = rng.uniform((50.5, 8.5), (52.5, 11.5), (draw(st.integers(3, 8)), 2))
    tie_values = draw(st.booleans())
    points = []
    for _ in range(draw(st.integers(200, 400))):
        lat, lon = centres[int(rng.integers(len(centres)))]
        kind = int(rng.integers(4))
        if kind == 0 and points:
            lat, lon, _ = points[int(rng.integers(len(points)))]
        elif kind == 1:
            lat, lon = lat + 0.05 * int(rng.integers(-4, 5)), lon + 0.05 * int(rng.integers(-4, 5))
        else:
            lat, lon = lat + rng.normal(0.0, 0.15), lon + rng.normal(0.0, 0.15)
        value = float(rng.choice((400.0, 410.0))) if tie_values else float(rng.normal(410, 5))
        points.append((float(lat), float(lon), value))
    rows, cols = draw(st.integers(6, 8)), draw(st.integers(8, 10))
    spec = GridSpec(BoundingBox(50.0, 8.0, 50.0 + 0.5 * rows, 8.0 + 0.5 * cols), 0.5)
    k_list = draw(st.lists(st.integers(1, 45), min_size=1, max_size=4))
    p_list = draw(st.lists(st.sampled_from((0.0, 0.05, 1.0, 2.0)), min_size=1, max_size=3))
    return point_columns(points), spec, k_list, p_list


@settings(max_examples=20, deadline=None)
@given(clustered_sweeps())
def test_sweep_over_narrow_bands_matches_per_pair_oracle_bit_for_bit(case):
    columns, spec, k_list, p_list = case
    want_rows, want_grids = reference_sweep(*columns, spec, k_list, p_list)
    points = _BoundsSeen(*columns)
    points.bounds = []
    rows = sweep(points, spec, k_list, p_list)
    for row, (_, _, mean, std) in zip(rows, want_rows):
        assert _bits(row.mean_ppm) == _bits(mean) and _bits(row.std_ppm) == _bits(std), row
    pairs = [KnnParams(k=k, p=p) for k in k_list for p in p_list]
    for params, grid, want in zip(pairs, rasterize_many(points, spec, pairs), want_grids):
        assert grid.values.tobytes() == want.tobytes(), params
    bands = [_band_size(columns[0], query, within)
             for query, within in points.bounds if within is not None]
    assert bands and min(bands) < len(points)


def test_convexity_of_estimates():
    rng = np.random.default_rng(23)
    pts = random_points(rng, 120)
    values = pts[2]
    lo, hi = min(values), max(values)
    ps = PointSet(*pts)
    for _ in range(40):
        q = GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-179, 179)))
        k = int(rng.integers(1, 121))
        p = float(rng.uniform(0, 3))
        got = knn_interpolate(ps, q, KnnParams(k=k, p=p))
        assert lo - 1e-9 <= got <= hi + 1e-9


def test_permutation_invariance_exact():
    rng = np.random.default_rng(29)
    pts = random_points(rng, 50)
    shuffled = list(zip(*pts))
    rng.shuffle(shuffled)
    pts, shuffled = PointSet(*pts), PointSet(*map(np.array, zip(*shuffled)))
    qs = [GeoPoint(float(rng.uniform(-50, 50)), float(rng.uniform(-170, 170)))
          for _ in range(10)]
    for q in qs:
        for k, p in ((3, 1.0), (None, 0.0), (10, 0.2)):
            a = knn_interpolate(pts, q, KnnParams(k=k, p=p))
            b = knn_interpolate(shuffled, q, KnnParams(k=k, p=p))
            assert a == b


def test_antimeridian_neighbors_found():
    # the search must see across the date line
    pts = point_set([(0.0, 179.9, 100.0), (0.0, -179.9, 200.0), (0.0, 0.0, 300.0)])
    got = knn_interpolate(pts, GeoPoint(0.0, -179.95), KnnParams(k=2, p=0.0))
    assert got == pytest.approx(150.0)


def test_index_matches_oracle_across_antimeridian():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(5, 120))
        lons = np.where(rng.random(n) < 0.5,
                        rng.uniform(175, 180, n), rng.uniform(-180, -175, n))
        lats = rng.uniform(-40, 40, n)
        values = rng.normal(410, 5, n)
        pts = point_set(zip(lats, lons, values))
        q = GeoPoint(float(rng.uniform(-40, 40)),
                     float(rng.choice([179.7, -179.7, 178.0, -178.0])))
        k = int(rng.integers(1, n + 1))
        got = knn_interpolate(pts, q, KnnParams(k=k, p=1.0))
        want = naive_knn(list(zip(lats, lons, values)), q.latitude, q.longitude, k, 1.0)
        assert got == pytest.approx(want, rel=1e-9)


def test_index_matches_oracle_near_poles():
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = int(rng.integers(5, 120))
        lats = rng.uniform(80, 90, n)
        lons = rng.uniform(-179, 179, n)
        values = rng.normal(410, 5, n)
        pts = point_set(zip(lats, lons, values))
        q = GeoPoint(float(rng.uniform(80, 90)), float(rng.uniform(-179, 179)))
        k = int(rng.integers(1, n + 1))
        got = knn_interpolate(pts, q, KnnParams(k=k, p=0.5))
        want = naive_knn(list(zip(lats, lons, values)), q.latitude, q.longitude, k, 0.5)
        assert got == pytest.approx(want, rel=1e-9)


def test_single_point_grid_uniform():
    spec = GridSpec(BoundingBox(50, 10, 52, 12), 0.5)
    grid = rasterize(point_set([(51, 11, 415.0)]), spec, KnnParams(k=5, p=1.0))
    assert np.all(grid.values == 415.0)
    assert grid.std == 0.0


def test_k_all_p0_grid_std_exactly_zero():
    rng = np.random.default_rng(31)
    pts = PointSet(*random_points(rng, 200, lat=(50, 52), lon=(10, 12)))
    spec = GridSpec(BoundingBox(50, 10, 52, 12), 0.25)
    grid = rasterize(pts, spec, KnnParams(k=None, p=0.0))
    assert grid.std == 0.0


def test_rasterize_matches_per_cell_oracle():
    rng = np.random.default_rng(37)
    pts = random_points(rng, 100, lat=(50, 53), lon=(10, 14))
    raw = list(zip(*pts))
    spec = GridSpec(BoundingBox(50, 10, 53, 14), 0.4)
    params = KnnParams(k=5, p=1.0)
    grid = rasterize(PointSet(*pts), spec, params)
    for center, got in zip(cell_centers(spec), grid.values):
        want = naive_knn(raw, center.latitude, center.longitude, 5, 1.0)
        assert got == pytest.approx(want, rel=1e-9)


def test_sweep_default_grid_is_twelve_rows():
    rng = np.random.default_rng(41)
    pts = random_points(rng, 150, lat=(50, 53), lon=(10, 14))
    spec = GridSpec(BoundingBox(50, 10, 53, 14), 1.0)
    rows = sweep(PointSet(*pts), spec)
    assert len(rows) == 12
    values = pts[2]
    for row in rows:
        assert min(values) <= row.mean_ppm <= max(values)
    by_key = {(r.k, r.p): r for r in rows}
    assert by_key[(None, 0.0)].std_ppm == 0.0


def test_sweep_rejects_empty_lists():
    with pytest.raises(ValueError):
        sweep(point_set([(0, 0, 1.0)]), GridSpec(BoundingBox(-1, -1, 1, 1), 1.0), k_list=())


def test_grid_requires_matching_length():
    spec = GridSpec(BoundingBox(50, 10, 52, 12), 1.0)
    with pytest.raises(ValueError):
        Grid(spec=spec, values=np.zeros(3))


def test_writers(tmp_path):
    spec = GridSpec(BoundingBox(50, 10, 52, 13), 1.0)
    grid = Grid(spec=spec, values=np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    csv_path = tmp_path / "g.csv"
    asc_path = tmp_path / "g.asc"
    pgm_path = tmp_path / "g.pgm"
    write_grid_csv(grid, csv_path)
    write_ascii_grid(grid, asc_path)
    write_pgm(grid, pgm_path, extra_meta={"k": "5"})

    lines = csv_path.read_text().splitlines()
    assert lines[0] == "latitude_deg,longitude_deg,co2_ppm"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert float(first[0]) == 51.5 and float(first[1]) == 10.5  # north-west cell

    asc = asc_path.read_text().splitlines()
    assert asc[0] == "ncols 3" and asc[1] == "nrows 2"
    assert asc[2].startswith("xllcorner 10") and asc[3].startswith("yllcorner 50")
    assert [float(v) for v in asc[6].split()] == [1.0, 2.0, 3.0]

    blob = pgm_path.read_bytes()
    assert blob.startswith(b"P5\n3 2\n255\n")
    pixels = blob.split(b"255\n", 1)[1]
    assert len(pixels) == 6
    assert pixels[0] == 0 and pixels[-1] == 255  # min/max scaling
    sidecar = (tmp_path / "g.pgm.txt").read_text()
    assert "min_ppm = 1.0" in sidecar and "max_ppm = 6.0" in sidecar and "k = 5" in sidecar


def test_pgm_constant_grid(tmp_path):
    spec = GridSpec(BoundingBox(50, 10, 51, 11), 1.0)
    grid = Grid(spec=spec, values=np.array([7.0]))
    write_pgm(grid, tmp_path / "c.pgm")
    blob = (tmp_path / "c.pgm").read_bytes()
    assert blob.endswith(b"\x00")
