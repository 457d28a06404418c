import logging
import re
from datetime import datetime, timedelta, timezone
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from co2fuse import fusion, ingest
from co2fuse.errors import (
    EmptyDatasetError,
    NoDataError,
    StaleWeatherError,
)
from co2fuse.fusion import (
    FEATURE_NAMES,
    MatchConfig,
    build_dataset,
    match_stations,
    nearest_weather,
    split_by_station,
)
from co2fuse.geo import GeoPoint, geodesic_km_many
from co2fuse.errors import SchemaError
from co2fuse.ingest import (
    SoundingRecord,
    StationSeries,
    WeatherArchive,
    to_micros,
)

from oracles import (
    haversine_km,
    reference_epoch_years,
    reference_match_sounding,
    reference_nearest_weather,
    reference_series_index,
    reference_weather_nodes,
    station_catalog,
)

UTC = timezone.utc
T0 = datetime(2020, 6, 1, 12, 0, 0, tzinfo=UTC)


def sounding(lat=0.0, lon=0.0, t=T0, xco2=412.0):
    return SoundingRecord(t, GeoPoint(lat, lon), xco2, 0.5, 0)


# u10 .. total_cloud_cover of a test weather sample
WEATHER_FIELDS = (1.0, 2.0, 101325.0, 288.0, 289.0, 6.5e6, 20.0, 1200.0, 0.5)


def weather_columns(samples):
    """The archive of (time, GeoPoint, nine fields) samples."""
    return WeatherArchive(
        to_micros([t for t, _, _ in samples]),
        [p.latitude for _, p, _ in samples],
        [p.longitude for _, p, _ in samples],
        [fields for _, _, fields in samples],
    )


def numbered_weather(places):
    """The archive of (lat, lon, time) samples, u10 numbering them in order."""
    return weather_columns([(t, GeoPoint(lat, lon), (float(i),) + WEATHER_FIELDS[1:])
                            for i, (lat, lon, t) in enumerate(places)])


def series_columns(observations):
    """The series of (station_id, time, co2) observations, in their order."""
    return StationSeries(
        np.array([sid for sid, _, _ in observations], dtype=object),
        to_micros([t for _, t, _ in observations]),
        np.array([co2 for _, _, co2 in observations], dtype=np.float64),
    )


def sounding_columns(soundings):
    """The latitude, longitude and int64 UTC microsecond time columns of records."""
    return (np.array([s.location.latitude for s in soundings]),
            np.array([s.location.longitude for s in soundings]),
            to_micros([s.time for s in soundings]))


def match_one(s, catalog, observations, cfg=MatchConfig()):
    """The batched station match of one sounding: (station_id, co2 of the
    observation, distance), or None when no station qualifies."""
    series = series_columns(observations)
    (k,), (row,), (dist,) = match_stations(*sounding_columns([s]), catalog, series, cfg)
    return None if k < 0 else (catalog.station_id[k], series.co2[row], dist)


def test_match_within_radius_and_window():
    catalog = station_catalog([("A", 0, 0)])
    series = [("A", T0 + timedelta(minutes=10), 415.0)]
    hit = match_one(sounding(lat=0.0, lon=0.10), catalog, series)
    assert hit is not None
    sid, co2, dist = hit
    assert sid == "A"
    assert co2 == 415.0
    assert dist == pytest.approx(haversine_km(0, 0.10, 0, 0), abs=1e-9)
    assert dist < 25.0


def test_no_match_beyond_radius():
    catalog = station_catalog([("A", 0, 0)])
    series = [("A", T0, 415.0)]
    # ~30 km north of the station
    assert match_one(sounding(lat=0.27), catalog, series) is None


def test_no_match_outside_time_window():
    catalog = station_catalog([("A", 0, 0)])
    series = [("A", T0 + timedelta(minutes=90), 415.0)]
    assert match_one(sounding(), catalog, series) is None


def test_nearest_station_wins():
    catalog = station_catalog([
        ("FAR", 0.072, 0),   # ~8 km
        ("NEAR", 0.045, 0),  # ~5 km
    ])
    series = [
        ("FAR", T0, 410.0),
        ("NEAR", T0, 420.0),
    ]
    sid, co2, _ = match_one(sounding(), catalog, series)
    assert sid == "NEAR" and co2 == 420.0


# ids that other string orders put apart from Python's: numpy's <U strings
# drop the trailing NUL of "A\x00", and "\u00c4" (A with diaeresis) follows
# "Z" in code point order, where a locale's collation puts it next to "A"
@pytest.mark.parametrize("larger_first", [True, False])
@pytest.mark.parametrize("smaller, larger", [("A", "B"), ("A", "A\x00"), ("Z", "\u00c4")])
def test_station_distance_tie_breaks_on_id(smaller, larger, larger_first):
    places = [(larger, 0.05, 0), (smaller, -0.05, 0)]  # same distance north and south
    catalog = station_catalog(places if larger_first else places[::-1])
    series = [(larger, T0, 410.0), (smaller, T0, 420.0)]
    assert match_one(sounding(), catalog, series)[:2] == (smaller, 420.0)


@pytest.mark.parametrize("reverse", [False, True])
def test_build_dataset_orders_equal_times_in_python_id_order(reverse):
    ids = ["A\x00", "\u00c4", "A", "Z"]
    catalog = station_catalog([(sid, 2.0 * i, 0.0) for i, sid in enumerate(ids)])
    series = series_columns([(sid, T0, 400.0 + i) for i, sid in enumerate(ids)])
    archive = numbered_weather([(2.0 * i, 0.0, T0) for i in range(len(ids))])
    soundings = [sounding(lat=2.0 * i) for i in range(len(ids))]  # one on each station
    ds = build_dataset(soundings[::-1] if reverse else soundings, catalog, series, archive)
    assert ds.station_id.tolist() == ["A", "A\x00", "Z", "\u00c4"]
    assert ds.y.tolist() == [402.0, 400.0, 403.0, 401.0]


def test_temporal_tie_prefers_earlier_observation():
    catalog = station_catalog([("A", 0, 0)])
    series = [
        ("A", T0 - timedelta(minutes=30), 401.0),
        ("A", T0 + timedelta(minutes=30), 402.0),
    ]
    _, co2, _ = match_one(sounding(), catalog, series)
    assert co2 == 401.0


def test_nearest_weather_picks_nearest_node():
    nodes = [(55, 13), (55, 14), (56, 13), (56, 14)]
    archive = numbered_weather([(la, lo, T0) for la, lo in nodes])
    s = sounding(lat=55.4, lon=13.6)
    best = nearest_weather(s, archive)
    # oracle: nearest of the four candidate nodes by independent haversine
    oracle = min(nodes, key=lambda n: haversine_km(55.4, 13.6, n[0], n[1]))
    assert oracle == (55, 14)
    assert nodes[int(best[0])] == oracle
    assert tuple(best[1:]) == WEATHER_FIELDS[1:]


def test_nearest_weather_exact_node_and_time_tie():
    archive = numbered_weather(
        [(55, 13, T0 + timedelta(hours=1)), (55, 13, T0 - timedelta(hours=1))]
    )
    best = nearest_weather(sounding(lat=55, lon=13), archive)
    assert best[0] == 1.0  # |dt| tie -> the earlier sample


def test_nearest_weather_errors():
    with pytest.raises(NoDataError):
        nearest_weather(sounding(), numbered_weather([]))
    far = numbered_weather([(55, 13, T0)])
    with pytest.raises(StaleWeatherError):
        nearest_weather(sounding(lat=0, lon=0), far)  # thousands of km away
    old = numbered_weather([(0, 0, T0 - timedelta(hours=12))])
    with pytest.raises(StaleWeatherError):
        nearest_weather(sounding(), old)


def _fixture_inputs():
    catalog = station_catalog([("A", 0, 0), ("B", 2, 2)])
    series = series_columns([
        ("A", T0, 415.0),
        ("B", T0, 418.0),
    ])
    archive = numbered_weather([(0, 0, T0), (2, 2, T0)])
    # 10 soundings: 4 within 25 km of a station with in-window obs
    soundings = [
        sounding(lat=0.05, lon=0.0),                      # near A
        sounding(lat=0.0, lon=0.10),                      # near A
        sounding(lat=2.04, lon=2.0),                      # near B
        sounding(lat=2.0, lon=2.05),                      # near B
        sounding(lat=1.0, lon=1.0),                       # between, too far
        sounding(lat=0.5, lon=0.5),                       # too far
        sounding(lat=-0.5, lon=0.3),                      # too far
        sounding(lat=0.05, lon=0.0, t=T0 + timedelta(hours=3)),  # out of window
        sounding(lat=3.0, lon=3.0),                       # too far
        sounding(lat=2.0, lon=2.5),                       # too far (~55 km)
    ]
    return soundings, catalog, series, archive


def test_build_dataset_counts_hand_enumerated_matches():
    soundings, catalog, series, archive = _fixture_inputs()
    ds = build_dataset(soundings, catalog, series, archive)
    assert len(ds) == 4
    assert sorted(set(ds.station_id)) == ["A", "B"]
    cfg = MatchConfig()
    assert np.all(ds.distance_km <= cfg.max_distance_km)
    assert np.all(np.isfinite(ds.X))
    assert ds.X.shape == (4, 14)


def test_build_dataset_deterministic_and_ordered():
    soundings, catalog, series, archive = _fixture_inputs()
    a = build_dataset(soundings, catalog, series, archive)
    b = build_dataset(list(soundings), catalog, series, archive)
    # identical inputs give identical outputs
    assert np.array_equal(a.station_id, b.station_id)
    assert np.array_equal(a.time, b.time)
    assert np.array_equal(a.X, b.X)
    keys = list(zip(a.time.tolist(), a.station_id.tolist()))
    assert keys == sorted(keys)
    # a permuted input yields the same multiset of rows
    c = build_dataset(list(reversed(soundings)), catalog, series, archive)
    as_tuples = lambda ds: sorted(
        tuple(x) + (y, sid) for x, y, sid in zip(ds.X.tolist(), ds.y.tolist(), ds.station_id)
    )
    assert as_tuples(a) == as_tuples(c)


def test_build_dataset_duplicates_kept():
    soundings, catalog, series, archive = _fixture_inputs()
    doubled = soundings + soundings
    assert len(build_dataset(doubled, catalog, series, archive)) == 8


def test_build_dataset_empty_is_error():
    soundings, catalog, series, archive = _fixture_inputs()
    winter = [SoundingRecord(T0 + timedelta(days=180), s.location, s.xco2,
                             s.xco2_uncertainty, s.quality_flag) for s in soundings]
    with pytest.raises(EmptyDatasetError):
        build_dataset(winter, catalog, series, archive)


@pytest.mark.parametrize("empty, funnel", [
    ("catalog", "(10 soundings, 10 unmatched, 0 stale-weather)"),
    ("soundings", "(0 soundings, 0 unmatched, 0 stale-weather)"),
], ids=["catalog", "soundings"])
def test_build_dataset_empty_input_is_error(empty, funnel):
    soundings, catalog, series, archive = _fixture_inputs()
    if empty == "catalog":
        catalog = station_catalog([])
    else:
        soundings = []
    with pytest.raises(EmptyDatasetError, match=re.escape(funnel)):
        build_dataset(soundings, catalog, series, archive)


def test_feature_vector_canonical_order():
    s = sounding(lat=10.0, lon=20.0)
    w = np.array(WEATHER_FIELDS)
    v = fusion.assemble_features(s, w)
    assert v[FEATURE_NAMES.index("xco2")] == s.xco2
    assert v[FEATURE_NAMES.index("latitude")] == 10.0
    assert v[FEATURE_NAMES.index("longitude")] == 20.0
    assert v[FEATURE_NAMES.index("t2m")] == 288.0
    assert v[FEATURE_NAMES.index("total_cloud_cover")] == 0.5
    assert 2020.0 < v[FEATURE_NAMES.index("time_epoch_years")] < 2021.0


def _toy_dataset():
    soundings, catalog, series, archive = _fixture_inputs()
    return build_dataset(soundings, catalog, series, archive)


def test_split_by_station():
    ds = _toy_dataset()
    train, test = split_by_station(ds, {"B"})
    assert set(test.station_id) == {"B"}
    assert set(train.station_id) == {"A"}
    assert len(train) + len(test) == len(ds)


def test_split_all_held_out_leaves_empty_train():
    ds = _toy_dataset()
    train, test = split_by_station(ds, {"A", "B"})
    assert len(train) == 0 and len(test) == len(ds)


def test_split_unknown_id_rejected():
    with pytest.raises(ValueError):
        split_by_station(_toy_dataset(), {"XYZ"})


def test_dataset_csv_round_trip(tmp_path):
    ds = _toy_dataset()
    path = tmp_path / "dataset.csv"
    fusion.write_dataset(ds, path)
    back = fusion.read_dataset(path)
    assert len(back) == len(ds)
    for name in ("X", "y", "station_id", "time", "distance_km"):
        assert np.array_equal(getattr(back, name), getattr(ds, name))


def test_dataset_csv_bytes_do_not_depend_on_the_write_blocks(tmp_path):
    ds = _toy_dataset()
    fusion.write_dataset(ds, tmp_path / "one.csv")
    with patch.object(ingest, "_WRITE_BLOCK_ROWS", 3):
        fusion.write_dataset(ds, tmp_path / "blocks.csv")
    assert len(ds) > 3
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


@pytest.mark.parametrize("t", ["0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"])
def test_dataset_time_out_of_range_in_utc_is_schema_error(tmp_path, t):
    path = tmp_path / "dataset.csv"
    fusion.write_dataset(_toy_dataset(), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[2].split(",")
    fields[len(FEATURE_NAMES) + 2] = t
    lines[2] = ",".join(fields)
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(SchemaError, match=":3: timestamp"):
        fusion.read_dataset(path)


def _edit_dataset_field(path, lineno, column, text):
    """Replace one field of a dataset.csv; lineno counts the header as 1."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[lineno - 1].rstrip("\r\n").split(",")
    fields[(FEATURE_NAMES + fusion.DATASET_EXTRA_COLUMNS).index(column)] = text
    lines[lineno - 1] = ",".join(fields) + "\r\n"
    path.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["t2m", "label_ppm", "distance_km"])
def test_dataset_non_finite_number_is_schema_error(tmp_path, column, value):
    path = tmp_path / "dataset.csv"
    fusion.write_dataset(_toy_dataset(), path)
    _edit_dataset_field(path, 4, column, value)
    with pytest.raises(SchemaError, match=r"dataset\.csv:4: non-finite value"):
        fusion.read_dataset(path)


def test_dataset_error_names_first_bad_line_in_file_order(tmp_path):
    path = tmp_path / "dataset.csv"
    fusion.write_dataset(_toy_dataset(), path)
    _edit_dataset_field(path, 3, "label_ppm", "nan")
    _edit_dataset_field(path, 4, "xco2", "not-a-number")
    with pytest.raises(SchemaError, match=":3: non-finite value"):
        fusion.read_dataset(path)
    _edit_dataset_field(path, 3, "label_ppm", "412.0")
    _edit_dataset_field(path, 5, "distance_km", "inf")
    with pytest.raises(SchemaError, match=":4: could not convert"):
        fusion.read_dataset(path)


@pytest.mark.parametrize("value, message", [
    ("not-a-number", "could not convert"), ("nan", "non-finite value"),
])
def test_dataset_error_names_the_file_line_past_a_quoted_newline(tmp_path, value, message):
    path = tmp_path / "dataset.csv"
    fusion.write_dataset(_toy_dataset(), path)
    _edit_dataset_field(path, 4, "xco2", value)
    # the first row's station id spans lines 2-3, so the third row ends on line 5
    _edit_dataset_field(path, 2, "station_id", '"S\nT"')
    with pytest.raises(SchemaError, match=rf"dataset\.csv:5: {message}"):
        fusion.read_dataset(path)


def _long_station_id(path):
    # over the csv module's 131,072-character field limit
    _edit_dataset_field(path, 3, "station_id", "S" * 140_000)


def _undecodable_byte(path):
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:3] + [b"\xff" + lines[3]] + lines[4:]))


@pytest.mark.parametrize("edit, message", [
    (_long_station_id, "CSV parse failure"), (_undecodable_byte, "not valid UTF-8"),
], ids=["field-over-limit", "byte-xff"])
def test_dataset_csv_syntax_error_and_bad_bytes_are_schema_errors(tmp_path, edit, message):
    path = tmp_path / "dataset.csv"
    fusion.write_dataset(_toy_dataset(), path)
    edit(path)
    with pytest.raises(SchemaError, match=rf"dataset\.csv: {message}"):
        fusion.read_dataset(path)


def test_match_config_validation():
    with pytest.raises(ValueError):
        MatchConfig(max_distance_km=0.0)
    with pytest.raises(ValueError):
        MatchConfig(max_time_minutes=-5)


@pytest.mark.parametrize("field", ["max_distance_km", "max_time_minutes"])
def test_match_config_rejects_nan(field):
    with pytest.raises(ValueError):
        MatchConfig(**{field: float("nan")})
    assert MatchConfig(**{field: 1e-9}) is not None


def _north_nodes_moved(archive):
    """The archive with every node from 56 N moved 20 degrees north."""
    lats = archive.latitudes
    return WeatherArchive(archive.times, np.where(lats >= 56.0, lats + 20.0, lats),
                          archive.longitudes, archive.values)


@pytest.mark.parametrize(
    "moved, line",
    [
        (False, "matched 145 of 930 soundings (15.6%); 785 unmatched, 0 with stale weather"),
        (True, "matched 125 of 930 soundings (13.4%); 785 unmatched, 20 with stale weather"),
    ],
)
def test_build_dataset_logs_match_funnel(small_campaign, caplog, moved, line):
    good = [s for s in small_campaign.soundings if s.quality_flag == 0]
    archive = small_campaign.archive
    if moved:
        archive = _north_nodes_moved(archive)
    with caplog.at_level(logging.INFO, logger="co2fuse.fusion"):
        build_dataset(good, small_campaign.catalog, small_campaign.series, archive)
    assert [r.getMessage() for r in caplog.records if r.name == "co2fuse.fusion"] == [line]


# tie-prone campaigns for the join oracle: coordinates on small lattices
# (mirror images give equal distances), times on the window and 6 h edges,
# duplicated samples and observations, sub-second times
CENTERS = [(0.0, 0.0), (55.0, 13.0), (-60.0, 179.5), (86.5, -100.0)]
NODE_STEPS = [-2.5, -1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0, 2.5]
SOUNDING_STEPS = [-3.0, -0.5, -0.25, -0.05, 0.0, 0.05, 0.25, 0.5, 3.0]
STATION_STEPS = [-0.1, -0.05, 0.0, 0.05, 0.1]
WEATHER_SECONDS = [-21601, -21600, -3600, -1800, 0, 1800, 3600, 21600, 21601, 43200]
OBS_SECONDS = [-3601, -3600, -3599, -1800, -0.5, 0, 1800, 3599.5, 3600, 3601, 7200]
SOUNDING_SECONDS = [0, 0.5, 1800, -1800, 3600, -3600, 21600, 36000]


def _places(steps, max_size):
    return st.lists(st.tuples(st.sampled_from(steps), st.sampled_from(steps)),
                    min_size=1, max_size=max_size)


@st.composite
def join_campaigns(draw):
    lat0, lon0 = draw(st.sampled_from(CENTERS))
    at = lambda dlat, dlon: GeoPoint(lat0 + dlat, lon0 + dlon)
    when = lambda seconds: T0 + timedelta(seconds=seconds)
    mirror = lambda offs: offs + [(-a, -b) for a, b in offs] if draw(st.booleans()) else offs

    samples = []
    nodes = [] if draw(st.integers(0, 9)) == 0 else mirror(draw(_places(NODE_STEPS, 4)))
    for node in nodes:
        for seconds in draw(st.lists(st.sampled_from(WEATHER_SECONDS), min_size=1, max_size=3)):
            # u10 numbers the samples, so the chosen one shows in the features
            samples.append((when(seconds), at(*node), (float(len(samples)),) + WEATHER_FIELDS[1:]))
    samples += draw(st.lists(st.sampled_from(samples), max_size=2)) if samples else []

    ids = draw(st.permutations(["A", "B", "C", "D", "E"]))
    places = [] if draw(st.integers(0, 9)) == 0 else mirror(draw(_places(STATION_STEPS, 4)))
    catalog = station_catalog([(sid, lat0 + a, lon0 + b) for sid, (a, b) in zip(ids, places)])
    series = []
    for sid in draw(st.lists(st.sampled_from(ids), max_size=6)):
        for seconds in draw(st.lists(st.sampled_from(OBS_SECONDS), min_size=1, max_size=3)):
            series.append((sid, when(seconds), 400.0 + len(series)))
    series += draw(st.lists(st.sampled_from(series), max_size=2)) if series else []

    # soundings on the mirror centre, on stations and nodes, halfway between
    # two of them (equal distances along a parallel or meridian) or anywhere;
    # with neither stations nor nodes, the centre stands in for them
    sites = places + nodes or [(0.0, 0.0)]
    halfway = st.tuples(st.sampled_from(sites), st.sampled_from(sites)).map(
        lambda ab: ((ab[0][0] + ab[1][0]) / 2, (ab[0][1] + ab[1][1]) / 2))
    anywhere = st.tuples(st.sampled_from(SOUNDING_STEPS), st.sampled_from(SOUNDING_STEPS))
    place = st.one_of(st.just((0.0, 0.0)), st.sampled_from(sites), halfway, anywhere)
    soundings = [
        SoundingRecord(when(seconds), at(*where), 412.0 + i, 0.5, 0)
        for i, (where, seconds) in enumerate(draw(st.lists(
            st.tuples(place, st.sampled_from(SOUNDING_SECONDS)), min_size=1, max_size=12)))
    ]
    # one radius is exactly the distance from the centre to a station 0.1 deg north
    centre = at(0.0, 0.0)
    (edge,) = geodesic_km_many((centre.latitude, centre.longitude), np.array([lat0 + 0.1]),
                               np.array([lon0]))
    cfg = MatchConfig(max_distance_km=draw(st.sampled_from([float(edge), 15.0, 25.0])),
                      max_time_minutes=draw(st.sampled_from([30.0, 60.0])))
    return soundings, catalog, series, samples, cfg


def _reference_features(s, w):
    return np.array([s.xco2, s.xco2_uncertainty, s.location.latitude, s.location.longitude,
                     reference_epoch_years(s.time), *w[2]])


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(campaign=join_campaigns(), chunk_rows=st.sampled_from([1, 2, 5, fusion._CHUNK_ROWS]))
def test_batched_join_matches_per_sounding_oracle(campaign, chunk_rows, caplog):
    # the oracles read the generated rows in input order, the library their columns
    soundings, catalog, observations, samples, cfg = campaign
    series, archive = series_columns(observations), weather_columns(samples)
    index = reference_series_index(observations)
    nodes = reference_weather_nodes(samples)
    stations, weather = [], []
    for s in soundings:
        stations.append(reference_match_sounding(s, catalog, index, cfg))
        try:
            weather.append(reference_nearest_weather(
                s, nodes, fusion.STALE_WEATHER_KM, fusion.STALE_WEATHER_HOURS))
        except (NoDataError, StaleWeatherError) as exc:
            weather.append(type(exc))

    with patch.object(fusion, "_CHUNK_ROWS", chunk_rows):
        station, obs, dist = match_stations(*sounding_columns(soundings), catalog, series, cfg)
        X, usable = fusion.weather_features(soundings, archive)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="co2fuse.fusion"):
            try:
                dataset = build_dataset(soundings, catalog, series, archive, cfg)
            except EmptyDatasetError:
                dataset = None

    # stations: the station, the input row of the observation and the distance bits
    for i, want in enumerate(stations):
        got = None if station[i] < 0 else (catalog.station_id[station[i]], obs[i],
                                           float(dist[i]))
        assert (got is None) == (want is None)
        if want is not None:
            assert got[0] == want[0] and got[1] == want[1] and got[2] == want[2]

    # weather: the sample chosen (its u10), or the outcome stale / no data
    assert list(usable) == [not isinstance(w, type) for w in weather]
    want_rows = [_reference_features(s, w) for s, w in zip(soundings, weather)
                 if not isinstance(w, type)]
    assert X.tobytes() == np.array(want_rows).reshape(-1, 14).tobytes()
    for s, want in zip(soundings, weather):
        if isinstance(want, type):
            with pytest.raises(want):
                nearest_weather(s, archive)
        else:
            assert nearest_weather(s, archive).tolist() == list(want[2])

    # build_dataset: the samples in order and the match funnel
    want_samples = sorted(
        [((to_micros([s.time])[0], hit[0]), _reference_features(s, w).tobytes(),
          observations[hit[1]][2], hit[2])
         for s, hit, w in zip(soundings, stations, weather)
         if hit is not None and not isinstance(w, type)],
        key=lambda x: x[0],
    )
    got_samples = [] if dataset is None else [
        ((dataset.time[i], dataset.station_id[i]), dataset.X[i].tobytes(), dataset.y[i],
         dataset.distance_km[i]) for i in range(len(dataset))]
    assert got_samples == want_samples
    unmatched = sum(hit is None for hit in stations)
    stale = len(soundings) - unmatched - len(want_samples)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "co2fuse.fusion"]
    assert line.endswith(f"; {unmatched} unmatched, {stale} with stale weather")
