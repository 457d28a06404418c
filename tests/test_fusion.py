import logging
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from co2fuse import fusion
from co2fuse.errors import (
    DegenerateFeatureError,
    EmptyDatasetError,
    NoDataError,
    StaleWeatherError,
)
from co2fuse.fusion import (
    FEATURE_NAMES,
    MatchConfig,
    build_dataset,
    fit_norm_stats,
    match_stations,
    nearest_weather,
    split_by_station,
    standardize,
)
from co2fuse.geo import GeoPoint, geodesic_km_many
from co2fuse.ingest import (
    SoundingRecord,
    Station,
    StationObservation,
    WeatherArchive,
    WeatherSample,
)

from oracles import (
    haversine_km,
    reference_epoch_years,
    reference_match_sounding,
    reference_nearest_weather,
    reference_series_index,
    reference_weather_nodes,
)

UTC = timezone.utc
T0 = datetime(2020, 6, 1, 12, 0, 0, tzinfo=UTC)


def sounding(lat=0.0, lon=0.0, t=T0, xco2=412.0):
    return SoundingRecord(t, GeoPoint(lat, lon), xco2, 0.5, 0)


def weather_sample(lat, lon, t):
    return WeatherSample(t, GeoPoint(lat, lon), 1.0, 2.0, 101325.0, 288.0,
                         289.0, 6.5e6, 20.0, 1200.0, 0.5)


def match_one(s, catalog, series, cfg=MatchConfig()):
    """The batched station match of one sounding: (station_id, observation,
    distance), or None when no station qualifies."""
    (k,), (obs,), (dist,) = match_stations([s], catalog, series, cfg)
    return None if k < 0 else (catalog[k].station_id, obs, dist)


def test_match_within_radius_and_window():
    catalog = [Station("A", GeoPoint(0, 0))]
    series = [StationObservation("A", T0 + timedelta(minutes=10), 415.0)]
    hit = match_one(sounding(lat=0.0, lon=0.10), catalog, series)
    assert hit is not None
    sid, obs, dist = hit
    assert sid == "A"
    assert obs.co2 == 415.0
    assert dist == pytest.approx(haversine_km(0, 0.10, 0, 0), abs=1e-9)
    assert dist < 25.0


def test_no_match_beyond_radius():
    catalog = [Station("A", GeoPoint(0, 0))]
    series = [StationObservation("A", T0, 415.0)]
    # ~30 km north of the station
    assert match_one(sounding(lat=0.27), catalog, series) is None


def test_no_match_outside_time_window():
    catalog = [Station("A", GeoPoint(0, 0))]
    series = [StationObservation("A", T0 + timedelta(minutes=90), 415.0)]
    assert match_one(sounding(), catalog, series) is None


def test_nearest_station_wins():
    catalog = [
        Station("FAR", GeoPoint(0.072, 0)),   # ~8 km
        Station("NEAR", GeoPoint(0.045, 0)),  # ~5 km
    ]
    series = [
        StationObservation("FAR", T0, 410.0),
        StationObservation("NEAR", T0, 420.0),
    ]
    sid, obs, _ = match_one(sounding(), catalog, series)
    assert sid == "NEAR" and obs.co2 == 420.0


def test_station_distance_tie_breaks_on_id():
    catalog = [
        Station("B", GeoPoint(0.05, 0)),
        Station("A", GeoPoint(-0.05, 0)),  # same distance south
    ]
    series = [
        StationObservation("A", T0, 410.0),
        StationObservation("B", T0, 420.0),
    ]
    sid, _, _ = match_one(sounding(), catalog, series)
    assert sid == "A"


def test_temporal_tie_prefers_earlier_observation():
    catalog = [Station("A", GeoPoint(0, 0))]
    series = [
        StationObservation("A", T0 - timedelta(minutes=30), 401.0),
        StationObservation("A", T0 + timedelta(minutes=30), 402.0),
    ]
    _, obs, _ = match_one(sounding(), catalog, series)
    assert obs.co2 == 401.0


def test_nearest_weather_picks_nearest_node():
    nodes = [(55, 13), (55, 14), (56, 13), (56, 14)]
    archive = WeatherArchive([weather_sample(la, lo, T0) for la, lo in nodes])
    s = sounding(lat=55.4, lon=13.6)
    best = nearest_weather(s, archive)
    # oracle: nearest of the four candidate nodes by independent haversine
    oracle = min(nodes, key=lambda n: haversine_km(55.4, 13.6, n[0], n[1]))
    assert oracle == (55, 14)
    assert (best.location.latitude, best.location.longitude) == oracle


def test_nearest_weather_exact_node_and_time_tie():
    archive = WeatherArchive(
        [weather_sample(55, 13, T0 - timedelta(hours=1)),
         weather_sample(55, 13, T0 + timedelta(hours=1))]
    )
    best = nearest_weather(sounding(lat=55, lon=13), archive)
    assert best.time == T0 - timedelta(hours=1)  # |dt| tie -> earlier


def test_nearest_weather_errors():
    with pytest.raises(NoDataError):
        nearest_weather(sounding(), WeatherArchive([]))
    far = WeatherArchive([weather_sample(55, 13, T0)])
    with pytest.raises(StaleWeatherError):
        nearest_weather(sounding(lat=0, lon=0), far)  # thousands of km away
    old = WeatherArchive([weather_sample(0, 0, T0 - timedelta(hours=12))])
    with pytest.raises(StaleWeatherError):
        nearest_weather(sounding(), old)


def _fixture_inputs():
    catalog = [Station("A", GeoPoint(0, 0)), Station("B", GeoPoint(2, 2))]
    series = [
        StationObservation("A", T0, 415.0),
        StationObservation("B", T0, 418.0),
    ]
    archive = WeatherArchive([weather_sample(0, 0, T0), weather_sample(2, 2, T0)])
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
    samples = build_dataset(soundings, catalog, series, archive)
    assert len(samples) == 4
    assert sorted({s.station_id for s in samples}) == ["A", "B"]
    cfg = MatchConfig()
    for s in samples:
        assert s.station_distance_km <= cfg.max_distance_km
        assert np.all(np.isfinite(s.features))
        assert s.features.shape == (14,)


def test_build_dataset_deterministic_and_ordered():
    soundings, catalog, series, archive = _fixture_inputs()
    a = build_dataset(soundings, catalog, series, archive)
    b = build_dataset(list(soundings), catalog, series, archive)
    for x, y in zip(a, b):  # identical inputs give identical outputs
        assert x.station_id == y.station_id
        assert x.sounding_time == y.sounding_time
        assert np.array_equal(x.features, y.features)
    keys = [(s.sounding_time, s.station_id) for s in a]
    assert keys == sorted(keys)
    # a permuted input yields the same multiset of samples
    c = build_dataset(list(reversed(soundings)), catalog, series, archive)
    as_tuples = lambda ds: sorted(tuple(s.features) + (s.label, s.station_id) for s in ds)
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


def test_feature_vector_canonical_order():
    s = sounding(lat=10.0, lon=20.0)
    w = weather_sample(10.0, 20.0, T0)
    v = fusion.assemble_features(s, w)
    assert v[FEATURE_NAMES.index("xco2")] == s.xco2
    assert v[FEATURE_NAMES.index("latitude")] == 10.0
    assert v[FEATURE_NAMES.index("longitude")] == 20.0
    assert v[FEATURE_NAMES.index("t2m")] == w.t2m
    assert v[FEATURE_NAMES.index("total_cloud_cover")] == w.total_cloud_cover
    assert 2020.0 < v[FEATURE_NAMES.index("time_epoch_years")] < 2021.0


def _toy_dataset():
    soundings, catalog, series, archive = _fixture_inputs()
    return build_dataset(soundings, catalog, series, archive)


def test_split_by_station():
    ds = _toy_dataset()
    train, test = split_by_station(ds, {"B"})
    assert {s.station_id for s in test} == {"B"}
    assert {s.station_id for s in train} == {"A"}
    assert len(train) + len(test) == len(ds)


def test_split_all_held_out_leaves_empty_train():
    ds = _toy_dataset()
    train, test = split_by_station(ds, {"A", "B"})
    assert train == [] and len(test) == len(ds)


def test_split_unknown_id_rejected():
    with pytest.raises(ValueError):
        split_by_station(_toy_dataset(), {"XYZ"})


def test_norm_stats_population_convention():
    X = np.array([[1.0, 5.0], [3.0, 9.0]])
    stats = fit_norm_stats(X)
    assert stats.mean == pytest.approx([2.0, 7.0])
    assert stats.std == pytest.approx([1.0, 2.0])  # 1/n convention
    z = standardize(X, stats)
    assert z == pytest.approx(np.array([[-1.0, -1.0], [1.0, 1.0]]))
    assert standardize(stats.mean, stats) == pytest.approx([0.0, 0.0])


def test_norm_stats_single_sample_degenerate():
    with pytest.raises(DegenerateFeatureError):
        fit_norm_stats(np.array([[1.0, 2.0]]))


def test_norm_stats_names_constant_feature():
    X = np.random.default_rng(0).normal(size=(10, 14))
    X[:, 5] = 3.25  # u10 held constant
    with pytest.raises(DegenerateFeatureError, match="u10"):
        fit_norm_stats(X)


def test_standardized_train_is_centered_unit():
    rng = np.random.default_rng(2)
    X = rng.normal(7.0, 3.0, size=(200, 14))
    stats = fit_norm_stats(X)
    Z = standardize(X, stats)
    assert np.abs(Z.mean(axis=0)).max() < 1e-9
    assert np.abs(Z.std(axis=0) - 1.0).max() < 1e-9


def test_dataset_csv_round_trip(tmp_path):
    ds = _toy_dataset()
    path = tmp_path / "dataset.csv"
    fusion.write_dataset(ds, path)
    back = fusion.read_dataset(path)
    assert len(back) == len(ds)
    for a, b in zip(ds, back):
        assert np.array_equal(a.features, b.features)
        assert a.label == b.label
        assert a.station_id == b.station_id
        assert a.sounding_time == b.sounding_time
        assert a.station_distance_km == b.station_distance_km


def test_match_config_validation():
    with pytest.raises(ValueError):
        MatchConfig(max_distance_km=0.0)
    with pytest.raises(ValueError):
        MatchConfig(max_time_minutes=-5)


def _north_nodes_moved(archive):
    """The archive with every node from 56 N moved 20 degrees north."""
    return WeatherArchive(
        replace(w, location=GeoPoint(w.location.latitude + 20.0, w.location.longitude))
        if w.location.latitude >= 56.0 else w
        for w in archive.samples
    )


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
            samples.append(WeatherSample(when(seconds), at(*node), float(len(samples)),
                                         2.0, 101325.0, 288.0, 289.0, 6.5e6, 20.0, 1200.0, 0.5))
    samples += draw(st.lists(st.sampled_from(samples), max_size=2)) if samples else []

    ids = draw(st.permutations(["A", "B", "C", "D", "E"]))
    places = mirror(draw(_places(STATION_STEPS, 4)))
    catalog = [Station(sid, at(*place)) for sid, place in zip(ids, places)]
    series = []
    for sid in draw(st.lists(st.sampled_from(ids), max_size=6)):
        for seconds in draw(st.lists(st.sampled_from(OBS_SECONDS), min_size=1, max_size=3)):
            series.append(StationObservation(sid, when(seconds), 400.0 + len(series)))
    series += draw(st.lists(st.sampled_from(series), max_size=2)) if series else []

    # soundings on the mirror centre, on stations and nodes, halfway between
    # two of them (equal distances along a parallel or meridian) or anywhere
    sites = places + nodes
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
    (edge,) = geodesic_km_many(at(0.0, 0.0), np.array([lat0 + 0.1]), np.array([lon0]))
    cfg = MatchConfig(max_distance_km=draw(st.sampled_from([float(edge), 15.0, 25.0])),
                      max_time_minutes=draw(st.sampled_from([30.0, 60.0])))
    return soundings, catalog, series, WeatherArchive(samples), cfg


def _reference_features(s, w):
    return np.array([s.xco2, s.xco2_uncertainty, s.location.latitude, s.location.longitude,
                     reference_epoch_years(s.time), w.u10, w.v10, w.surface_pressure, w.t2m,
                     w.skin_temperature, w.vint_temperature, w.tcwv, w.cloud_base_height,
                     w.total_cloud_cover])


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(campaign=join_campaigns(), chunk_rows=st.sampled_from([1, 2, 5, fusion._CHUNK_ROWS]))
def test_batched_join_matches_per_sounding_oracle(campaign, chunk_rows, caplog):
    soundings, catalog, series, archive, cfg = campaign
    index = reference_series_index(series)
    nodes = reference_weather_nodes(archive)
    stations, weather = [], []
    for s in soundings:
        stations.append(reference_match_sounding(s, catalog, index, cfg))
        try:
            weather.append(reference_nearest_weather(
                s, nodes, fusion.STALE_WEATHER_KM, fusion.STALE_WEATHER_HOURS))
        except (NoDataError, StaleWeatherError) as exc:
            weather.append(type(exc))

    with patch.object(fusion, "_CHUNK_ROWS", chunk_rows):
        station, obs, dist = match_stations(soundings, catalog, series, cfg)
        X, usable = fusion.weather_features(soundings, archive)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="co2fuse.fusion"):
            try:
                dataset = build_dataset(soundings, catalog, series, archive, cfg)
            except EmptyDatasetError:
                dataset = []

    # stations: the station, the observation object and the distance bits
    for i, want in enumerate(stations):
        got = None if station[i] < 0 else (catalog[station[i]].station_id, obs[i],
                                           float(dist[i]))
        assert (got is None) == (want is None)
        if want is not None:
            assert got[0] == want[0] and got[1] is want[1] and got[2] == want[2]

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
            assert nearest_weather(s, archive) is want

    # build_dataset: the samples in order and the match funnel
    want_samples = sorted(
        [((s.time, hit[0]), _reference_features(s, w).tobytes(), hit[1].co2, hit[2])
         for s, hit, w in zip(soundings, stations, weather)
         if hit is not None and not isinstance(w, type)],
        key=lambda x: x[0],
    )
    got_samples = [((x.sounding_time, x.station_id), x.features.tobytes(), x.label,
                    x.station_distance_km) for x in dataset]
    assert got_samples == want_samples
    unmatched = sum(hit is None for hit in stations)
    stale = len(soundings) - unmatched - len(want_samples)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "co2fuse.fusion"]
    assert line.endswith(f"; {unmatched} unmatched, {stale} with stale weather")
