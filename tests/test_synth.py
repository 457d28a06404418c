import filecmp
import hashlib
from datetime import datetime, timezone

import numpy as np
import pytest

from co2fuse import ingest
from co2fuse.geo import BoundingBox, GeoPoint
from co2fuse.synth import SynthConfig, generate_campaign, write_campaign

from oracles import to_epoch_years, true_field

UTC = timezone.utc

FLAT = dict(
    seasonal_amp_ppm=0.0,
    spatial_amp_ppm=0.0,
    trend_ppm_per_year=0.0,
    coupling_t2m=0.0,
    coupling_u10=0.0,
)


def test_flat_config_field_is_constant_base():
    cfg = SynthConfig(**FLAT)
    t1 = datetime(2019, 3, 3, 11, tzinfo=UTC)
    t2 = datetime(2019, 9, 20, 14, tzinfo=UTC)
    assert true_field(cfg, GeoPoint(53.0, 9.0), t1) == cfg.base_ppm
    assert true_field(cfg, GeoPoint(57.9, 15.9), t2) == cfg.base_ppm


def test_field_deterministic():
    cfg = SynthConfig(seed=3)
    t = datetime(2019, 5, 5, 12, tzinfo=UTC)
    p = GeoPoint(54.2, 11.7)
    assert true_field(cfg, p, t) == true_field(cfg, p, t)


def test_trend_is_recovered_between_years():
    cfg = SynthConfig(**{**FLAT, "trend_ppm_per_year": 2.4})
    t1 = datetime(2019, 3, 1, 12, tzinfo=UTC)
    t2 = datetime(2020, 3, 1, 12, tzinfo=UTC)
    p = GeoPoint(55.0, 12.0)
    dt_years = to_epoch_years(t2) - to_epoch_years(t1)
    assert true_field(cfg, p, t2) - true_field(cfg, p, t1) == pytest.approx(
        2.4 * dt_years, rel=1e-12
    )


def test_campaign_is_byte_reproducible(tmp_path):
    cfg = SynthConfig(seed=9, n_stations=4, n_transects=6,
                      soundings_per_transect=40, days=60)
    write_campaign(generate_campaign(cfg), tmp_path / "a")
    write_campaign(generate_campaign(cfg), tmp_path / "b")
    for name in ("soundings.csv", "stations.csv", "station_series.csv", "weather.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)


def test_campaign_round_trips_with_zero_malformed(small_campaign, small_campaign_dir):
    soundings = ingest.read_soundings(
        small_campaign_dir / "soundings.csv", quality_filter=False
    )
    assert len(soundings) == len(small_campaign.soundings)
    catalog = ingest.read_station_catalog(small_campaign_dir / "stations.csv")
    assert catalog == small_campaign.catalog
    series = ingest.read_station_series(small_campaign_dir / "station_series.csv")
    assert len(series) == len(small_campaign.series)
    archive = ingest.read_weather(small_campaign_dir / "weather.csv")
    assert len(archive) == len(small_campaign.archive)


# the small campaign moved against the antimeridian: the generator evaluates
# the weather law at node longitude 180 but stores the node as -180.0
ANTIMERIDIAN_SHA256 = {
    "station_series.csv": "c870b6efc64bcb6905889d9a4ebf1b4999e8b592c70a342846146363ac53b049",
    "weather.csv": "a2a12b611a4c543d7130e63173e77dfade3d4cd0a3c8a3c1f977aff8c25b1377",
}


def test_antimeridian_campaign_digests(tmp_path):
    cfg = SynthConfig(seed=5, n_stations=6, n_transects=12, soundings_per_transect=80,
                      days=120, bbox=BoundingBox(52.0, 170.0, 58.0, 180.0))
    paths = write_campaign(generate_campaign(cfg), tmp_path)
    archive = ingest.read_weather(paths["weather"])
    assert -180.0 in archive.longitudes and 180.0 not in archive.longitudes
    for name, digest in ANTIMERIDIAN_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_campaign_csvs_survive_read_then_write(small_campaign_dir, tmp_path):
    series = ingest.read_station_series(small_campaign_dir / "station_series.csv")
    ingest.write_station_series(series, tmp_path / "station_series.csv")
    ingest.write_weather(ingest.read_weather(small_campaign_dir / "weather.csv"),
                         tmp_path / "weather.csv")
    for name in ("station_series.csv", "weather.csv"):
        assert (tmp_path / name).read_bytes() == (small_campaign_dir / name).read_bytes()


def test_soundings_inside_bbox(small_campaign):
    bbox = SynthConfig(seed=5).bbox
    for s in small_campaign.soundings:
        loc = s.location
        assert bbox.south <= loc.latitude <= bbox.north and bbox.west <= loc.longitude <= bbox.east


def test_weather_fields_plausible(small_campaign):
    column = dict(zip(ingest.WEATHER_COLUMNS[3:], small_campaign.archive.values.T))
    assert np.all((0.0 <= column["total_cloud_cover"]) & (column["total_cloud_cover"] <= 1.0))
    assert np.all(column["tcwv_kgm2"] > 0)
    assert np.all(column["cloud_base_height_m"] > 0)
    assert np.all((250 < column["t2m_k"]) & (column["t2m_k"] < 320))


def test_station_year_mean_matches_base_plus_trend():
    cfg = SynthConfig(
        seed=13, n_stations=1, n_transects=1, soundings_per_transect=1,
        days=365, noise_std=1.0,
        seasonal_amp_ppm=8.0, spatial_amp_ppm=0.0,
        coupling_t2m=0.0, coupling_u10=0.0,
    )
    campaign = generate_campaign(cfg)
    co2 = campaign.series.co2
    n = len(co2)
    assert n == 365 * 24
    # over one full year the seasonal cycle integrates out; the trend leaves
    # its mid-year value
    expected = cfg.base_ppm + cfg.trend_ppm_per_year * 0.5
    tolerance = 3.0 * cfg.noise_std / np.sqrt(n) + 0.02
    assert abs(float(co2.mean()) - expected) < tolerance


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_stations=0)
    with pytest.raises(ValueError):
        SynthConfig(noise_std=-1.0)
    with pytest.raises(ValueError):
        SynthConfig(days=0)


def test_config_rejects_nan():
    with pytest.raises(ValueError):
        SynthConfig(noise_std=float("nan"))
    assert SynthConfig(noise_std=0.0).noise_std == 0.0


def test_matchable_by_construction(small_dataset):
    # transects pass near stations, so a healthy fraction must match
    assert len(small_dataset) > 50
