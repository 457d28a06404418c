"""Golden digests of rasters and of a sweep table from the small synthetic campaign.

Every output interpolates the raw xCO2 values of the campaign's soundings.
The digests were recorded with the bucketed neighbour index and its full-scan
fallback. Any change to the neighbour search, the tie rule, the weighting or
the writers that moves a single bit of an output changes a digest. A change that
moves one on purpose says why in CHANGES.md.
"""

import hashlib

import pytest

from co2fuse import cli
from co2fuse.geo import BoundingBox, GridSpec
from co2fuse.interpolate import (
    KnnParams,
    PointSet,
    rasterize,
    write_ascii_grid,
    write_grid_csv,
)

BBOX = "52,8,58,16"

GOLDEN_SHA256 = {
    ("k10", "csv"): "307a4383d54c877de207efaef98555035ea740ee30f3746b51dae4c70a79ad99",
    ("k10", "asc"): "3c456ac1ae9cdc1f18242f33b1d929d2536c6adc475ef1b83953798146ba7eee",
    ("k200", "csv"): "954bbc59695a9840d9692293769ee29e49d06a921b18f2d9b49808fda62bcb8b",
    ("k200", "asc"): "26948061a9116f7e2d3a62ff01c2151543ad8eea1afd6f494581b29121e67633",
    "sweep": "e6cea9a7dee13cc6632d0a9944a997a9aa2cf5086bb90b1d5bf07a925058eebf",
}

WRITERS = {"csv": write_grid_csv, "asc": write_ascii_grid}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("k", [10, 200])
def test_raster_file_digests(k, small_campaign, tmp_path):
    good = [s for s in small_campaign.soundings if s.quality_flag == 0]
    points = PointSet(
        [s.location.latitude for s in good],
        [s.location.longitude for s in good],
        [s.xco2 for s in good],
    )
    spec = GridSpec(BoundingBox.parse(BBOX), 0.25)
    grid = rasterize(points, spec, KnnParams(k=k, p=0.05))
    for suffix, write in WRITERS.items():
        path = tmp_path / f"grid.{suffix}"
        write(grid, path)
        assert _sha256(path) == GOLDEN_SHA256[(f"k{k}", suffix)], suffix


def test_sweep_csv_digest(small_campaign_dir, tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main([
        "sweep",
        "--soundings", str(small_campaign_dir / "soundings.csv"),
        "--weather", str(small_campaign_dir / "weather.csv"),
        "--bbox", BBOX, "--res", "1.0",
        "--out", str(out),
    ])
    assert code == 0
    assert _sha256(out) == GOLDEN_SHA256["sweep"]
