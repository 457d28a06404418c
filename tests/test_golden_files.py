"""Golden digests of the small synthetic campaign's files, dataset and models.

The campaign CSVs are those `write_campaign` writes for the small test
campaign; `dataset.csv` is what `co2fuse build-dataset` makes of them, and
the baseline and MLP files are what `co2fuse train` makes of that dataset
with station ST01 held out and a 3-epoch MLP. Any change to the generator,
the readers, the matching, the trainers or the writers that moves a single
bit changes a digest. A change that moves one on purpose says why in
CHANGES.md. The tree model files are pinned in test_golden_trees.py.
"""

import hashlib

import pytest

from co2fuse import cli

CAMPAIGN_SHA256 = {
    "soundings.csv": "1f97d2bf5542824bc425785a6a65f5cf11368ed8c16dbe9b3822686e3b7818be",
    "stations.csv": "1f44bdaa001870e5d35c2cfbd0b2a2e377da75046cf8c29e1cab8f3fb2c260ba",
    "station_series.csv": "b50d15f273dbd1ec17f216f667d221d07b8f130607c1082fbe3c1fa40dc31603",
    "weather.csv": "f69c4d3c2c7fdf877ca66f3736865c721a25f1e8f2c84df184e5039b6c278090",
}
DATASET_SHA256 = "f65123ce5d9df7a4d7cc914cf47cffa771295d4e0ba11dabe9a3b31afb5c586a"
MODEL_SHA256 = {
    "baseline": "01e77a676e1bce513d896a6ed45e79a5d9cf48a7f7c0df244b5c165732d47eea",
    "mlp": "8243c9ff90ce4ba80bfebce500a23f824df6c0f713515f1eb9d3991ceaebb5ba",
}

TRAIN_EXTRA = {"baseline": [], "mlp": ["--epochs", "3"]}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def dataset_csv(small_campaign_dir, tmp_path_factory):
    camp = small_campaign_dir
    out = tmp_path_factory.mktemp("golden") / "dataset.csv"
    code = cli.main([
        "build-dataset",
        "--soundings", str(camp / "soundings.csv"),
        "--stations", str(camp / "stations.csv"),
        "--series", str(camp / "station_series.csv"),
        "--weather", str(camp / "weather.csv"),
        "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.mark.parametrize("name", sorted(CAMPAIGN_SHA256))
def test_campaign_csv_digest(name, small_campaign_dir):
    assert _sha256(small_campaign_dir / name) == CAMPAIGN_SHA256[name]


def test_dataset_csv_digest(dataset_csv):
    assert _sha256(dataset_csv) == DATASET_SHA256


@pytest.mark.parametrize("kind", sorted(MODEL_SHA256))
def test_model_file_digest(kind, dataset_csv, tmp_path):
    out = tmp_path / f"{kind}.model"
    code = cli.main([
        "train", "--dataset", str(dataset_csv), "--model", kind,
        "--holdout-stations", "ST01", "--out", str(out), *TRAIN_EXTRA[kind],
    ])
    assert code == 0
    assert _sha256(out) == MODEL_SHA256[kind]
