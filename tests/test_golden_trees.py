"""Golden digests of tree model files trained on the small synthetic campaign.

The digests were recorded with the per-node re-sorting tree builder. Any
change to the tree engine that moves a split, a threshold or a leaf value,
or that changes how trees are written, changes a digest. A PR that changes
one on purpose says why in CHANGES.md.
"""

import hashlib

import pytest

from co2fuse.fusion import design_matrix
from co2fuse.models import (
    CatBoostConfig,
    GbtConfig,
    save,
    train_catboost,
    train_gbt,
)

GOLDEN_SHA256 = {
    "gbt": "704a2f6dd6c48a36290b97eaf1ffefeb106d450698d0c3b2dc7057ba8b73a39b",
    "catboost": "354c6a8a47aaa2eede779b597b6c62ecfbd3d6b35a9226fecb28d30450156668",
}

TRAINERS = {
    "gbt": lambda X, y: train_gbt(X, y, GbtConfig(n_estimators=8)),
    "catboost": lambda X, y: train_catboost(X, y, CatBoostConfig(iterations=4)),
}


@pytest.mark.parametrize("kind", sorted(TRAINERS))
def test_tree_model_file_digest(kind, small_dataset, tmp_path):
    X, y = design_matrix(small_dataset)
    path = tmp_path / f"{kind}.model"
    save(TRAINERS[kind](X, y), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[kind]
