import numpy as np
import pytest

from co2fuse.errors import DegenerateBinningError
from co2fuse.models import CatBoostConfig, train_catboost
from co2fuse.models.category import bin_labels


def test_bin_arithmetic_400_to_425():
    y = np.array([400.0, 412.5, 425.0])
    edges, centers, idx = bin_labels(y, 25)
    assert edges[1] - edges[0] == pytest.approx(1.0)
    assert centers[0] == pytest.approx(400.5)
    assert centers[-1] == pytest.approx(424.5)
    assert list(idx) == [0, 12, 24]


def test_all_labels_equal_rejected():
    with pytest.raises(DegenerateBinningError):
        bin_labels(np.full(10, 415.0), 25)


def test_predictions_constrained_to_bin_centers():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(200, 4))
    y = rng.uniform(400, 425, 200)
    m = train_catboost(X, y, CatBoostConfig(iterations=10))
    preds = m.predict_batch(rng.normal(size=(500, 4)))
    centers = set(m.bin_centers.tolist())
    assert set(preds.tolist()) <= centers
    assert len(set(preds.tolist())) <= 25


def test_separable_two_class_accuracy():
    rng = np.random.default_rng(4)
    X = np.concatenate([rng.normal(-2, 0.3, (10, 1)), rng.normal(2, 0.3, (10, 1))])
    y = np.concatenate([np.full(10, 400.0), np.full(10, 424.9)])
    m = train_catboost(X, y, CatBoostConfig(iterations=100))
    classes = np.argmax(m.class_scores(X), axis=1)
    expected = np.where(y < 410, 0, 24)
    assert np.mean(classes == expected) == 1.0


def test_expectation_decode_blends_centers():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(100, 3))
    y = rng.uniform(400, 425, 100)
    m = train_catboost(X, y, CatBoostConfig(iterations=5, decode="expectation"))
    preds = m.predict_batch(X)
    assert np.all(preds >= m.bin_centers[0]) and np.all(preds <= m.bin_centers[-1])
    # expectation decode is generally off the center lattice
    assert len(set(np.round(preds, 9).tolist())) > 25 or len(preds) <= 25


def test_config_validation():
    with pytest.raises(ValueError):
        CatBoostConfig(nbr_classes=1)
    with pytest.raises(ValueError):
        CatBoostConfig(decode="median")
    with pytest.raises(ValueError):
        CatBoostConfig(l2_leaf_reg=-1)


@pytest.mark.parametrize("field", ["learning_rate", "l2_leaf_reg"])
def test_config_rejects_nan(field):
    with pytest.raises(ValueError):
        CatBoostConfig(**{field: float("nan")})
    assert CatBoostConfig(l2_leaf_reg=0.0).l2_leaf_reg == 0.0


def test_deterministic():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 3))
    y = rng.uniform(400, 410, 60)
    a = train_catboost(X, y, CatBoostConfig(iterations=5))
    b = train_catboost(X, y, CatBoostConfig(iterations=5))
    assert np.array_equal(a.predict_batch(X), b.predict_batch(X))
