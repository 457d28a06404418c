import numpy as np
import pytest

from co2fuse.errors import EmptyDatasetError
from co2fuse.models import GbtConfig, train_gbt

from oracles import tree_depth


def test_constant_labels_predict_constant():
    X = np.random.default_rng(0).normal(size=(40, 3))
    m = train_gbt(X, np.full(40, 7.5), GbtConfig(n_estimators=10))
    assert np.all(m.predict_batch(X) == 7.5)


def test_step_function_fit():
    # residual decays geometrically with depth-1 trees that find the step
    x = np.concatenate([np.linspace(-1, -0.02, 50), np.linspace(0.02, 1, 50)])
    y = np.where(x < 0, 0.0, 10.0)
    m = train_gbt(x[:, None], y, GbtConfig(max_depth=1, n_estimators=100))
    assert np.abs(m.predict_batch(x[:, None]) - y).max() < 0.1


def test_training_mse_non_increasing():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(150, 5))
    y = X[:, 0] * 2 + np.sin(X[:, 1]) + rng.normal(0, 0.5, 150)
    m = train_gbt(X, y, GbtConfig(n_estimators=60))
    trace = m.train_mse
    assert len(trace) == 60
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-12 * max(1.0, a)


def test_vanishing_learning_rate_keeps_base_score():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(80, 4))
    y = rng.uniform(0, 10, 80)
    m = train_gbt(X, y, GbtConfig(learning_rate=1e-6, n_estimators=100))
    assert np.abs(m.predict_batch(X) - y.mean()).max() < 1e-3


def test_tree_depth_bounded():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 6))
    y = rng.normal(size=300)
    for depth in (1, 3, 6):
        m = train_gbt(X, y, GbtConfig(max_depth=depth, n_estimators=5))
        assert all(tree_depth(t) <= depth for t in m.trees)
        assert len(m.trees) <= 5


def test_empty_training_set():
    with pytest.raises(EmptyDatasetError):
        train_gbt(np.empty((0, 3)), np.empty(0))


def test_config_validation():
    with pytest.raises(ValueError):
        GbtConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        GbtConfig(max_depth=0)


@pytest.mark.parametrize("field", ["learning_rate"])
def test_config_rejects_nan(field):
    with pytest.raises(ValueError):
        GbtConfig(**{field: float("nan")})


def test_deterministic_across_runs():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(100, 4))
    y = rng.normal(size=100)
    a = train_gbt(X, y, GbtConfig(n_estimators=15))
    b = train_gbt(X, y, GbtConfig(n_estimators=15))
    assert np.array_equal(a.predict_batch(X), b.predict_batch(X))
