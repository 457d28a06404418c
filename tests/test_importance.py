import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from co2fuse.errors import FeatureOrderError
from co2fuse.fusion import FEATURE_NAMES
from co2fuse.importance import (
    _coalition_tables,
    _leaf_path_shapley,
    exact_shapley_row,
    permutation_importance,
    shapley_attribution,
    write_report_csv,
)
from co2fuse.models import (
    GbtConfig,
    GbtModel,
    LinearModel,
    MlpModel,
    TreeNode,
    predict_batch,
    train_gbt,
)

rng = np.random.default_rng(19)


def test_linear_closed_form_exact():
    # under mean imputation, a linear model attributes a_i * (x_i - mu_i)
    a = rng.normal(size=14)
    f = lambda X: X @ a + 3.0
    mu = rng.normal(size=14)
    x = rng.normal(size=14)
    phi = exact_shapley_row(f, x, mu, _coalition_tables(14))
    assert np.abs(phi - a * (x - mu)).max() < 1e-9


def test_local_accuracy_identity():
    a = rng.normal(size=6)
    f = lambda X: np.sin(X @ a) * 10.0  # nonlinear on purpose
    mu = rng.normal(size=6)
    x = rng.normal(size=6)
    phi = exact_shapley_row(f, x, mu, _coalition_tables(6))
    assert phi.sum() == pytest.approx(float(f(x[None, :])[0] - f(mu[None, :])[0]), abs=1e-6)


def test_symmetry_of_interchangeable_features():
    f = lambda X: X[:, 0] + X[:, 1]  # features 0 and 1 play identical roles
    mu = np.zeros(4)
    x = np.array([2.5, 2.5, 9.0, -3.0])
    phi = exact_shapley_row(f, x, mu, _coalition_tables(4))
    assert abs(phi[0] - phi[1]) < 1e-9


def test_dummy_feature_gets_zero():
    f = lambda X: 2.0 * X[:, 3]
    mu = rng.normal(size=5)
    for _ in range(5):
        x = rng.normal(size=5)
        phi = exact_shapley_row(f, x, mu, _coalition_tables(5))
        for j in (0, 1, 2, 4):
            assert phi[j] == pytest.approx(0.0, abs=1e-12)


def _linear_trained_model():
    return LinearModel(slope=0.8, intercept=80.0)


def test_report_on_trained_model():
    tm = _linear_trained_model()
    X = rng.normal(415, 5, size=(40, 14))
    report = shapley_attribution(tm, X, X, seed=0)
    assert len(report.entries) == 14
    assert report.method == "shapley"
    assert report.entries[0].feature == "xco2"  # the only live feature
    assert report.entries[0].value > 0
    for e in report.entries[1:]:
        assert e.value == pytest.approx(0.0, abs=1e-12)
    ranks = [e.rank for e in report.entries]
    assert ranks == list(range(1, 15))
    mu = X.mean(axis=0)
    assert report.baseline == pytest.approx(float(predict_batch(tm, mu[None, :])[0]))


def test_report_local_accuracy_on_gbt():
    X = rng.normal(415, 4, size=(120, 14))
    y = X[:, 0] + 0.5 * X[:, 8] + rng.normal(0, 0.5, 120)
    tm = train_gbt(X, y, GbtConfig(n_estimators=25))
    mu = X.mean(axis=0)
    tables = _coalition_tables(14)
    f = lambda Z: predict_batch(tm, Z)
    for x in X[:4]:
        phi = exact_shapley_row(f, x, mu, tables)
        assert phi.sum() == pytest.approx(
            float(f(x[None, :])[0] - f(mu[None, :])[0]), abs=1e-6
        )


# feature values and thresholds share a short list, so that thresholds land
# on x[f] and mu[f] and many features of x equal mu's; nan, which every split
# sends right, is a value too
_GRID = (0.0, 1.0, 2.0, 3.0, np.nan)
_THRESHOLDS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


@st.composite
def _tie_prone_gbt(draw):
    """A small GbtModel (depths 0-6, splits on a few features, so that one
    feature recurs on a path) with two rows and a reference point."""
    live = draw(st.lists(st.integers(0, 13), min_size=1, max_size=4, unique=True))

    def grow(depth, forced):
        # the leftmost path reaches the tree's drawn depth
        if depth == 0 or not (forced or draw(st.booleans())):
            return TreeNode.leaf(draw(st.integers(-8, 8)) / 4.0)
        return TreeNode(
            feature=draw(st.sampled_from(live)),
            threshold=draw(st.sampled_from(_THRESHOLDS)),
            left=grow(depth - 1, forced),
            right=grow(depth - 1, False),
        )

    trees = [grow(draw(st.integers(0, 6)), True) for _ in range(draw(st.integers(1, 3)))]
    gbt = GbtModel(
        base_score=draw(st.sampled_from((0.0, 412.5))),
        learning_rate=draw(st.sampled_from((1.0, 0.1, 0.37))),
        trees=trees,
    )
    point = st.lists(st.sampled_from(_GRID), min_size=14, max_size=14).map(np.array)
    return gbt, np.array([draw(point), draw(point)]), draw(point)


def _split_features(trees):
    used, stack = set(), list(trees)
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            used.add(node.feature)
            stack += [node.left, node.right]
    return used


@settings(max_examples=150, deadline=None)
@given(_tie_prone_gbt())
def test_leaf_path_shapley_matches_enumeration(problem):
    gbt, X, mu = problem
    f = lambda Z: predict_batch(gbt, Z)
    tables = _coalition_tables(14)
    phi = _leaf_path_shapley(gbt, X, mu)
    never_split = sorted(set(range(14)) - _split_features(gbt.trees))
    for x, got in zip(X, phi):
        want = exact_shapley_row(f, x, mu, tables)
        assert np.abs(got - want).max() <= 1e-9
        assert abs(got.sum() - (f(x[None, :])[0] - f(mu[None, :])[0])) <= 1e-9
        assert np.all(got[never_split] == 0.0)
    assert np.all(_leaf_path_shapley(gbt, mu[None, :], mu) == 0.0)


def test_gbt_report_matches_enumeration_and_checks_feature_order():
    X = rng.normal(415, 4, size=(120, 14))
    y = X[:, 0] + 0.5 * X[:, 8] + rng.normal(0, 0.5, 120)
    tm = train_gbt(X, y, GbtConfig(n_estimators=25))
    mu = X.mean(axis=0)
    f = lambda Z: predict_batch(tm, Z)
    tables = _coalition_tables(14)
    want = np.mean([np.abs(exact_shapley_row(f, x, mu, tables)) for x in X[:3]], axis=0)
    report = shapley_attribution(tm, X[:3], X)
    got = {e.feature: e.value for e in report.entries}
    assert max(abs(got[n] - want[i]) for i, n in enumerate(FEATURE_NAMES)) <= 1e-9
    assert report.baseline == float(f(mu[None, :])[0])
    with pytest.raises(FeatureOrderError):
        shapley_attribution(tm, X[:3, :13], X[:, :13])


@pytest.mark.parametrize("kind", ["gbt", "mlp"])
def test_explained_rows_of_another_width_raise_feature_order_error(kind):
    X = rng.normal(415, 4, size=(40, 14))
    if kind == "gbt":
        tm = train_gbt(X, X[:, 0], GbtConfig(n_estimators=2))
    else:
        tm = MlpModel(weights=[np.full((14, 1), 0.1)], biases=[np.zeros(1)], l2_lambda=0.0)
    for rows in (X[:3, :13], np.hstack([X[:3], X[:3, :1]])):
        with pytest.raises(FeatureOrderError, match="explained rows have"):
            shapley_attribution(tm, rows, X)


def test_row_subsample_deterministic():
    tm = _linear_trained_model()
    X = rng.normal(415, 5, size=(300, 14))
    a = shapley_attribution(tm, X, X, seed=11, max_rows=20)
    b = shapley_attribution(tm, X, X, seed=11, max_rows=20)
    assert [(e.feature, e.value) for e in a.entries] == [
        (e.feature, e.value) for e in b.entries
    ]


def test_shapley_input_validation():
    tm = _linear_trained_model()
    X = rng.normal(size=(5, 14))
    with pytest.raises(ValueError):
        shapley_attribution(tm, X, np.empty((0, 14)))
    with pytest.raises(ValueError):
        shapley_attribution(tm, np.empty((0, 14)), X)


def test_permutation_ranks_copied_feature_first():
    X = rng.normal(size=(300, 14))
    y = X[:, 3].copy()  # label is an exact copy of feature 3
    # train a depth-2 booster; it must lock onto feature 3
    tm = train_gbt(X, y, GbtConfig(max_depth=2, n_estimators=40))
    report = permutation_importance(tm, (X, y), repeats=3, seed=5)
    assert report.entries[0].feature == "longitude"  # canonical name of column 3
    assert report.entries[0].value > 10 * abs(report.entries[-1].value)


def test_permutation_ignored_feature_is_small():
    tm = _linear_trained_model()  # uses xco2 only
    X = rng.normal(415, 5, size=(400, 14))
    y = 0.8 * X[:, 0] + 80.0
    report = permutation_importance(tm, (X, y), repeats=4, seed=2)
    by_name = {e.feature: e.value for e in report.entries}
    for name, value in by_name.items():
        if name != "xco2":
            assert abs(value) <= 0.01


def test_permutation_repeats_validation():
    tm = _linear_trained_model()
    X = rng.normal(size=(10, 14))
    with pytest.raises(ValueError):
        permutation_importance(tm, (X, np.zeros(10)), repeats=0)


def test_bar_summary_ordering():
    from co2fuse.importance import bar_summary

    tm = _linear_trained_model()
    X = rng.normal(415, 5, size=(20, 14))
    report = shapley_attribution(tm, X, X)
    lines = bar_summary(report).splitlines()
    assert len(lines) == 14
    assert lines[0].startswith("xco2")
    assert "#" in lines[0] and "#" not in lines[-1]


def test_report_csv_format(tmp_path):
    tm = _linear_trained_model()
    X = rng.normal(415, 5, size=(20, 14))
    report = shapley_attribution(tm, X, X)
    path = tmp_path / "imp.csv"
    with open(path, "w", encoding="utf-8") as fh:
        write_report_csv(report, fh)
    lines = path.read_text().splitlines()
    assert lines[0] == "feature,mean_abs_attribution_ppm,rank,method"
    assert len(lines) == 15
    assert lines[1].split(",")[0] == "xco2"
    assert lines[1].endswith("shapley")
