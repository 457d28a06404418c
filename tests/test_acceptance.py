"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The campaign-scale criteria share one fixed-seed synthetic
campaign (seed 43, noise 1 ppm, station holdout ST05/ST10).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from co2fuse.fusion import (
    MatchConfig,
    build_dataset,
    design_matrix,
    split_by_station,
)
from co2fuse.geo import BoundingBox, GeoPoint, GridSpec
from co2fuse.importance import _coalition_tables, exact_shapley_row, shapley_attribution
from co2fuse.interpolate import (
    KnnParams,
    PointSet,
    knn_interpolate,
    rasterize,
    sweep,
)
from co2fuse.metrics import evaluate
from co2fuse.models import (
    CatBoostConfig,
    GbtConfig,
    LinearModel,
    MlpConfig,
    load,
    param_count,
    predict_batch,
    save,
    train_baseline,
    train_catboost,
    train_gbt,
    train_mlp,
)
from co2fuse.models.mlp import full_loss, init_mlp, loss_and_gradients
from co2fuse.synth import SynthConfig, generate_campaign

from oracles import naive_knn, point_set

CAMPAIGN_SEED = 43
HOLDOUT = {"ST05", "ST10"}
NOISE_STD = 1.0


@contextmanager
def criterion(number, title):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {title} ({time.time() - start:.1f}s)")


@pytest.fixture(scope="module")
def bundle():
    """Fixed-seed campaign, matched dataset, holdout split, two models."""
    cfg = SynthConfig(seed=CAMPAIGN_SEED, noise_std=NOISE_STD)
    campaign = generate_campaign(cfg)
    good = [s for s in campaign.soundings if s.quality_flag == 0]
    dataset = build_dataset(
        good, campaign.catalog, campaign.series, campaign.archive, MatchConfig()
    )
    train, test = split_by_station(dataset, HOLDOUT)
    X_train, y_train = design_matrix(train)
    X_test, y_test = design_matrix(test)
    baseline = train_baseline(X_train, y_train)
    mlp = train_mlp(X_train, y_train, MlpConfig(seed=1))
    return {
        "cfg": cfg,
        "campaign": campaign,
        "soundings": good,
        "dataset": dataset,
        "train": train,
        "test": test,
        "X_train": X_train,
        "y_train": y_train,
        "X_test": X_test,
        "y_test": y_test,
        "baseline": baseline,
        "mlp": mlp,
    }


def test_01_mlp_parameter_count():
    with criterion(1, "MLP architecture has exactly 19,649 trainable parameters"):
        assert param_count(14, (64, 128, 64, 32), 1) == 19_649
        model = init_mlp(14, MlpConfig(), np.random.default_rng(0))
        assert model.n_params == 19_649


def test_02_metric_identities():
    with criterion(2, "metric identities and published-score audit"):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(3, 40))
            y = rng.normal(410, 5, n)
            yhat = y + rng.normal(0, 2, n)
            if np.all(y == y[0]):
                continue
            r = evaluate(y, yhat, p_features=1)
            assert abs(r.rmse**2 - r.mse) <= 1e-12 * max(1.0, r.mse)
        hand = evaluate([1, 2, 3, 4], [1, 2, 3, 5], p_features=1)
        assert hand.adj_r2 == 0.7
        for rmse, mse in ((6.22, 38.7), (5.14, 26.4), (4.29, 18.4), (3.92, 15.3)):
            assert abs(mse - rmse**2) <= 0.15


def test_03_knn_oracle_equivalence():
    with criterion(3, "interpolation matches the naive full-scan oracle"):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 500))
            lats = rng.uniform(-60, 60, n)
            lons = rng.uniform(-179, 179, n)
            values = rng.normal(410, 5, n)
            ps = point_set(zip(lats, lons, values))
            q = GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-179, 179)))
            k = int(rng.integers(1, n + 1))
            p = float(rng.choice([0.0, 0.05, 0.2, 1.0, 2.0]))
            got = knn_interpolate(ps, q, KnnParams(k=k, p=p))
            want = naive_knn(list(zip(lats, lons, values)), q.latitude, q.longitude, k, p)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
        # K = ALL with p = 0 must collapse to one exact global mean
        pts = point_set(
            zip(rng.uniform(50, 53, 300), rng.uniform(10, 14, 300), rng.normal(410, 5, 300))
        )
        grid = rasterize(pts, GridSpec(BoundingBox(50, 10, 53, 14), 0.5),
                         KnnParams(k=None, p=0.0))
        assert grid.std == 0.0


def test_04_interpolation_hand_values():
    with criterion(4, "hand-computed interpolation values"):
        deg_per_km = 180.0 / (math.pi * 6371.0)
        pts = point_set([(deg_per_km, 0.0, 10.0), (-2.0 * deg_per_km, 0.0, 20.0)])
        two_nn = knn_interpolate(pts, GeoPoint(0, 0), KnnParams(k=2, p=1.0))
        assert two_nn == pytest.approx(40.0 / 3.0, abs=1e-9)
        assert knn_interpolate(pts, GeoPoint(0, 0), KnnParams(k=1, p=1.0)) == 10.0


def test_05_mlp_gradient_check():
    with criterion(5, "backprop matches central finite differences"):
        rng = np.random.default_rng(5)
        cfg = MlpConfig(hidden_sizes=(6, 5, 4), l2_lambda=0.01)
        model = init_mlp(4, cfg, np.random.default_rng(15), output_bias=0.4)
        X = rng.normal(size=(8, 4))
        y = rng.normal(size=8)
        _, gw, gb = loss_and_gradients(model, X, y)
        h = 1e-5
        for li in range(len(model.weights)):
            for arr, grad in ((model.weights[li], gw[li]), (model.biases[li], gb[li])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    orig = arr[ix]
                    arr[ix] = orig + h
                    up = full_loss(model, X, y)
                    arr[ix] = orig - h
                    down = full_loss(model, X, y)
                    arr[ix] = orig
                    fd = (up - down) / (2 * h)
                    denom = max(abs(fd), abs(grad[ix]), 1e-8)
                    assert abs(fd - grad[ix]) / denom < 1e-4


def test_06_boosting_properties():
    with criterion(6, "gradient and category boosting behave as specified"):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(200, 6))
        y = X[:, 0] - 2 * X[:, 3] + rng.normal(0, 0.5, 200)
        m = train_gbt(X, y, GbtConfig(n_estimators=100))
        for a, b in zip(m.train_mse, m.train_mse[1:]):
            assert b <= a + 1e-12 * max(1.0, a)

        x = np.concatenate([np.linspace(-1, -0.02, 50), np.linspace(0.02, 1, 50)])
        step_y = np.where(x < 0, 0.0, 10.0)
        step = train_gbt(x[:, None], step_y, GbtConfig(max_depth=1, n_estimators=100))
        assert np.abs(step.predict_batch(x[:, None]) - step_y).max() < 0.1

        Xc = rng.normal(size=(300, 5))
        yc = rng.uniform(400, 425, 300)
        cat = train_catboost(Xc, yc, CatBoostConfig())
        probes = rng.normal(size=(10_000, 5))
        preds = cat.predict_batch(probes)
        assert len(set(preds.tolist())) <= 25
        assert set(preds.tolist()) <= set(cat.bin_centers.tolist())


def test_07_station_holdout_hygiene(bundle):
    with criterion(7, "train and test station sets are disjoint"):
        train_ids = set(bundle["train"].station_id)
        test_ids = set(bundle["test"].station_id)
        assert test_ids == HOLDOUT
        assert not (train_ids & test_ids)
        assert len(bundle["train"]) + len(bundle["test"]) == len(bundle["dataset"])


def test_08_end_to_end_synthetic_ordering(bundle):
    with criterion(8, "MLP holdout RMSE under 1.5 sigma and below the baseline"):
        y = bundle["y_test"]
        rmse_baseline = float(
            np.sqrt(np.mean((predict_batch(bundle["baseline"], bundle["X_test"]) - y) ** 2))
        )
        rmse_mlp = float(
            np.sqrt(np.mean((predict_batch(bundle["mlp"], bundle["X_test"]) - y) ** 2))
        )
        print(
            f"  holdout RMSE: baseline {rmse_baseline:.3f} ppm, mlp {rmse_mlp:.3f} ppm "
            f"(noise sigma {NOISE_STD})"
        )
        assert rmse_mlp <= 1.5 * NOISE_STD
        assert rmse_mlp < rmse_baseline


def test_09_shapley_correctness(bundle):
    with criterion(9, "exact Shapley: local accuracy, linear closed form, dummies"):
        X = bundle["X_train"]
        tables = _coalition_tables(14)
        mu = X.mean(axis=0)

        # linear model: closed form and per-row local accuracy on 256 rows
        slope, intercept = 0.8, 80.0
        linear = LinearModel(slope=slope, intercept=intercept)
        f = lambda Z: predict_batch(linear, Z)
        rows = X[:256]
        for x in rows:
            phi = exact_shapley_row(f, x, mu, tables)
            closed = np.zeros(14)
            closed[0] = slope * (x[0] - mu[0])
            assert np.abs(phi - closed).max() < 1e-9
            assert abs(phi.sum() - (f(x[None, :])[0] - f(mu[None, :])[0])) < 1e-6
            assert np.abs(phi[1:]).max() == 0.0  # dummy features

        # nonlinear spot check: the MLP satisfies local accuracy too
        g = lambda Z: predict_batch(bundle["mlp"], Z)
        for x in X[:8]:
            phi = exact_shapley_row(g, x, mu, tables)
            assert abs(phi.sum() - (g(x[None, :])[0] - g(mu[None, :])[0])) < 1e-6

        report = shapley_attribution(linear, X, X, seed=0, max_rows=256)
        assert report.entries[0].feature == "xco2"


def test_10_ablation_behavior(bundle):
    with criterion(10, "(K, p) sweep reproduces the ablation structure"):
        soundings = bundle["soundings"]
        values = [s.xco2 for s in soundings]
        points = PointSet(
            [s.location.latitude for s in soundings],
            [s.location.longitude for s in soundings],
            values,
        )
        spec = GridSpec(bundle["cfg"].bbox, 1.0)
        rows = sweep(points, spec, k_list=(10, 200, 1000, None), p_list=(1.0, 0.2, 0.0))
        assert len(rows) == 12
        lo, hi = min(values), max(values)
        for row in rows:
            assert lo <= row.mean_ppm <= hi
        by_key = {(r.k, r.p): r for r in rows}
        assert by_key[(1000, 0.0)].std_ppm < by_key[(10, 0.0)].std_ppm
        assert by_key[(None, 0.0)].std_ppm == 0.0


def test_11_determinism_and_persistence(bundle, tmp_path):
    with criterion(11, "seeded reruns are byte-identical; round-trips are exact"):
        X, y = bundle["X_train"], bundle["y_train"]
        sub = slice(0, 600)

        def builds():
            return [
                train_baseline(X[sub], y[sub]),
                train_gbt(X[sub], y[sub], GbtConfig(n_estimators=10)),
                train_catboost(X[sub], y[sub], CatBoostConfig(iterations=4)),
                train_mlp(X[sub], y[sub], MlpConfig(epochs=4, seed=3)),
            ]

        first, second = builds(), builds()
        queries = np.random.default_rng(123).normal(415, 5, size=(100, 14))
        for tm1, tm2 in zip(first, second):
            p1 = tmp_path / f"{tm1.kind}-a.model"
            p2 = tmp_path / f"{tm1.kind}-b.model"
            save(tm1, p1)
            save(tm2, p2)
            assert p1.read_bytes() == p2.read_bytes()
            back = load(p1)
            assert np.array_equal(predict_batch(back, queries), predict_batch(tm1, queries))
