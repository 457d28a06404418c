import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from co2fuse.errors import DegenerateFeatureError, TrainingDivergedError
from co2fuse.models import MlpConfig, param_count, train_mlp
from co2fuse.models.mlp import (
    fit_norm_stats,
    full_loss,
    init_mlp,
    loss_and_gradients,
    standardize,
)

from oracles import mlp_predict_unblocked, ols_slope_intercept


def test_param_count_paper_architecture():
    assert param_count(14, (64, 128, 64, 32), 1) == 19_649


def test_param_count_tiny():
    assert param_count(2, (3,), 1) == 13


def test_trained_model_param_count_matches_formula():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(64, 14))
    y = rng.normal(size=64)
    m = train_mlp(X, y, MlpConfig(epochs=1))
    assert m.n_params == 19_649


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    cfg = MlpConfig(hidden_sizes=(5, 4), l2_lambda=0.01)
    model = init_mlp(3, cfg, np.random.default_rng(3), output_bias=0.3)
    X = rng.normal(size=(6, 3))
    y = rng.normal(size=6)
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


def test_zero_weights_loss_is_bias_path_error():
    cfg = MlpConfig(hidden_sizes=(4, 3), l2_lambda=0.0)
    model = init_mlp(2, cfg, np.random.default_rng(0), output_bias=0.7)
    for w in model.weights:
        w[:] = 0.0
    X = np.random.default_rng(1).normal(size=(5, 2))
    y = np.zeros(5)
    loss, _, _ = loss_and_gradients(model, X, y)
    # with all weights zero the output is just the final bias
    assert loss == pytest.approx(0.7**2)


def test_doubling_lambda_adds_weight_norm():
    rng = np.random.default_rng(9)
    cfg = MlpConfig(hidden_sizes=(4,), l2_lambda=0.01)
    model = init_mlp(3, cfg, np.random.default_rng(2))
    X = rng.normal(size=(8, 3))
    y = rng.normal(size=8)
    loss1, _, _ = loss_and_gradients(model, X, y)
    model.l2_lambda = 0.02
    loss2, _, _ = loss_and_gradients(model, X, y)
    wsum = sum(float(np.sum(w**2)) for w in model.weights)
    assert loss2 - loss1 == pytest.approx(0.01 * wsum, rel=1e-12)


def test_fits_linear_target():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(500, 2))
    y = 2.0 * X[:, 0] + 1.0
    m = train_mlp(X, y, MlpConfig(hidden_sizes=(16, 8), epochs=200, l2_lambda=0.0, seed=1))
    pred = m.predict_batch(X)
    rmse = float(np.sqrt(np.mean((pred - y) ** 2)))
    assert rmse < 0.05
    # a linear target is representable: the OLS line is the floor to approach
    slope, intercept = ols_slope_intercept(list(X[:, 0]), list(y))
    assert (slope, intercept) == (pytest.approx(2.0), pytest.approx(1.0))


def test_loss_trace_recorded_and_decreasing_overall():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(128, 3))
    y = X @ np.array([1.0, -2.0, 0.5])
    m = train_mlp(X, y, MlpConfig(hidden_sizes=(8,), epochs=30, l2_lambda=0.0))
    assert len(m.loss_trace) == 30
    assert m.loss_trace[-1] < m.loss_trace[0]


def test_divergence_reports_epoch():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(64, 3))
    y = rng.normal(size=64) * 100
    with pytest.raises(TrainingDivergedError, match="epoch"):
        train_mlp(X, y, MlpConfig(hidden_sizes=(8,), learning_rate=1e4, epochs=20))


def test_deterministic_under_seed():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(96, 4))
    y = rng.normal(size=96)
    a = train_mlp(X, y, MlpConfig(hidden_sizes=(8, 4), epochs=5, seed=3))
    b = train_mlp(X, y, MlpConfig(hidden_sizes=(8, 4), epochs=5, seed=3))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_config_validation():
    with pytest.raises(ValueError):
        MlpConfig(hidden_sizes=())
    with pytest.raises(ValueError):
        MlpConfig(momentum=1.0)
    with pytest.raises(ValueError):
        MlpConfig(learning_rate=0.0)


@pytest.mark.parametrize("field", ["learning_rate", "l2_lambda", "momentum"])
def test_config_rejects_nan(field):
    with pytest.raises(ValueError):
        MlpConfig(**{field: float("nan")})
    assert MlpConfig(l2_lambda=0.0, momentum=0.0).l2_lambda == 0.0


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


def test_train_mlp_refuses_a_one_row_set():
    # one row holds every feature constant, so no feature can be z-scored
    with pytest.raises(DegenerateFeatureError, match="'xco2' is constant"):
        train_mlp(np.full((1, 14), 415.0), np.array([415.0]), MlpConfig(epochs=1))


def test_predict_batch_matches_forward_bit_for_bit():
    rng = np.random.default_rng(8)
    X = rng.normal(415, 5, size=(300, 14))
    m = train_mlp(X, X[:, 0], MlpConfig(epochs=2))
    stats = fit_norm_stats(X)  # the model keeps the stats of its training rows
    queries = rng.normal(415, 5, size=(1000, 14))
    want = m.forward(standardize(queries, stats))[0]
    assert m.predict_batch(queries).tobytes() == want.tobytes()
    # without stats the model reads its input as already standardized
    unscaled = dataclasses.replace(m, norm=None)
    assert unscaled.predict_batch(standardize(queries, stats)).tobytes() == want.tobytes()


def _random_net(hidden_sizes, with_norm, seed=11):
    rng = np.random.default_rng(seed)
    model = init_mlp(14, MlpConfig(hidden_sizes=hidden_sizes), rng, output_bias=415.0)
    if with_norm:
        model.norm = fit_norm_stats(rng.normal(415, 5, size=(200, 14)))
    return model


# ragged tails, exact blocks and one row either side of a block edge
BLOCK_CASES = [
    (hidden_sizes, with_norm, n)
    for hidden_sizes in ((64, 128, 64, 32), (5, 3, 7))
    for with_norm in (True, False)
    for n in (0, 1, 7, 1023, 1024, 1025, 2049, 16_384, 23_321)
]


def _blocked_predict_mismatches():
    """Indices of the BLOCK_CASES where predict_batch and the one-shot oracle
    differ in any bit."""
    mismatches = []
    for i, (hidden_sizes, with_norm, n) in enumerate(BLOCK_CASES):
        model = _random_net(hidden_sizes, with_norm)
        X = np.random.default_rng(n).normal(415, 5, size=(n, 14))
        got = model.predict_batch(X)
        if got.shape != (n,) or got.tobytes() != mlp_predict_unblocked(model, X).tobytes():
            mismatches.append(i)
    return mismatches


@pytest.fixture(scope="module")
def one_thread_mismatches():
    """_blocked_predict_mismatches in a child process with one BLAS thread.
    With more, the one-shot product of some 15,000 rows or more itself moves
    in its last bits, because the threads split its rows off the kernel's
    tile grid; the blocks keep to it (see mlp._BLOCK_ROWS)."""
    one_thread = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")}
    path = os.pathsep.join(filter(None, sys.path))
    done = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path, **one_thread),
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("hidden_sizes, with_norm, n", BLOCK_CASES, ids=[
    f"{'x'.join(map(str, h))}-{'norm' if w else 'raw'}-{n}" for h, w, n in BLOCK_CASES
])
def test_blocked_predict_matches_one_shot_oracle(one_thread_mismatches, hidden_sizes,
                                                 with_norm, n):
    assert BLOCK_CASES.index((hidden_sizes, with_norm, n)) not in one_thread_mismatches


def test_predict_of_a_shapley_batch_allocates_under_4_mib():
    # one exact-Shapley row sends 2^14 coalitions through the default net
    model = _random_net((64, 128, 64, 32), with_norm=True)
    X = np.random.default_rng(0).normal(415, 5, size=(1 << 14, 14))
    tracemalloc.start()
    try:
        model.predict_batch(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


if __name__ == "__main__":
    # the child process of one_thread_mismatches
    print(json.dumps(_blocked_predict_mismatches()))
