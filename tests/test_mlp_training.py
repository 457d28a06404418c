import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from co2fuse.models import MlpConfig, train_mlp

from oracles import reference_train_mlp


@st.composite
def training_runs(draw):
    """A small net and a training set, with a one-row last mini-batch in
    about half of the draws. From 2 rows, the fewest that train_mlp can
    standardize, up to 3,000, where one pass over all rows keeps the bits of
    512-row blocks on 1 or 2 BLAS threads."""
    batch_size = draw(st.integers(1, 300))
    rows = draw(st.integers(2, 3000))
    if draw(st.booleans()):
        rows = max(min(rows, 2999) // batch_size, 1) * batch_size + 1
    cfg = MlpConfig(
        hidden_sizes=tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))),
        l2_lambda=draw(st.sampled_from([0.0, 5e-3])),
        momentum=draw(st.sampled_from([0.0, 0.9])),
        batch_size=batch_size,
        epochs=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 2**16)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = rng.normal(size=(rows, draw(st.integers(1, 5))))
    y = X @ rng.normal(size=X.shape[1]) + rng.normal(size=rows)
    return X, y, cfg


@settings(max_examples=50, deadline=None)
@given(training_runs())
def test_train_mlp_matches_reference_trainer_bit_for_bit(run):
    X, y, cfg = run
    model = train_mlp(X, y, cfg)
    # the reference trainer reads the rows z-scored as train_mlp fits them
    Z = (X - X.mean(axis=0)) / X.std(axis=0)
    weights, biases, loss_trace = reference_train_mlp(Z, y, cfg)
    assert [w.tobytes() for w in model.weights] == [w.tobytes() for w in weights]
    assert [b.tobytes() for b in model.biases] == [b.tobytes() for b in biases]
    assert np.array(model.loss_trace).tobytes() == np.array(loss_trace).tobytes()


def test_five_epochs_of_the_default_net_allocate_under_6_mib():
    # the per-epoch loss over all 4,000 rows keeps one 512-row block's
    # activations at a time, and each step only its mini-batch's and one
    # flat gradient vector
    rng = np.random.default_rng(43)
    X = rng.normal(size=(4000, 14))
    y = 415.0 + X @ rng.normal(size=14)
    tracemalloc.start()
    try:
        train_mlp(X, y, MlpConfig(epochs=5, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
