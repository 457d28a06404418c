"""exact_shapley_row reads each feature's coalition pairs as strided views of
the value vector; the index-gather loop it replaced is the oracle, bit for
bit, for d = 1 to 10 features."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from co2fuse.importance import _coalition_tables, exact_shapley_row
from co2fuse.models.mlp import MlpConfig, fit_norm_stats, init_mlp

from oracles import shapley_row_by_gathers


def _assert_bit_equal(f, x, mu):
    want = shapley_row_by_gathers(f, x, mu)
    got = exact_shapley_row(f, x, mu, _coalition_tables(len(x)))
    assert got.tobytes() == want.tobytes()
    assert exact_shapley_row(f, x, mu).tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_small_integer_values_match_the_gathers(data):
    # few distinct values: many coalitions tie, many marginal gains are 0,
    # and x equals mu on some features
    d = data.draw(st.integers(1, 10), label="d")
    ints = st.lists(st.integers(-2, 2), min_size=d, max_size=d).map(
        lambda v: np.array(v, dtype=np.float64))
    x, mu, coef = data.draw(ints, label="x"), data.draw(ints, label="mu"), data.draw(ints)
    modulus = data.draw(st.integers(2, 5), label="modulus")
    _assert_bit_equal(lambda X: np.floor(X @ coef) % modulus, x, mu)


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 10),
    hidden_sizes=st.lists(st.integers(1, 16), min_size=1, max_size=3).map(tuple),
    with_norm=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_mlp_matches_the_gathers(d, hidden_sizes, with_norm, seed):
    rng = np.random.default_rng(seed)
    model = init_mlp(d, MlpConfig(hidden_sizes=hidden_sizes), rng, output_bias=415.0)
    if with_norm:
        model.norm = fit_norm_stats(rng.normal(415, 5, size=(32, d)))
    x, mu = rng.normal(415, 5, size=(2, d))
    _assert_bit_equal(model.predict_batch, x, mu)
