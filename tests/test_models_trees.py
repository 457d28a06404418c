from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from co2fuse.errors import ModelFormatError
from co2fuse.models import trees
from co2fuse.models.trees import (
    Presorted,
    fit_tree,
    predict_tree,
    tree_from_sexpr,
    tree_to_sexpr,
)

from oracles import predict_rows_one_at_a_time, reference_tree_sexpr, tree_depth


@st.composite
def tie_prone_problems(draw):
    """Small fits built to tie: integer-valued, constant and duplicated
    columns, integer gradients, nodes down to one row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 48))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("integer", "constant", "duplicate", "real")))
        if kind == "duplicate" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))].copy())
        elif kind == "constant":
            columns.append(np.full(n, float(rng.integers(-2, 3))))
        elif kind == "real":
            columns.append(rng.normal(size=n))
        else:
            columns.append(rng.integers(0, draw(st.integers(1, 5)), size=n).astype(np.float64))
    X = np.column_stack(columns)
    if draw(st.booleans()):
        grad = rng.integers(-3, 4, size=n).astype(np.float64)
    else:
        grad = rng.normal(size=n)
    if draw(st.booleans()):
        hess, reg_lambda = np.ones(n), 0.0
    else:
        hess, reg_lambda = rng.uniform(0.05, 1.0, size=n), 3.0
    max_depth = draw(st.integers(1, 6))
    return X, grad, hess, max_depth, reg_lambda


@settings(max_examples=300, deadline=None)
@given(tie_prone_problems(), st.sampled_from((1, 7, trees._SCAN_PAIRS)))
def test_presorted_builder_matches_resorting_oracle(problem, scan_pairs):
    X, grad, hess, max_depth, reg_lambda = problem
    # small values make the split search take the features a few at a time
    with mock.patch.object(trees, "_SCAN_PAIRS", scan_pairs):
        tree = fit_tree(X, grad, hess, max_depth, reg_lambda=reg_lambda)
    assert tree_to_sexpr(tree) == reference_tree_sexpr(X, grad, hess, max_depth, reg_lambda)


@settings(max_examples=100, deadline=None)
@given(tie_prone_problems(), st.integers(0, 2**32 - 1))
def test_one_presort_serves_every_tree_of_a_fit(problem, seed):
    X, grad, hess, max_depth, reg_lambda = problem
    shared = Presorted(X)
    rng = np.random.default_rng(seed)
    for g in (grad, rng.normal(size=grad.size), -grad):
        tree = fit_tree(X, g, hess, max_depth, reg_lambda=reg_lambda, presorted=shared)
        assert tree_to_sexpr(tree) == reference_tree_sexpr(
            X, g, hess, max_depth, reg_lambda=reg_lambda
        )


@settings(max_examples=150, deadline=None)
@given(tie_prone_problems(), st.integers(0, 2**32 - 1))
def test_predict_matches_row_by_row_walk(problem, seed):
    X, grad, hess, max_depth, reg_lambda = problem
    tree = fit_tree(X, grad, hess, max_depth, reg_lambda=reg_lambda)
    rng = np.random.default_rng(seed)
    thresholds, stack = [], [tree]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            thresholds.append(node.threshold)
            stack += [node.left, node.right]
    # rows on the thresholds, the training rows and shifted copies of them
    on_thresholds = np.repeat(np.array(thresholds)[:, None], X.shape[1], axis=1)
    queries = np.vstack([on_thresholds, X, X + rng.uniform(-1.0, 1.0, size=X.shape)])
    expected = predict_rows_one_at_a_time(tree, queries).tobytes()
    assert predict_tree(tree, queries).tobytes() == expected
    assert predict_tree(tree, np.asfortranarray(queries)).tobytes() == expected


def _chain(depth: int) -> str:
    """A tree that splits again down its left side ``depth`` times."""
    return "(split 0 0.5 " * depth + "(leaf 1)" + " (leaf 2))" * depth


def test_deep_expression_parses_and_round_trips():
    text = _chain(3000)
    tree = tree_from_sexpr(text, 1)
    assert tree_depth(tree) == 3000
    assert tree_to_sexpr(tree) == text
    assert predict_tree(tree, np.array([[0.0], [1.0]])).tolist() == [1.0, 2.0]


@pytest.mark.parametrize(
    "text",
    [
        _chain(3000)[:-1],  # one closing parenthesis short
        _chain(3000) + ")",
        _chain(3000).replace("(leaf 1)", "(leaf)"),
        "(split 0 0.5 (leaf 1))",
        "(split 0 x (leaf 1) (leaf 2))",
        "(leaf 1) (leaf 2)",
        "(twig 1)",
        "",
    ],
)
def test_malformed_expression_raises_model_format_error(text):
    with pytest.raises(ModelFormatError):
        tree_from_sexpr(text, 1)
