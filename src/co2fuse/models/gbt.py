"""Squared-error gradient boosting over regression trees.

Boosting starts from the training-label mean and fits each round's tree to
the residuals of the current ensemble (the negative gradient of the squared
error), shrinking leaf contributions by the learning rate. With shrinkage
in (0, 1] the per-round training MSE is non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..errors import EmptyDatasetError
from .trees import Presorted, TreeNode, fit_tree, predict_tree


@dataclass(frozen=True)
class GbtConfig:
    max_depth: int = 6
    learning_rate: float = 0.1
    n_estimators: int = 100

    def __post_init__(self):
        if self.max_depth < 1 or self.n_estimators < 1:
            raise ValueError("max_depth and n_estimators must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")


@dataclass
class GbtModel:
    kind: ClassVar[str] = "gbt"
    base_score: float
    learning_rate: float
    trees: list[TreeNode]
    train_mse: list[float] = field(default_factory=list)  # trace, not persisted

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        # column-major, so every tree reads each split feature contiguously
        X = np.asfortranarray(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        pred = np.full(X.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            pred += self.learning_rate * predict_tree(tree, X)
        return pred


def train_gbt(X: np.ndarray, y: np.ndarray, cfg: GbtConfig = GbtConfig()) -> GbtModel:
    X = np.asfortranarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] == 0:
        raise EmptyDatasetError("cannot train gradient boosting on an empty set")
    presorted = Presorted(X)
    base = float(y.mean())
    pred = np.full_like(y, base)
    trees: list[TreeNode] = []
    trace: list[float] = []
    ones = np.ones_like(y)
    for _ in range(cfg.n_estimators):
        residual = y - pred
        tree = fit_tree(
            X,
            grad=-residual,
            hess=ones,
            max_depth=cfg.max_depth,
            reg_lambda=0.0,
            presorted=presorted,
        )
        pred += cfg.learning_rate * predict_tree(tree, X)
        trees.append(tree)
        trace.append(float(np.mean((y - pred) ** 2)))
    return GbtModel(base_score=base, learning_rate=cfg.learning_rate, trees=trees, train_mse=trace)
