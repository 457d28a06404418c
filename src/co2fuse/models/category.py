"""Category boosting: labels binned into fixed classes, softmax tree boosting.

Training labels are discretized into equal-width bins over their range; a
boosted one-tree-per-class softmax classifier is fit on the features, with
the l2 leaf regularizer applied in the Newton leaf denominator. Decoding
maps the winning class back to its bin center, so predictions are
constrained to at most nbr_classes fixed values (argmax decode; an
expectation decode over the class probabilities is available as a flag).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..errors import DegenerateBinningError, EmptyDatasetError
from .trees import Presorted, TreeNode, fit_tree, predict_tree

DECODE_MODES = ("argmax", "expectation")


@dataclass(frozen=True)
class CatBoostConfig:
    nbr_classes: int = 25
    max_depth: int = 6
    learning_rate: float = 0.1
    iterations: int = 100
    l2_leaf_reg: float = 3.0
    decode: str = "argmax"

    def __post_init__(self):
        if self.nbr_classes < 2:
            raise ValueError("nbr_classes must be >= 2")
        if self.max_depth < 1 or self.iterations < 1:
            raise ValueError("max_depth and iterations must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not self.l2_leaf_reg >= 0.0:
            raise ValueError("l2_leaf_reg must be >= 0")
        if self.decode not in DECODE_MODES:
            raise ValueError(f"decode must be one of {DECODE_MODES}")


@dataclass
class CatModel:
    kind: ClassVar[str] = "catboost"
    bin_edges: np.ndarray  # nbr_classes + 1 edges over the training label range
    bin_centers: np.ndarray
    learning_rate: float
    decode: str
    # trees[i][k]: iteration i, class k
    trees: list[list[TreeNode]]

    @property
    def n_classes(self) -> int:
        return len(self.bin_centers)

    def class_scores(self, X: np.ndarray) -> np.ndarray:
        # column-major, so every tree reads each split feature contiguously
        X = np.asfortranarray(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        scores = np.zeros((X.shape[0], self.n_classes), dtype=np.float64)
        for round_trees in self.trees:
            for k, tree in enumerate(round_trees):
                scores[:, k] += self.learning_rate * predict_tree(tree, X)
        return scores

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        scores = self.class_scores(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        if self.decode == "expectation":
            return _softmax(scores) @ self.bin_centers
        return self.bin_centers[np.argmax(scores, axis=1)]


def _softmax(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def bin_labels(y: np.ndarray, nbr_classes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equal-width bins over [min(y), max(y)]: returns (edges, centers, index)."""
    lo, hi = float(y.min()), float(y.max())
    if hi <= lo:
        raise DegenerateBinningError("all training labels are equal; cannot form class bins")
    edges = np.linspace(lo, hi, nbr_classes + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = (hi - lo) / nbr_classes
    idx = np.clip(((y - lo) / width).astype(np.int64), 0, nbr_classes - 1)
    return edges, centers, idx


def train_catboost(
    X: np.ndarray, y: np.ndarray, cfg: CatBoostConfig = CatBoostConfig()
) -> CatModel:
    X = np.asfortranarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] == 0:
        raise EmptyDatasetError("cannot train category boosting on an empty set")
    presorted = Presorted(X)
    edges, centers, labels = bin_labels(y, cfg.nbr_classes)
    n, k = X.shape[0], cfg.nbr_classes
    onehot = np.zeros((n, k), dtype=np.float64)
    onehot[np.arange(n), labels] = 1.0
    scores = np.zeros((n, k), dtype=np.float64)
    all_trees: list[list[TreeNode]] = []
    for _ in range(cfg.iterations):
        probs = _softmax(scores)
        grad = probs - onehot
        hess = probs * (1.0 - probs)
        round_trees = []
        for c in range(k):
            tree = fit_tree(
                X,
                grad=grad[:, c],
                hess=hess[:, c],
                max_depth=cfg.max_depth,
                reg_lambda=cfg.l2_leaf_reg,
                presorted=presorted,
            )
            scores[:, c] += cfg.learning_rate * predict_tree(tree, X)
            round_trees.append(tree)
        all_trees.append(round_trees)
    return CatModel(
        bin_edges=edges,
        bin_centers=centers,
        learning_rate=cfg.learning_rate,
        decode=cfg.decode,
        trees=all_trees,
    )
