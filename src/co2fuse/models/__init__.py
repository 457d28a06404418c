"""The four predictors: baseline OLS, gradient boosting, category boosting
and the MLP, plus a uniform train/predict/persist surface."""

from .baseline import LinearModel, train_baseline
from .category import CatBoostConfig, CatModel, train_catboost
from .gbt import GbtConfig, GbtModel, train_gbt
from .mlp import (
    DEFAULT_HIDDEN_SIZES,
    MlpConfig,
    MlpModel,
    loss_and_gradients,
    param_count,
    train_mlp,
)
from .persist import (
    MODEL_KINDS,
    load,
    predict_batch,
    save,
)
from .trees import TreeNode, fit_tree, predict_tree

__all__ = [
    "LinearModel",
    "train_baseline",
    "GbtConfig",
    "GbtModel",
    "train_gbt",
    "CatBoostConfig",
    "CatModel",
    "train_catboost",
    "MlpConfig",
    "MlpModel",
    "DEFAULT_HIDDEN_SIZES",
    "train_mlp",
    "loss_and_gradients",
    "param_count",
    "MODEL_KINDS",
    "save",
    "load",
    "predict_batch",
    "TreeNode",
    "fit_tree",
    "predict_tree",
]
