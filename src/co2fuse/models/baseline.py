"""Baseline: ordinary least squares of the label on the xCO2 feature alone."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..errors import DegenerateFitError, EmptyDatasetError

# xco2 is feature column 0 in the canonical order
XCO2_COLUMN = 0


@dataclass(frozen=True)
class LinearModel:
    kind: ClassVar[str] = "baseline"
    slope: float
    intercept: float

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return self.slope * X[:, XCO2_COLUMN] + self.intercept


def train_baseline(X: np.ndarray, y: np.ndarray) -> LinearModel:
    """OLS with intercept on feature column 0 (xco2)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] == 0:
        raise EmptyDatasetError("cannot fit the baseline on an empty training set")
    if X.shape[0] < 2:
        raise DegenerateFitError("baseline needs at least 2 samples")
    x = X[:, XCO2_COLUMN]
    xm = x.mean()
    ym = y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise DegenerateFitError("xco2 is constant on the training data")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    if not (np.isfinite(slope) and np.isfinite(intercept)):
        raise DegenerateFitError("baseline fit produced non-finite coefficients")
    return LinearModel(slope=slope, intercept=intercept)
