"""Feature attribution: exact Shapley values and permutation importance.

Absent features are imputed with the background mean (single-reference
value function): v(S) = f(x with features outside S set to the background
column means). Local accuracy then reads

    sum_i phi_i = f(x) - f(mu)

and holds per explained row. The values are exact, never sampled, by one of
two routes that give the same numbers up to rounding:

- gbt: a sum over the leaves of every tree (Baseline Shapley, Sundararajan
  & Najmi, ICML 2020; the interventional TreeSHAP of Lundberg et al.,
  Nature MI 2020, with one background point). A leaf is reached under
  coalition S exactly when S holds every feature whose path nodes x follows
  and mu does not (Sx), and no feature whose nodes mu follows and x does
  not (Sz); it is never reached if some feature's nodes follow neither.
  With a = |Sx| and b = |Sz| its value v adds v (a-1)! b! / (a+b)! to each
  phi_i of Sx and subtracts v a! (b-1)! / (a+b)! from each of Sz.
- every other model: the full enumeration of the 2^14 coalitions per row
  (`exact_shapley_row`), which is also the oracle of the leaf sum.
  catboost stays here because its decode is not additive over trees. The
  2^14 imputed rows go to the model as one batch (the MLP predicts it in
  1,024-row blocks), and each feature's pairs of coalitions without and
  with it are two strided views of the values, weighted by a vector built
  once per feature count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

from .errors import FeatureOrderError
from .fusion import FEATURE_NAMES
from .models.trees import leaf_boxes

DEFAULT_SHAPLEY_ROWS = 256
DEFAULT_REPEATS = 5


@dataclass(frozen=True)
class AttributionEntry:
    feature: str
    value: float
    rank: int


@dataclass(frozen=True)
class AttributionReport:
    """Per-feature attribution, ranked descending.

    For the shapley method `value` is the mean absolute Shapley value over
    the explained rows and `baseline` is the prediction at the background
    mean. For the permutation method `value` is the mean RMSE increase when
    that feature's column is shuffled and `baseline` is the unshuffled RMSE.
    """

    method: str
    baseline: float
    entries: tuple[AttributionEntry, ...]


REPORT_CSV_HEADER = "feature,mean_abs_attribution_ppm,rank,method"


def _ranked(method: str, baseline: float, names, values) -> AttributionReport:
    order = sorted(range(len(names)), key=lambda i: (-values[i], i))
    entries = tuple(
        AttributionEntry(feature=names[i], value=float(values[i]), rank=r + 1)
        for r, i in enumerate(order)
    )
    return AttributionReport(method=method, baseline=float(baseline), entries=entries)


def _coalition_tables(d: int):
    """Static enumeration tables for exact Shapley over d features: the
    (2^d, d) membership of each coalition mask, and per feature i the weight
    of each of its 2^(d-1) marginal contributions v(S + i) - v(S), for the
    masks S without bit i in increasing order."""
    n_masks = 1 << d
    masks = np.arange(n_masks, dtype=np.int64)
    member = np.zeros((n_masks, d), dtype=bool)
    for i in range(d):
        member[:, i] = (masks >> i) & 1 == 1
    sizes = member.sum(axis=1)
    fact = [math.factorial(i) for i in range(d + 1)]
    # weight of the marginal contribution v(S + i) - v(S) for |S| = s
    w_by_size = np.array(
        [fact[s] * fact[d - 1 - s] / fact[d] for s in range(d)], dtype=np.float64
    )
    weights = [w_by_size[sizes[~member[:, i]]] for i in range(d)]
    return member, weights


def exact_shapley_row(
    predict_fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    mu: np.ndarray,
    tables=None,
) -> np.ndarray:
    """Exact Shapley values of one row under mean imputation.

    The masks with bit i set and without it alternate in runs of 2^i, so
    feature i's coalition pairs are two strided views of v, read in the
    order of the weights of ``_coalition_tables``."""
    d = x.shape[0]
    member, weights = tables if tables is not None else _coalition_tables(d)
    imputed = np.where(member, x[None, :], mu[None, :])
    v = np.asarray(predict_fn(imputed), dtype=np.float64)
    phi = np.empty(d, dtype=np.float64)
    for i in range(d):
        pairs = v.reshape(-1, 2, 1 << i)
        gain = (pairs[:, 1, :] - pairs[:, 0, :]).ravel()
        gain *= weights[i]
        phi[i] = float(np.sum(gain))
    return phi


def _leaf_path_shapley(gbt, X: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Exact Shapley values of every row of X for a GbtModel under mean
    imputation, from its trees' leaf paths (see the module docstring).

    ``base_score`` cancels in f(x) - f(mu), and each leaf value carries the
    learning rate. z follows a leaf's path nodes on feature f when it lies
    in the leaf's box on f (``leaf_boxes``), by the tests ``predict_tree``
    makes.
    """
    d = mu.shape[0]
    lower, upper, capped, value = leaf_boxes(gbt.trees, d)
    value = gbt.learning_rate * value

    def misses(z):
        """(leaves, d): z fails some node of the feature on the leaf's path."""
        return (z < lower) | (capped & ~(z < upper))

    fact = [math.factorial(i) for i in range(d + 1)]
    # weight[a, b] = (a-1)! b! / (a+b)!, the share of each of a features
    # that S must hold when b others must stay out; 0 when a = 0
    weight = np.zeros((d + 1, d + 1))
    for a in range(1, d + 1):
        for b in range(d + 1 - a):
            weight[a, b] = fact[a - 1] * fact[b] / fact[a + b]
    mu_misses = misses(mu)
    phi = np.empty(X.shape, dtype=np.float64)
    for r, x in enumerate(X):
        x_misses = misses(x)
        sx = mu_misses & ~x_misses
        sz = x_misses & ~mu_misses
        live = np.where((x_misses & mu_misses).any(axis=1), 0.0, value)
        a, b = sx.sum(axis=1), sz.sum(axis=1)
        phi[r] = (live * weight[a, b]) @ sx - (live * weight[b, a]) @ sz
    return phi


def shapley_attribution(
    model,
    X_rows: np.ndarray,
    X_bg: np.ndarray,
    seed: int = 0,
    max_rows: int = DEFAULT_SHAPLEY_ROWS,
) -> AttributionReport:
    """Mean absolute exact Shapley value per feature over the explained rows.

    `model` is a trained model and `X_rows` the (n, d) feature rows to
    explain; rows beyond max_rows are subsampled with the given seed. The
    column means of the background rows `X_bg` are the imputation values.
    """
    from .models import predict_batch

    if max_rows < 1:
        raise ValueError("max_rows must be >= 1")
    if X_bg.shape[0] == 0:
        raise ValueError("background must be non-empty")
    if X_rows.shape[0] == 0:
        raise ValueError("need at least one row to explain")
    if X_rows.shape[1] != len(FEATURE_NAMES):
        raise FeatureOrderError(
            f"explained rows have {X_rows.shape[1]} columns, expected {len(FEATURE_NAMES)}")
    mu = X_bg.mean(axis=0)
    if X_rows.shape[0] > max_rows:
        rng = np.random.default_rng(seed)
        pick = np.sort(rng.choice(X_rows.shape[0], size=max_rows, replace=False))
        X_rows = X_rows[pick]

    d = X_rows.shape[1]
    fn = lambda X: predict_batch(model, X)
    # also checks the width of the background on every route
    baseline = float(fn(mu[None, :])[0])
    if model.kind == "gbt":
        phis = _leaf_path_shapley(model, X_rows, mu)
    else:
        tables = _coalition_tables(d)
        phis = (exact_shapley_row(fn, x, mu, tables) for x in X_rows)
    abs_sum = np.zeros(d, dtype=np.float64)
    for phi in phis:
        abs_sum += np.abs(phi)
    mean_abs = abs_sum / X_rows.shape[0]
    return _ranked("shapley", baseline, FEATURE_NAMES, mean_abs)


def permutation_importance(
    model,
    dataset: tuple[np.ndarray, np.ndarray],
    repeats: int = DEFAULT_REPEATS,
    seed: int = 0,
) -> AttributionReport:
    """Mean RMSE increase per feature over `repeats` column shuffles of the
    feature matrix X of `dataset` = (X, y)."""
    from .models import predict_batch

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    X, y = dataset
    if X.shape[0] == 0:
        raise ValueError("dataset must be non-empty")
    rng = np.random.default_rng(seed)

    def rmse(pred):
        return float(np.sqrt(np.mean((pred - y) ** 2)))

    base = rmse(predict_batch(model, X))
    d = X.shape[1]
    deltas = np.zeros(d, dtype=np.float64)
    for i in range(d):
        acc = 0.0
        for _ in range(repeats):
            perm = rng.permutation(X.shape[0])
            Xp = X.copy()
            Xp[:, i] = X[perm, i]
            acc += rmse(predict_batch(model, Xp)) - base
        deltas[i] = acc / repeats
    return _ranked("permutation", base, FEATURE_NAMES, deltas)


def write_report_csv(report: AttributionReport, stream: TextIO) -> None:
    print(REPORT_CSV_HEADER, file=stream)
    for e in report.entries:
        print(f"{e.feature},{e.value!r},{e.rank},{report.method}", file=stream)


def bar_summary(report: AttributionReport, width: int = 40) -> str:
    """ASCII bars, most important feature first."""
    top = max((abs(e.value) for e in report.entries), default=0.0)
    lines = []
    for e in report.entries:
        n = int(round(width * abs(e.value) / top)) if top > 0 else 0
        lines.append(f"{e.feature:<18} {'#' * n} {e.value:.4g}")
    return "\n".join(lines)
