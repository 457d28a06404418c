"""Multilayer perceptron for regression, trained with plain backprop.

Architecture: densely connected ReLU hidden layers (default 64/128/64/32)
and a single linear output node. The training loss is

    L_reg = MSE(batch) + l2_lambda * sum(W**2)

with biases excluded from the penalty. The model z-scores its inputs by the
NormStats of its training rows. Optimization is mini-batch gradient descent
with classical momentum; everything is seeded and deterministic. The
gradients are exposed separately so they can be checked against finite
differences. Prediction and the per-epoch loss run forward over blocks of
_BLOCK_ROWS rows, with the same bits as one pass over all rows (see the note
at the constant); training keeps only the activations of its mini-batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence

import numpy as np

from ..errors import DegenerateFeatureError, EmptyDatasetError, NoDataError, TrainingDivergedError
from ..fusion import FEATURE_NAMES, N_FEATURES

DEFAULT_HIDDEN_SIZES = (64, 128, 64, 32)

# rows per block of predict_batch: no activation outgrows about 1,024 x 128
# float64 (1 MiB), where a 2^14-row Shapley batch in one piece takes 16 MiB.
# The blocks keep the bits of one pass over all rows:
# - The block is a power of two, so that each starts on a BLAS tile boundary.
#   The matrix kernel tiles rows in units of its unroll and sums a row of an
#   edge tile in another order: 777-row blocks moved the last row of a block
#   by 1 ulp. 1,024-row blocks matched one pass on one BLAS thread at every
#   row count tried up to 41,000, run on 1 or 2 threads. (One pass on 2
#   threads itself moves by an ulp at some counts above about 15,000 rows,
#   where the threads split its rows off the tile grid.)
# - A one-row tail joins the block before it: numpy multiplies a lone row
#   as a vector, which sums in another order again.
# A constant, not a setting.
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class MlpConfig:
    # l2_lambda 5e-3 rather than a token value: at the dataset sizes this
    # pipeline produces, weaker penalties let the net memorize observation
    # noise and lose the station-holdout generalization it exists for
    hidden_sizes: tuple[int, ...] = DEFAULT_HIDDEN_SIZES
    learning_rate: float = 0.001
    l2_lambda: float = 5e-3
    epochs: int = 200
    batch_size: int = 32
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be positive")
        if not self.learning_rate > 0 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("learning_rate, epochs and batch_size must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not self.l2_lambda >= 0.0:
            raise ValueError("l2_lambda must be >= 0")


def param_count(input_dim: int, hidden_sizes: Sequence[int], output_dim: int = 1) -> int:
    """Trainable parameters: sum over layers of n_in * n_out + n_out."""
    sizes = [input_dim, *hidden_sizes, output_dim]
    return sum(sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(len(sizes) - 1))


@dataclass(frozen=True)
class NormStats:
    """Per-feature mean and population standard deviation (training data only)."""

    mean: np.ndarray
    std: np.ndarray


def fit_norm_stats(X: np.ndarray) -> NormStats:
    """Per-feature mean and population (1/n) standard deviation.

    A constant feature cannot be standardized; that raises
    DegenerateFeatureError naming the feature.
    """
    if X.ndim != 2 or X.shape[0] == 0:
        raise NoDataError("cannot fit normalization statistics on an empty set")
    mean = X.mean(axis=0)
    std = X.std(axis=0)  # population convention
    for i, s in enumerate(std):
        if s <= 0.0 or not math.isfinite(s):
            name = FEATURE_NAMES[i] if X.shape[1] == N_FEATURES else f"feature {i}"
            raise DegenerateFeatureError(f"feature {name!r} is constant on the training data")
    return NormStats(mean=mean, std=std)


def standardize(v: np.ndarray, stats: NormStats) -> np.ndarray:
    """Z-score one vector or a whole (n, d) matrix."""
    return (np.asarray(v, dtype=np.float64) - stats.mean) / stats.std


@dataclass
class MlpModel:
    kind: ClassVar[str] = "mlp"
    weights: list[np.ndarray]  # (n_in, n_out) per layer
    biases: list[np.ndarray]
    l2_lambda: float
    norm: Optional[NormStats] = None  # applied before the forward pass when set
    loss_trace: list[float] = field(default_factory=list)  # per-epoch, not persisted

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def forward(self, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Network output plus the post-activation of every layer (input first).
        The in-place bias and ReLU round as h @ w + b and np.maximum(z, 0) do."""
        activations = [X]
        h = X
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w
            h += b
            if i != last:
                np.maximum(h, 0.0, out=h)
            activations.append(h)
        return h[:, 0], activations

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """forward over _BLOCK_ROWS rows at a time, standardizing each block
        first when the model has stats."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        n = X.shape[0]
        out = np.empty(n)
        start = 0
        while start < n:
            stop = start + _BLOCK_ROWS
            if stop + 1 >= n:  # the last block, with a one-row tail joined to it
                stop = n
            block = X[start:stop]
            if self.norm is not None:
                block = standardize(block, self.norm)
            out[start:stop] = self.forward(block)[0]
            start = stop
        return out


def init_mlp(
    input_dim: int,
    cfg: MlpConfig,
    rng: np.random.Generator,
    output_bias: float = 0.0,
) -> MlpModel:
    """Scaled-normal init with per-layer variance 2 / fan-in (ReLU-appropriate)."""
    sizes = [input_dim, *cfg.hidden_sizes, 1]
    weights = []
    biases = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    biases[-1][0] = output_bias
    return MlpModel(weights=weights, biases=biases, l2_lambda=cfg.l2_lambda)


def loss_and_gradients(
    model: MlpModel, X: np.ndarray, y: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Regularized loss and its exact gradients on one batch.

    Returns (loss, weight_grads, bias_grads) with gradients shaped like the
    parameters. X must already be standardized if the model carries stats.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] == 0:
        raise EmptyDatasetError("gradient computation needs a non-empty batch")
    n = X.shape[0]
    pred, acts = model.forward(X)
    err = pred - y
    data_loss = float(np.mean(err**2))
    reg_loss = model.l2_lambda * sum(float(np.vdot(w, w)) for w in model.weights)
    loss = data_loss + reg_loss

    weight_grads, bias_grads = [], []
    # dL/d(output), column vector
    delta = (2.0 / n) * err[:, None]
    for i in reversed(range(len(model.weights))):
        weight_grads.insert(0, acts[i].T @ delta + 2.0 * model.l2_lambda * model.weights[i])
        bias_grads.insert(0, delta.sum(axis=0))
        if i > 0:
            delta = delta @ model.weights[i].T
            delta *= acts[i] > 0.0  # ReLU gate of the upstream layer
    return loss, weight_grads, bias_grads


def full_loss(model: MlpModel, X: np.ndarray, y: np.ndarray) -> float:
    """Regularized loss over all rows, from predict_batch, which standardizes
    X when the model has stats."""
    reg = model.l2_lambda * sum(float(np.sum(w**2)) for w in model.weights)
    return float(np.mean((model.predict_batch(X) - y) ** 2)) + reg


def train_mlp(X: np.ndarray, y: np.ndarray, cfg: MlpConfig = MlpConfig()) -> MlpModel:
    """Train on raw features: the model keeps their stats, and training reads
    them z-scored. Raises DegenerateFeatureError for a constant feature (any
    one-row set) and TrainingDivergedError at a non-finite loss."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] == 0:
        raise EmptyDatasetError("cannot train the MLP on an empty set")
    rng = np.random.default_rng(cfg.seed)
    model = init_mlp(X.shape[1], cfg, rng, output_bias=float(y.mean()))
    norm = fit_norm_stats(X)
    Z = standardize(X, norm)
    params = model.weights + model.biases
    velocity = [np.zeros_like(p) for p in params]
    n = X.shape[0]
    # a diverging fit overflows before its loss turns non-finite; the typed
    # error below reports it, not numpy's floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                _, gw, gb = loss_and_gradients(model, Z[batch], y[batch])
                # rounds as v = momentum * v - lr * g does
                for p, v, g in zip(params, velocity, gw + gb):
                    v *= cfg.momentum
                    v -= cfg.learning_rate * g
                    p += v
            # the stats go on after the last epoch: z-scoring X per block in
            # every epoch's loss raised the apply benchmark's peak RSS 3-5 MiB
            epoch_loss = full_loss(model, Z, y)
            if not np.isfinite(epoch_loss):
                raise TrainingDivergedError(f"training loss became non-finite at epoch {epoch}")
            model.loss_trace.append(epoch_loss)
    model.norm = norm
    return model
