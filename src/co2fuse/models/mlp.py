"""Multilayer perceptron for regression, trained with plain backprop.

Architecture: densely connected ReLU hidden layers (default 64/128/64/32)
and a single linear output node. The training loss is

    L_reg = MSE(batch) + l2_lambda * sum(W**2)

with biases excluded from the penalty. Optimization is mini-batch gradient
descent with classical momentum; everything is seeded and deterministic.
The gradients are exposed separately so they can be checked against finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..errors import EmptyDatasetError, TrainingDivergedError
from ..fusion import NormStats, standardize

DEFAULT_HIDDEN_SIZES = (64, 128, 64, 32)


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


@dataclass
class MlpModel:
    weights: list[np.ndarray]  # (n_in, n_out) per layer
    biases: list[np.ndarray]
    l2_lambda: float
    norm: Optional[NormStats] = None  # applied before the forward pass when set
    loss_trace: list[float] = field(default_factory=list)  # per-epoch, not persisted

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def forward(self, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Network output plus the post-activation of every layer (input first)."""
        activations = [X]
        h = X
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            h = z if i == last else np.maximum(z, 0.0)
            activations.append(h)
        return h[:, 0], activations

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.norm is not None:
            X = standardize(X, self.norm)
        # the arithmetic of forward, with the bias and ReLU applied in place
        # and no activations kept
        h = X
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w
            h += b
            if i != last:
                np.maximum(h, 0.0, out=h)
        return h[:, 0]


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
    reg_loss = model.l2_lambda * sum(float(np.sum(w**2)) for w in model.weights)
    loss = data_loss + reg_loss

    weight_grads = [np.empty_like(w) for w in model.weights]
    bias_grads = [np.empty_like(b) for b in model.biases]
    # dL/d(output), column vector
    delta = (2.0 / n) * err[:, None]
    for i in reversed(range(len(model.weights))):
        a_in = acts[i]
        weight_grads[i] = a_in.T @ delta + 2.0 * model.l2_lambda * model.weights[i]
        bias_grads[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ model.weights[i].T
            delta = delta * (acts[i] > 0.0)  # ReLU gate of the upstream layer
    return loss, weight_grads, bias_grads


def full_loss(model: MlpModel, X: np.ndarray, y: np.ndarray) -> float:
    pred, _ = model.forward(X)
    reg = model.l2_lambda * sum(float(np.sum(w**2)) for w in model.weights)
    return float(np.mean((pred - y) ** 2)) + reg


def train_mlp(
    X: np.ndarray,
    y: np.ndarray,
    cfg: MlpConfig = MlpConfig(),
    norm: Optional[NormStats] = None,
) -> MlpModel:
    """Train on standardized features; the passed stats are embedded for
    prediction-time standardization. Raises TrainingDivergedError (naming the
    epoch) if the loss goes non-finite."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] == 0:
        raise EmptyDatasetError("cannot train the MLP on an empty set")
    rng = np.random.default_rng(cfg.seed)
    model = init_mlp(X.shape[1], cfg, rng, output_bias=float(y.mean()))
    model.norm = norm
    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    n = X.shape[0]
    # a diverging fit overflows before its loss turns non-finite; the typed
    # error below reports it, not numpy's floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                _, gw, gb = loss_and_gradients(model, X[batch], y[batch])
                for i in range(len(model.weights)):
                    vel_w[i] = cfg.momentum * vel_w[i] - cfg.learning_rate * gw[i]
                    vel_b[i] = cfg.momentum * vel_b[i] - cfg.learning_rate * gb[i]
                    model.weights[i] += vel_w[i]
                    model.biases[i] += vel_b[i]
            epoch_loss = full_loss(model, X, y)
            if not np.isfinite(epoch_loss):
                raise TrainingDivergedError(f"training loss became non-finite at epoch {epoch}")
            model.loss_trace.append(epoch_loss)
    return model
