"""Text persistence for trained models.

Layout (one logical section per line group):

    CO2FUSE-MODEL v1 <kind>
    features <14 space-separated names>
    normstats none | normstats-mean ... / normstats-std ...
    <kind-specific payload>

All floats are written with 17 significant digits so save/load round-trips
reproduce predictions bit for bit. Trees are stored as s-expression lists,
MLP weight matrices row-major.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import FeatureOrderError, ModelFormatError
from ..fusion import FEATURE_NAMES, NormStats
from .baseline import LinearModel
from .category import DECODE_MODES, CatModel
from .gbt import GbtModel
from .mlp import MlpModel
from .trees import TreeNode, tree_from_sexpr, tree_to_sexpr

MAGIC = "CO2FUSE-MODEL"
FORMAT_VERSION = "v1"
MODEL_KINDS = ("baseline", "gbt", "catboost", "mlp")

Model = LinearModel | GbtModel | CatModel | MlpModel


def predict_batch(model: Model, X: np.ndarray) -> np.ndarray:
    """Predict ppm for a batch of canonical feature vectors."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != len(FEATURE_NAMES):
        raise FeatureOrderError(
            f"feature matrix has {X.shape[1]} columns, expected {len(FEATURE_NAMES)}"
        )
    return model.predict_batch(X)


def _f(x: float) -> str:
    return f"{float(x):.17g}"


def _floats_line(tag: str, values) -> str:
    return tag + " " + " ".join(_f(v) for v in values)


def save(model: Model, path) -> None:
    lines = [
        f"{MAGIC} {FORMAT_VERSION} {model.kind}",
        "features " + " ".join(FEATURE_NAMES),
    ]
    norm = getattr(model, "norm", None)
    if norm is None:
        lines.append("normstats none")
    else:
        lines.append(_floats_line("normstats-mean", norm.mean))
        lines.append(_floats_line("normstats-std", norm.std))

    if model.kind == "baseline":
        lines.append(f"slope {_f(model.slope)}")
        lines.append(f"intercept {_f(model.intercept)}")
    elif model.kind == "gbt":
        lines.append(f"base_score {_f(model.base_score)}")
        lines.append(f"learning_rate {_f(model.learning_rate)}")
        lines.append(f"n_trees {len(model.trees)}")
        lines.extend(tree_to_sexpr(t) for t in model.trees)
    elif model.kind == "catboost":
        lines.append(f"classes {model.n_classes}")
        lines.append(f"learning_rate {_f(model.learning_rate)}")
        lines.append(f"decode {model.decode}")
        lines.append(_floats_line("edges", model.bin_edges))
        lines.append(_floats_line("centers", model.bin_centers))
        lines.append(f"iterations {len(model.trees)}")
        for round_trees in model.trees:
            lines.extend(tree_to_sexpr(t) for t in round_trees)
    elif model.kind == "mlp":
        lines.append(f"l2_lambda {_f(model.l2_lambda)}")
        sizes = [model.weights[0].shape[0]] + [w.shape[1] for w in model.weights]
        lines.append("layers " + " ".join(str(s) for s in sizes))
        for w, b in zip(model.weights, model.biases):
            lines.append(f"W {w.shape[0]} {w.shape[1]}")
            lines.extend(" ".join(_f(v) for v in row) for row in w)
            lines.append(f"b {b.shape[0]} " + " ".join(_f(v) for v in b))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class _LineReader:
    def __init__(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0
        self.path = path

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise ModelFormatError(f"{self.path}: truncated model file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def tagged(self, tag: str) -> list[str]:
        line = self.next()
        parts = line.split()
        if not parts or parts[0] != tag:
            raise ModelFormatError(f"{self.path}: expected {tag!r} line, got {line!r}")
        return parts[1:]

    def count(self, tag: str) -> int:
        value = int(self.tagged(tag)[0])
        if value < 0:
            raise ModelFormatError(f"{self.path}: negative {tag} {value}")
        return value

    def tree(self) -> TreeNode:
        """Parse the next line as a tree whose splits read canonical features
        and whose thresholds and leaves are finite."""
        root = tree_from_sexpr(self.next())
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                if not math.isfinite(node.value):
                    raise ModelFormatError(f"{self.path}: non-finite leaf value {node.value}")
                continue
            if not 0 <= node.feature < len(FEATURE_NAMES):
                raise ModelFormatError(
                    f"{self.path}: split on feature {node.feature}, "
                    f"outside 0..{len(FEATURE_NAMES) - 1}"
                )
            if not math.isfinite(node.threshold):
                raise ModelFormatError(f"{self.path}: non-finite threshold {node.threshold}")
            stack += [node.left, node.right]
        return root

    def finite(self, values, what: str):
        """``values`` unchanged if every one is finite (nan and inf parse as
        floats, but no trained model holds them)."""
        if not np.all(np.isfinite(values)):
            raise ModelFormatError(f"{self.path}: non-finite {what}")
        return values

    def scalar(self, tag: str) -> float:
        return self.finite(float(self.tagged(tag)[0]), tag)

    def floats(self, tag: str) -> np.ndarray:
        try:
            values = np.array([float(v) for v in self.tagged(tag)], dtype=np.float64)
        except ValueError as exc:
            raise ModelFormatError(f"{self.path}: bad float in {tag!r} line") from exc
        return self.finite(values, tag)


def load(path) -> Model:
    """Load a model file. A features line other than the canonical names in
    order raises FeatureOrderError. Bad magic, version or payload, a negative
    count, a split on a feature outside the canonical list, normstats or MLP
    layers of the wrong width, a nan or infinite float or a line after the
    payload raise ModelFormatError."""
    r = _LineReader(path)
    head = r.next().split()
    if len(head) != 3 or head[0] != MAGIC:
        raise ModelFormatError(f"{path}: not a model file (bad magic line)")
    if head[1] != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported format version {head[1]!r} (expected {FORMAT_VERSION})"
        )
    kind = head[2]
    if kind not in MODEL_KINDS:
        raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
    features = tuple(r.tagged("features"))
    if features != FEATURE_NAMES:
        raise FeatureOrderError(
            f"{path}: model was saved with feature order {features}, "
            f"expected the canonical order {FEATURE_NAMES}"
        )

    norm = None
    marker = r.next()
    if marker.strip() != "normstats none":
        r.pos -= 1
        mean = r.floats("normstats-mean")
        std = r.floats("normstats-std")
        if mean.shape != std.shape:
            raise ModelFormatError(f"{path}: normstats mean/std length mismatch")
        if len(mean) != len(FEATURE_NAMES):
            raise ModelFormatError(
                f"{path}: normstats hold {len(mean)} features, expected {len(FEATURE_NAMES)}")
        norm = NormStats(mean=mean, std=std)

    try:
        if kind == "baseline":
            slope = r.scalar("slope")
            intercept = r.scalar("intercept")
            model: Model = LinearModel(slope=slope, intercept=intercept)
        elif kind == "gbt":
            base = r.scalar("base_score")
            lr = r.scalar("learning_rate")
            n_trees = r.count("n_trees")
            trees = [r.tree() for _ in range(n_trees)]
            model = GbtModel(base_score=base, learning_rate=lr, trees=trees)
        elif kind == "catboost":
            k = r.count("classes")
            lr = r.scalar("learning_rate")
            decode = r.tagged("decode")[0]
            if decode not in DECODE_MODES:
                raise ModelFormatError(f"{path}: unknown decode mode {decode!r}")
            edges = r.floats("edges")
            centers = r.floats("centers")
            if len(edges) != k + 1 or len(centers) != k:
                raise ModelFormatError(f"{path}: bin edge/center counts do not match classes")
            iterations = r.count("iterations")
            trees = [
                [r.tree() for _ in range(k)] for _ in range(iterations)
            ]
            model = CatModel(
                bin_edges=edges, bin_centers=centers, learning_rate=lr,
                decode=decode, trees=trees,
            )
        elif kind == "mlp":
            l2 = r.scalar("l2_lambda")
            sizes = [int(s) for s in r.tagged("layers")]
            if len(sizes) < 2:
                raise ModelFormatError(f"{path}: mlp needs at least two layer sizes")
            if sizes[0] != len(FEATURE_NAMES) or sizes[-1] != 1:
                raise ModelFormatError(f"{path}: mlp layers {sizes} must run from "
                                       f"{len(FEATURE_NAMES)} inputs to 1 output")
            weights = []
            biases = []
            for n_in, n_out in zip(sizes[:-1], sizes[1:]):
                dims = r.tagged("W")
                if [int(dims[0]), int(dims[1])] != [n_in, n_out]:
                    raise ModelFormatError(f"{path}: weight matrix shape mismatch")
                rows = [
                    [float(v) for v in r.next().split()] for _ in range(n_in)
                ]
                w = np.array(rows, dtype=np.float64)
                if w.shape != (n_in, n_out):
                    raise ModelFormatError(f"{path}: weight matrix row length mismatch")
                r.finite(w, "weight")
                bias_parts = r.tagged("b")
                bias_vals = np.array([float(v) for v in bias_parts[1:]], dtype=np.float64)
                if int(bias_parts[0]) != n_out or bias_vals.shape != (n_out,):
                    raise ModelFormatError(f"{path}: bias length mismatch")
                r.finite(bias_vals, "bias")
                weights.append(w)
                biases.append(bias_vals)
            model = MlpModel(weights=weights, biases=biases, l2_lambda=l2, norm=norm)
    except (ValueError, IndexError) as exc:
        raise ModelFormatError(f"{path}: malformed payload ({exc})") from exc
    if r.pos != len(r.lines):
        raise ModelFormatError(f"{path}: unexpected line {r.pos + 1} after the payload")
    return model
