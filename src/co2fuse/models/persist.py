"""Text persistence for trained models.

Layout (one logical section per line group):

    CO2FUSE-MODEL v1 <kind>
    features <14 space-separated names>
    normstats none | normstats-mean ... / normstats-std ...   (stats: mlp only)
    <kind-specific payload>

All floats are written with 17 significant digits so save/load round-trips
reproduce predictions bit for bit. Trees are stored as s-expression lists,
MLP weight matrices row-major.

``load`` checks each value once, as it parses it, and names the file and
line of any error as ``path:line:``.
"""

from __future__ import annotations

import numpy as np

from ..errors import FeatureOrderError, ModelFormatError
from ..fusion import FEATURE_NAMES
from .baseline import LinearModel
from .category import DECODE_MODES, CatModel
from .gbt import GbtModel
from .mlp import MlpModel, NormStats
from .trees import tree_from_sexpr, tree_to_sexpr

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
    """A model file's lines, read in order; ``pos`` counts the lines read.
    Each line is decoded as UTF-8 when it is read."""

    def __init__(self, path):
        with open(path, "rb") as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0

    def next(self) -> str:
        self.pos += 1
        if self.pos > len(self.lines):
            raise ModelFormatError("truncated model file")
        return self.lines[self.pos - 1].decode("utf-8")

    def tagged(self, tag: str) -> list[str]:
        """The words after ``tag``, which must lead the next line."""
        line = self.next()
        parts, words = line.split(), tag.split()
        if parts[:len(words)] != words:
            raise ModelFormatError(f"expected {tag!r} line, got {line!r}")
        return parts[len(words):]

    def word(self, tag: str) -> str:
        """The one word after ``tag`` on the next line."""
        words = self.tagged(tag)
        if len(words) != 1:
            raise ModelFormatError(f"{tag!r} line holds {len(words)} words, expected 1")
        return words[0]

    def count(self, tag: str) -> int:
        value = int(self.word(tag))
        if value < 0:
            raise ModelFormatError(f"negative {tag} {value}")
        return value

    def floats(self, tag: str, n: int, what: str = "{tag!r} line holds {} values") -> np.ndarray:
        """The numbers after ``tag`` on the next line: exactly ``n``, each
        finite (nan and inf parse as floats, but no trained model holds
        them). ``what`` words the count error."""
        values = np.array([float(v) for v in self.tagged(tag)], dtype=np.float64)
        if values.size != n:
            raise ModelFormatError(what.format(values.size, tag=tag) + f", expected {n}")
        if not np.isfinite(values).all():
            raise ModelFormatError(f"non-finite number {values[~np.isfinite(values)][0]}")
        return values

    def scalar(self, tag: str) -> float:
        return float(self.floats(tag, 1)[0])


def load(path) -> Model:
    """Load a model file. A features line other than the canonical names in
    order raises FeatureOrderError. Bad magic, version or payload, bytes that
    are not UTF-8, a negative count, a catboost classes count below 2, a
    count or decode line not of one word, a split on a feature outside the
    canonical list, a number line of the wrong length, a nan or infinite
    number, normstats outside an mlp or with a std <= 0, or a line after the
    payload raise ModelFormatError. Either error starts with ``path:line:``."""
    r = _LineReader(path)
    try:
        return _read(r)
    except (FeatureOrderError, ModelFormatError, ValueError) as exc:
        error = FeatureOrderError if isinstance(exc, FeatureOrderError) else ModelFormatError
        raise error(f"{path}:{r.pos}: {exc}") from exc


def _read(r: _LineReader) -> Model:
    n_features = len(FEATURE_NAMES)
    head = r.next().split()
    if len(head) != 3 or head[0] != MAGIC:
        raise ModelFormatError("not a model file (bad magic line)")
    if head[1] != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format version {head[1]!r} (expected {FORMAT_VERSION})")
    kind = head[2]
    if kind not in MODEL_KINDS:
        raise ModelFormatError(f"unknown model kind {kind!r}")
    features = tuple(r.tagged("features"))
    if features != FEATURE_NAMES:
        raise FeatureOrderError(f"model was saved with feature order {features}, "
                                f"expected the canonical order {FEATURE_NAMES}")

    norm = None
    if r.next().strip() != "normstats none":
        if kind != "mlp":
            raise ModelFormatError(f"expected 'normstats none' in a {kind} model")
        r.pos -= 1
        width = "normstats hold {} features"
        mean = r.floats("normstats-mean", n_features, width)
        std = r.floats("normstats-std", n_features, width)
        if not (std > 0).all():
            raise ModelFormatError(f"normstats-std {std[~(std > 0)][0]} is not positive")
        norm = NormStats(mean=mean, std=std)

    tree = lambda: tree_from_sexpr(r.next(), n_features)
    if kind == "baseline":
        model: Model = LinearModel(slope=r.scalar("slope"), intercept=r.scalar("intercept"))
    elif kind == "gbt":
        base = r.scalar("base_score")
        lr = r.scalar("learning_rate")
        trees = [tree() for _ in range(r.count("n_trees"))]
        model = GbtModel(base_score=base, learning_rate=lr, trees=trees)
    elif kind == "catboost":
        k = r.count("classes")
        if k < 2:
            raise ModelFormatError(f"classes {k} is below 2, the fewest a catboost model bins")
        lr = r.scalar("learning_rate")
        decode = r.word("decode")
        if decode not in DECODE_MODES:
            raise ModelFormatError(f"unknown decode mode {decode!r}")
        edges = r.floats("edges", k + 1)
        centers = r.floats("centers", k)
        trees = [[tree() for _ in range(k)] for _ in range(r.count("iterations"))]
        model = CatModel(bin_edges=edges, bin_centers=centers, learning_rate=lr,
                         decode=decode, trees=trees)
    else:
        l2 = r.scalar("l2_lambda")
        sizes = [int(s) for s in r.tagged("layers")]
        if len(sizes) < 2 or sizes[0] != n_features or sizes[-1] != 1 or min(sizes) < 1:
            raise ModelFormatError(f"mlp layers {sizes} must run from {n_features} "
                                   f"inputs to 1 output, none of them empty")
        weights, biases = [], []
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            r.floats(f"W {n_in} {n_out}", 0)  # the block's tag line holds no numbers
            rows = [r.floats("", n_out, "weight row holds {} values") for _ in range(n_in)]
            weights.append(np.array(rows, dtype=np.float64))
            biases.append(r.floats(f"b {n_out}", n_out))
        model = MlpModel(weights=weights, biases=biases, l2_lambda=l2, norm=norm)
    if r.pos < len(r.lines):
        r.pos += 1
        raise ModelFormatError("unexpected line after the payload")
    return model
