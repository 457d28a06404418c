"""Axis-aligned regression trees fit to gradient/hessian pairs.

The builder does exact greedy splitting over presorted columns (the column
blocks of Chen & Guestrin, *XGBoost*, KDD 2016). ``Presorted`` sorts each
feature once per fit; a node holds, for every feature, its rows in ascending
order of that feature. One pass over that ``(features, node rows)`` block
scores every boundary between distinct values of every feature, and the
best positive-gain split wins (the first best feature, then the first best
boundary within it). The winner's mask partitions each sorted row list
stably, so every node sees the order a stable sort of its own rows would
give, and the gains, thresholds and trees are bit for bit those of sorting
again at each node. A fit allocates its scratch once, four (features, rows)
buffers and a bounded search space, and every node of every tree reuses it.
Leaf values are the Newton step -G / (H + lambda); with unit hessians and
lambda = 0 this is the plain residual mean, so the same builder serves both
the squared-error booster and the softmax classifier.

Prediction routes row-index sets down the tree and reads each split's
feature from a contiguous column: pass a Fortran-ordered (column-major)
matrix, as the boosted models do, to share one copy across a batch's trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ModelFormatError

# gains below this are treated as numerically zero
_GAIN_EPS = 1e-12
# the split search scores at most this many (feature, row) pairs at a time
# (one feature's rows at least), so that its scratch stays small and in cache
_SCAN_PAIRS = 1 << 15


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @staticmethod
    def leaf(value: float) -> "TreeNode":
        return TreeNode(value=float(value))


class Presorted:
    """Every column of one training matrix sorted once, plus scratch space
    that the trees of one fit reuse (so one ``fit_tree`` at a time).

    ``order`` is the (features, rows) block of rows in stable ascending
    order of each feature, and ``values`` holds X at those rows. A node keeps
    the same pair for its own rows as contiguous (features, node rows)
    slices of one pair of buffers; its children slice the other pair.
    """

    def __init__(self, X: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        n, n_features = X.shape
        self.order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
        self.values = np.take_along_axis(np.ascontiguousarray(X.T), self.order, axis=1)
        size = n_features * n
        scan = min(size, max(n, _SCAN_PAIRS))
        # one allocation for all the scratch, so that it goes back to the
        # system whole when the fit ends: a dozen separate arrays of this
        # size left holes in the allocator's heap that raised peak memory
        arena = np.empty(4 * size + 6 * scan + size // 8 + 1)
        ends = np.cumsum([size, size, size, size, 2 * scan, scan, scan, scan, scan])
        b0, b1, v0, v1, sums, self.gl, self.hl, self.gr, self.hr, flags = np.split(arena, ends)
        self.blocks = (b0.view(np.intp), b1.view(np.intp))
        self.block_values = (v0, v1)
        self.sums = sums.view(np.complex128)
        self.flags = flags.view(bool)[:size]
        self.goes_left = np.empty(n, dtype=bool)


def _view(buf: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    return buf[: shape[0] * shape[1]].reshape(shape)


def _scan(ws: Presorted, block, xo, gh, G, H, reg_lambda):
    """Best boundary of each feature of ``block`` and its gain.

    ``block[f]`` lists the node's rows in ascending order of its feature f
    and ``xo[f]`` their values; ``gh`` is indexed by row and G/H are the
    node's sums. ``gh`` packs gradient and hessian as the parts of one
    complex number, so one gather and one cumsum give both running sums:
    complex addition adds the parts separately, bit for bit as two real
    cumsums.
    """
    shape = block.shape
    sums = gh.take(block, out=_view(ws.sums, shape), mode="clip")
    np.cumsum(sums, axis=1, out=sums)
    # at every boundary but the one after the last row:
    # gains = gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - G*G/(H+lambda)
    gl, hl = sums.real[:, :-1], sums.imag[:, :-1]
    cut = (shape[0], shape[1] - 1)
    gr = np.subtract(G, gl, out=_view(ws.gr, cut))
    hr = np.subtract(H, hl, out=_view(ws.hr, cut))
    hr += reg_lambda
    gains = np.multiply(gl, gl, out=_view(ws.gl, cut))
    gains /= np.add(hl, reg_lambda, out=_view(ws.hl, cut))
    gr *= gr
    gr /= hr
    gains += gr
    gains -= G * G / (H + reg_lambda)
    np.putmask(gains, np.equal(xo[:, 1:], xo[:, :-1], out=_view(ws.flags, cut)), -np.inf)
    at = np.argmax(gains, axis=1)
    return at, gains[np.arange(at.size), at]


def _best_split(ws: Presorted, block, xo, gh, G, H, reg_lambda):
    """Best (gain, feature, threshold) at a node; feature -1 if none."""
    n_features, n_rows = block.shape
    at = np.empty(n_features, dtype=np.intp)
    best = np.empty(n_features)
    step = max(1, _SCAN_PAIRS // n_rows)
    for first in range(0, n_features, step):
        part = slice(first, first + step)
        at[part], best[part] = _scan(ws, block[part], xo[part], gh, G, H, reg_lambda)
    best[~(best > 0.0)] = -np.inf  # NaN and non-positive gains never win
    f = int(np.argmax(best))
    if not best[f] > 0.0:
        return 0.0, -1, 0.0
    lo, hi = xo[f, at[f]], xo[f, at[f] + 1]
    thr = 0.5 * (lo + hi)
    if thr <= lo:  # midpoint rounded onto the lower value
        thr = hi
    return float(best[f]), f, float(thr)


def fit_tree(
    X: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    max_depth: int,
    reg_lambda: float = 0.0,
    presorted: Optional[Presorted] = None,
) -> TreeNode:
    """Grow a depth-limited tree on (gradient, hessian) targets.

    ``presorted`` is ``Presorted(X)``; pass it to share one sort across the
    trees of a fit.
    """
    ws = Presorted(X) if presorted is None else presorted
    n_features = ws.order.shape[0]
    gh = np.empty(grad.shape, dtype=np.complex128)
    gh.real, gh.imag = grad, hess

    def is_leaf(idx: np.ndarray, depth: int) -> bool:
        return depth >= max_depth or idx.size < 2

    def partition(block, xo, keep, rows, depth, start):
        """The kept part of a node's block and values, in order, written to
        the buffers of ``depth`` at ``start``."""
        end, shape = start + n_features * rows.size, (n_features, rows.size)
        block = np.compress(keep, block.ravel(), out=ws.blocks[depth % 2][start:end])
        xo = np.compress(keep, xo.ravel(), out=ws.block_values[depth % 2][start:end])
        return block.reshape(shape), xo.reshape(shape)

    def build(idx: np.ndarray, block, xo, depth: int, start: int) -> TreeNode:
        G = grad[idx].sum()
        H = hess[idx].sum()
        leaf_value = -G / (H + reg_lambda)
        if is_leaf(idx, depth):
            return TreeNode.leaf(leaf_value)
        gain, f, thr = _best_split(ws, block, xo, gh, G, H, reg_lambda)
        if f < 0 or gain <= _GAIN_EPS:
            return TreeNode.leaf(leaf_value)
        mask = X[idx, f] < thr
        left, right = idx[mask], idx[~mask]
        right_start = start + n_features * left.size
        # only children that will search for a split need their blocks
        left_part = right_part = (None, None)
        grow_left, grow_right = not is_leaf(left, depth + 1), not is_leaf(right, depth + 1)
        if grow_left or grow_right:
            ws.goes_left[idx] = mask
            keep = ws.goes_left.take(block, out=_view(ws.flags, block.shape), mode="clip").ravel()
            if grow_left:
                left_part = partition(block, xo, keep, left, depth + 1, start)
            if grow_right:
                np.logical_not(keep, out=keep)
                right_part = partition(block, xo, keep, right, depth + 1, right_start)
        return TreeNode(
            feature=f,
            threshold=thr,
            left=build(left, *left_part, depth + 1, start),
            right=build(right, *right_part, depth + 1, right_start),
        )

    root = build(np.arange(ws.order.shape[1]), ws.order, ws.values, 0, 0)
    # the recursive closure refers to itself: drop it so that the arrays it
    # holds go now, not at the next full garbage collection
    del build
    return root


def predict_tree(root: TreeNode, X: np.ndarray) -> np.ndarray:
    """Route row-index sets down the tree; Fortran-ordered X needs no copy."""
    X = np.asfortranarray(X)
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.value
        else:
            mask = X[:, node.feature][idx] < node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
    return out


def leaf_boxes(trees, n_features: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The region of feature space that reaches each leaf of ``trees``.

    Returns ``(lower, upper, capped, value)``, one row per leaf; the first
    three are (leaves, n_features). A row x reaches leaf l exactly when, for
    every feature f, ``not x[f] < lower[l, f]`` (the path's right turns) and,
    where ``capped[l, f]``, ``x[f] < upper[l, f]`` (its left turns): the
    tests ``predict_tree`` makes, merged per feature, so a feature split
    several times on a path takes one cell. A feature the path does not
    split has lower -inf and no cap. ``value`` holds each leaf's value.
    """
    lowers, uppers, caps, values = [], [], [], []
    for root in trees:
        stack = [(root, [-np.inf] * n_features, [np.inf] * n_features, [False] * n_features)]
        while stack:
            node, lo, hi, cap = stack.pop()
            if node.is_leaf:
                lowers.append(lo)
                uppers.append(hi)
                caps.append(cap)
                values.append(node.value)
                continue
            f, thr = node.feature, node.threshold
            right_lo = lo.copy()
            right_lo[f] = max(lo[f], thr)
            left_hi, left_cap = hi.copy(), cap.copy()
            left_hi[f], left_cap[f] = min(hi[f], thr), True
            stack.append((node.right, right_lo, hi, cap))
            stack.append((node.left, lo, left_hi, left_cap))
    shape = (len(values), n_features)
    return (
        np.array(lowers, dtype=np.float64).reshape(shape),
        np.array(uppers, dtype=np.float64).reshape(shape),
        np.array(caps, dtype=bool).reshape(shape),
        np.array(values, dtype=np.float64),
    )


def tree_to_sexpr(root: TreeNode) -> str:
    """Serialize as nested lists: (split f thr left right) / (leaf value)."""
    parts, stack = [], [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item.is_leaf:
            parts.append(f"(leaf {item.value:.17g})")
        else:
            parts.append(f"(split {item.feature} {item.threshold:.17g} ")
            stack += [")", item.right, " ", item.left]
    return "".join(parts)


def tree_from_sexpr(text: str, n_features: int) -> TreeNode:
    """Parse ``tree_to_sexpr`` output with an explicit stack, so any nesting
    depth parses. Malformed text, a split on a feature outside
    0..n_features-1 and a non-finite threshold or leaf raise
    ModelFormatError as their token is read."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def fail(msg):
        raise ModelFormatError(f"bad tree expression: {msg}")

    def expect(tok):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != tok:
            fail(f"expected {tok!r} at token {pos}")
        pos += 1

    def take():
        nonlocal pos
        if pos >= len(tokens):
            fail("unexpected end of input")
        pos += 1
        return tokens[pos - 1]

    def finite(what):
        value = float(take())
        if not math.isfinite(value):
            fail(f"non-finite {what} {value}")
        return value

    # splits still missing a child, innermost last: (feature, threshold, [left])
    open_splits: list[tuple[int, float, list[TreeNode]]] = []
    try:
        while True:
            expect("(")
            head = take()
            if head == "split":
                feature = int(take())
                if not 0 <= feature < n_features:
                    fail(f"split on feature {feature}, outside 0..{n_features - 1}")
                open_splits.append((feature, finite("threshold"), []))
                continue
            if head != "leaf":
                fail(f"unknown node kind {head!r}")
            node = TreeNode.leaf(finite("leaf value"))
            expect(")")
            # a finished right child finishes its parent, and so on upwards
            while open_splits and open_splits[-1][2]:
                feature, threshold, (left,) = open_splits.pop()
                expect(")")
                node = TreeNode(feature=feature, threshold=threshold, left=left, right=node)
            if not open_splits:
                break
            open_splits[-1][2].append(node)
    except ValueError as exc:
        fail(str(exc))
    if pos != len(tokens):
        fail("trailing tokens")
    return node
