"""Two-class decision tree in the C4.5 family.

Splits are binary: numeric attributes test ``x <= threshold`` (midpoints
between consecutive distinct values), nominal attributes test
``x == value`` against the rest.  Within an attribute the candidate is
chosen by information gain; attributes then compete on gain ratio (the
C4.5 convention) unless ``use_gain_ratio`` is off.  Ties break to the
lowest attribute index, then the lowest threshold / value index.  Leaves
report the weighted class frequency with no smoothing.

When a node is impure but no candidate split has positive gain (XOR-like
data), the lowest-indexed feasible split is taken anyway; recursion still
terminates because both sides must receive at least the per-leaf minimum.

Numeric split search follows the attribute lists of SLIQ (Mehta, Agrawal
and Rissanen, 1996): each numeric column is argsorted once per fit, and a
split stable-partitions the node's slice of every sorted list, so each
node sees its rows in the order its own stable sort would give.  A node
scores all numeric attributes in one pass: cumulative weight sums along
the sorted lists, entropy terms only at value boundaries that leave the
per-leaf minimum on both sides, and a per-attribute maximum.  Nominal
attributes count weights per value with ``bincount``.

Pruning is pessimistic-error pruning: a subtree collapses to a leaf when
the leaf's upper-confidence error estimate does not exceed the subtree's.
No subtree raising, no missing-value handling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .._special import ndtri
from ..data import Dataset
from .base import BinaryModel, binary_class_info

_EPS = 1e-12


@dataclass(frozen=True)
class TreeParams:
    min_instances_per_leaf: int = 2
    pruning_confidence: float = 0.25
    use_gain_ratio: bool = True
    prune: bool = True

    def __post_init__(self):
        if self.min_instances_per_leaf < 1:
            raise ValueError("min_instances_per_leaf must be >= 1")
        if not 0.0 < self.pruning_confidence <= 0.5:
            raise ValueError("pruning_confidence must be in (0, 0.5]")


class _Node:
    __slots__ = ("attr", "threshold", "nominal", "left", "right", "w_first", "w_second")

    def __init__(self, attr, threshold, nominal, left, right, w_first, w_second):
        self.attr = attr
        self.threshold = threshold
        self.nominal = nominal
        self.left = left
        self.right = right
        self.w_first = w_first
        self.w_second = w_second


class _Leaf:
    __slots__ = ("w_first", "w_second")

    def __init__(self, w_first, w_second):
        self.w_first = w_first
        self.w_second = w_second

    @property
    def p_first(self) -> float:
        total = self.w_first + self.w_second
        return self.w_first / total if total > 0 else 0.5


def _xlog2x(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    return a * np.log2(a, out=np.zeros_like(a), where=a > 0)


def _ent(w_first, w_second):
    """Unnormalized entropy (weight * bits) of a two-class count pair."""
    return _xlog2x(w_first + w_second) - _xlog2x(w_first) - _xlog2x(w_second)


@lru_cache(maxsize=32)
def _upper_z(cf: float) -> float:
    """Normal deviate of the one-sided ``cf`` bound."""
    return ndtri(1.0 - cf)


def add_errs(n: float, e: float, cf: float) -> float:
    """Extra errors granted by the pessimistic upper confidence bound,
    following the C4.5 convention (normal approximation with continuity
    correction, linear interpolation below one error)."""
    if n <= 0:
        return 0.0
    if e < 1:
        base = n * (1.0 - cf ** (1.0 / n))
        if e == 0:
            return base
        return base + e * (add_errs(n, 1.0, cf) - base)
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    z = _upper_z(cf)
    f = (e + 0.5) / n
    r = (f + z * z / (2.0 * n) + z * np.sqrt(f / n - f * f / n + z * z / (4 * n * n))) / (
        1.0 + z * z / n
    )
    return r * n - e


class TreeModel(BinaryModel):
    kind = "tree"

    def __init__(self, root, attributes, class_attribute, class_pair):
        self.root = root
        self.attributes = attributes
        self.class_attribute = class_attribute
        self.class_pair = tuple(class_pair)
        self.n_attributes = len(attributes)

    def predict_prob_batch(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        self._check_width(rows)
        out = np.empty(rows.shape[0])
        stack = [(self.root, np.arange(rows.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if isinstance(node, _Leaf):
                out[idx] = node.p_first
                continue
            col = rows[idx, node.attr]
            go_left = col == node.threshold if node.nominal else col <= node.threshold
            stack.append((node.left, idx[go_left]))
            stack.append((node.right, idx[~go_left]))
        return out

    # -- inspection ---------------------------------------------------

    def n_nodes(self) -> int:
        def count(node):
            if isinstance(node, _Leaf):
                return 1
            return 1 + count(node.left) + count(node.right)

        return count(self.root)

    def depth(self) -> int:
        def d(node):
            if isinstance(node, _Leaf):
                return 0
            return 1 + max(d(node.left), d(node.right))

        return d(self.root)

    def to_lines(self) -> list[str]:
        lines = [
            "tree",
            f"classes {self.class_pair[0]} {self.class_pair[1]}",
        ]

        def walk(node, depth):
            pad = "  " * depth
            if isinstance(node, _Leaf):
                lines.append(f"{pad}leaf {node.w_first!r} {node.w_second!r}")
                return
            name = self.attributes[node.attr].name
            if node.nominal:
                val = self.attributes[node.attr].values[int(node.threshold)]
                lines.append(f"{pad}split {name} == {val}")
            else:
                lines.append(f"{pad}split {name} <= {node.threshold!r}")
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

        walk(self.root, 0)
        return lines


def _best_nominal(col, target, weights, n_values, min_leaf):
    """Best ``value vs rest`` test for one nominal column."""
    cats = col.astype(np.intp)
    w_all = np.bincount(cats, weights=weights, minlength=n_values)
    w_one = np.bincount(cats, weights=weights * target, minlength=n_values)
    total_w = w_all.sum()
    total_1 = w_one.sum()
    ok = (w_all >= min_leaf) & (total_w - w_all >= min_leaf)
    if not ok.any():
        return None
    idx = np.flatnonzero(ok)
    lw, lw1 = w_all[idx], w_one[idx]
    parent = _ent(total_1, total_w - total_1)
    children = _ent(lw1, lw - lw1) + _ent(total_1 - lw1, (total_w - lw) - (total_1 - lw1))
    gains = parent - children
    split_info = _xlog2x(total_w) - _xlog2x(lw) - _xlog2x(total_w - lw)
    best = _argbest(gains, split_info)
    return float(gains[best]), float(split_info[best]), float(idx[best])


def _argbest(gains, split_info):
    """Index of the best candidate within one attribute: highest gain,
    ties to the lowest threshold (arrays come in ascending order)."""
    top = gains.max()
    return int(np.flatnonzero(gains >= top - _EPS)[0])


def _score(gain, split_info, use_ratio):
    if not use_ratio:
        return gain
    return gain / split_info if split_info > _EPS else 0.0


class _Grower:
    """Grows one unpruned tree over an attribute list sorted once per fit.

    ``order[a]`` lists row ids by ascending value of numeric attribute
    ``numeric[a]`` (stable, so ties keep row order); the last row of
    ``order`` lists row ids in dataset order.  Each node owns the column
    range ``lo:hi`` of ``order`` and ``sorted_values``; a split partitions
    that range in place, left rows first, keeping relative order in every
    row, so each node's range is its own stable sort.  The gather and
    cumulative-sum buffers are allocated once and reused by every node.
    """

    def __init__(self, values, target, weights, feature_cols, nominal_sizes, params):
        n = values.shape[0]
        self.values = values
        self.target = target
        self.weights = weights
        self.weighted_target = weights * target
        self.nominal_sizes = nominal_sizes
        self.numeric = tuple(j for j in feature_cols if not nominal_sizes[j])
        self.nominal = tuple(j for j in feature_cols if nominal_sizes[j])
        self.params = params
        self.min_leaf = float(params.min_instances_per_leaf)

        m = len(self.numeric)
        cols = np.ascontiguousarray(values[:, self.numeric].T)
        self.order = np.empty((m + 1, n), dtype=np.intp)
        self.order[:m] = np.argsort(cols, axis=1, kind="stable")
        self.order[m] = np.arange(n)
        self.sorted_values = np.take_along_axis(cols, self.order[:m], axis=1)
        self._cw = np.empty(m * n)
        self._cw1 = np.empty(m * n)
        self._right_w = np.empty(m * n)
        self._ok = np.empty(m * n, dtype=bool)
        self._flag = np.empty(m * n, dtype=bool)
        self._go_left = np.empty(n, dtype=bool)

    def grow(self, lo, hi):
        rows = self.order[-1, lo:hi]
        weights = self.weights[rows]
        target = self.target[rows]
        w1 = float(weights @ target)
        w_total = float(weights.sum())
        w2 = w_total - w1
        min_leaf = self.min_leaf

        if w1 <= 0 or w2 <= 0 or w_total < 2 * min_leaf:
            return _Leaf(w1, w2)

        candidates = self._numeric_candidates(lo, hi)
        for attr in self.nominal:
            cand = _best_nominal(
                self.values[rows, attr], target, weights, self.nominal_sizes[attr], min_leaf
            )
            if cand is not None:
                candidates.append((attr, *cand))
        if not candidates:
            return _Leaf(w1, w2)

        gain_floor = _EPS * max(1.0, w_total)
        positive = [c for c in candidates if c[1] > gain_floor]
        pool = positive if positive else candidates
        if positive:
            use_ratio = self.params.use_gain_ratio
            scores = [_score(g / w_total, si / w_total, use_ratio) for _, g, si, _ in pool]
            top = max(scores)
            tied = [c for s, c in zip(scores, pool) if s >= top - _EPS]
        else:
            tied = pool  # no informative split: fall back to position order
        attr, _gain, _si, thr = min(tied, key=lambda c: (c[0], c[3]))

        nominal = bool(self.nominal_sizes[attr])
        col = self.values[rows, attr]
        go_left = col == thr if nominal else col <= thr
        mid = lo + self._partition(lo, hi, rows, go_left)
        left = self.grow(lo, mid)
        right = self.grow(mid, hi)
        return _Node(attr, thr, nominal, left, right, w1, w2)

    def _numeric_candidates(self, lo, hi):
        """Best threshold of every numeric attribute at the node ``lo:hi``,
        as ``(attr, gain_u, split_info_u, threshold)`` in unnormalized
        weight*bits units; attributes without a feasible threshold are
        left out."""
        m, k = len(self.numeric), hi - lo
        if m == 0:
            return []
        ids = self.order[:m, lo:hi]
        cw = self._cw[: m * k].reshape(m, k)
        cw1 = self._cw1[: m * k].reshape(m, k)
        np.take(self.weights, ids, out=cw, mode="clip")
        np.take(self.weighted_target, ids, out=cw1, mode="clip")
        total_w = cw.sum(axis=1)
        total_1 = cw1.sum(axis=1)
        np.cumsum(cw, axis=1, out=cw)
        np.cumsum(cw1, axis=1, out=cw1)

        # feasible: a value boundary with at least min_leaf weight each side
        v = self.sorted_values[:, lo:hi]
        left_w = cw[:, :-1]
        ok = self._ok[: m * (k - 1)].reshape(m, k - 1)
        flag = self._flag[: m * (k - 1)].reshape(m, k - 1)
        right_w = self._right_w[: m * (k - 1)].reshape(m, k - 1)
        np.less(v[:, :-1], v[:, 1:], out=ok)
        ok &= np.greater_equal(left_w, self.min_leaf, out=flag)
        np.subtract(total_w[:, None], left_w, out=right_w)
        ok &= np.greater_equal(right_w, self.min_leaf, out=flag)
        a, i = np.nonzero(ok)
        if a.size == 0:
            return []

        lw, lw1 = cw[a, i], cw1[a, i]
        tw, t1 = total_w[a], total_1[a]
        parent = _ent(total_1, total_w - total_1)[a]
        children = _ent(lw1, lw - lw1) + _ent(t1 - lw1, (tw - lw) - (t1 - lw1))
        gains = parent - children
        split_info = _xlog2x(tw) - _xlog2x(lw) - _xlog2x(tw - lw)

        # per attribute (a segment of the candidates), the first candidate
        # within _EPS of the segment's highest gain
        first = np.empty(a.size, dtype=bool)
        first[0] = True
        np.not_equal(a[1:], a[:-1], out=first[1:])
        segment = np.cumsum(first) - 1
        top = np.maximum.reduceat(gains, np.flatnonzero(first))
        hit = np.flatnonzero(gains >= (top - _EPS)[segment])
        best = hit[np.concatenate(([True], segment[hit[1:]] != segment[hit[:-1]]))]

        ra, ri = a[best], i[best]
        thresholds = (v[ra, ri] + v[ra, ri + 1]) / 2.0
        return [
            (self.numeric[r], float(gains[b]), float(split_info[b]), thr)
            for r, b, thr in zip(ra.tolist(), best.tolist(), thresholds)
        ]

    def _partition(self, lo, hi, rows, go_left):
        """Stable-partition the node range, left rows first, in every row
        of ``order`` and ``sorted_values``; returns the left row count."""
        self._go_left[rows] = go_left
        n_left = int(np.count_nonzero(go_left))
        n_right = hi - lo - n_left
        to_left = self._go_left[self.order[:, lo:hi]]
        for lists, left in (
            (self.order[:, lo:hi], to_left),
            (self.sorted_values[:, lo:hi], to_left[:-1]),
        ):
            # boolean indexing reads row by row, so each row keeps its order
            lists[:, :n_left], lists[:, n_left:] = (
                lists[left].reshape(-1, n_left),
                lists[~left].reshape(-1, n_right),
            )
        return n_left


def _pessimistic_errors(node, cf: float) -> float:
    if isinstance(node, _Leaf):
        n = node.w_first + node.w_second
        e = min(node.w_first, node.w_second)
        return e + add_errs(n, e, cf)
    return _pessimistic_errors(node.left, cf) + _pessimistic_errors(node.right, cf)


def _prune(node, cf: float):
    if isinstance(node, _Leaf):
        return node
    node.left = _prune(node.left, cf)
    node.right = _prune(node.right, cf)
    n = node.w_first + node.w_second
    e = min(node.w_first, node.w_second)
    as_leaf = e + add_errs(n, e, cf)
    subtree = _pessimistic_errors(node.left, cf) + _pessimistic_errors(node.right, cf)
    if as_leaf <= subtree + 0.1:
        return _Leaf(node.w_first, node.w_second)
    return node


def fit_tree(d: Dataset, params: TreeParams = TreeParams()) -> TreeModel:
    """Fit on a dataset with exactly two classes present."""
    lo, hi, target = binary_class_info(d)
    feature_cols = tuple(
        j for j in range(d.n_attributes) if j != d.class_attribute
    )
    nominal_sizes = tuple(
        len(spec.values) if spec.is_nominal else 0 for spec in d.attributes
    )
    grower = _Grower(d.values, target, d.weights, feature_cols, nominal_sizes, params)
    root = grower.grow(0, d.n_instances)
    if params.prune:
        root = _prune(root, params.pruning_confidence)
    return TreeModel(root, d.attributes, d.class_attribute, (lo, hi))
