"""Two-class decision tree in the C4.5 family.

Splits are binary: numeric attributes test ``x <= threshold`` (midpoints
between consecutive distinct values), nominal attributes test
``x == value`` against the rest.  Within an attribute the candidate is
chosen by information gain; attributes then compete on gain ratio (the
C4.5 convention) unless ``use_gain_ratio`` is off.  Ties break to the
lowest attribute index, then the lowest threshold / value index.  Leaves
report the weighted class frequency with no smoothing.

When a node is impure but no candidate split has positive gain (XOR-like
data), the lowest-indexed feasible split is taken anyway; growth still
terminates because both sides must receive at least the per-leaf minimum.

Numeric split search follows the attribute lists of SLIQ (Mehta, Agrawal
and Rissanen, 1996), kept as the dataset's order codes (see ``data``)
rather than float values: each numeric column's codes are stable-sorted
once per fit, which numpy runs as a radix sort on 16-bit codes, and a
split stable-partitions the node's slice of every sorted list, so each
node sees its rows in the order its own stable sort would give.  Codes
order and tie as the values do, so the order, and so the model, is the
one a stable sort of the values gives.  A node scores every attribute
in one pass over one set of candidate tests: the code boundaries of the
sorted lists, weighed by cumulative sums, and the ``value vs rest``
tests, weighed by one ``bincount`` over all nominal columns.  Only tests
that leave the per-leaf minimum on both sides count; every ``x log2 x``
term of the node is taken in one vectorized pass, each attribute keeps
its best test, and the attributes compete in one array.

Pruning is pessimistic-error pruning: a subtree collapses to a leaf when
the leaf's upper-confidence error estimate does not exceed the subtree's.
No subtree raising, no missing-value handling.

Growing, pruning and every walk of a fitted tree use explicit stacks, so
tree depth is bounded by memory, not by the interpreter's recursion
limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .._special import ndtri
from ..data import Dataset
from ..errors import InvalidParam
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
            raise InvalidParam("min_instances_per_leaf", "must be >= 1")
        if not 0.0 < self.pruning_confidence <= 0.5:
            raise InvalidParam("pruning_confidence", "must be in (0, 0.5]")


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
    return a * np.log2(a, out=np.zeros_like(a), where=a > 0)


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

    def _preorder(self):
        """``(node, depth)`` pairs, each node before its left subtree and
        the left subtree before the right."""
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            if isinstance(node, _Node):
                stack.append((node.right, depth + 1))
                stack.append((node.left, depth + 1))

    def n_nodes(self) -> int:
        return sum(1 for _ in self._preorder())

    def depth(self) -> int:
        return max(depth for _, depth in self._preorder())

    def to_lines(self) -> list[str]:
        lines = [
            "tree",
            f"classes {self.class_pair[0]} {self.class_pair[1]}",
        ]
        for node, depth in self._preorder():
            pad = "  " * depth
            if isinstance(node, _Leaf):
                lines.append(f"{pad}leaf {node.w_first!r} {node.w_second!r}")
                continue
            name = self.attributes[node.attr].name
            if node.nominal:
                val = self.attributes[node.attr].values[int(node.threshold)]
                lines.append(f"{pad}split {name} == {val}")
            else:
                lines.append(f"{pad}split {name} <= {node.threshold!r}")
        return lines


class _Grower:
    """Grows one unpruned tree over attribute lists sorted once per fit.

    ``order[a]`` lists row ids by ascending code of numeric attribute
    ``numeric[a]`` (stable, so ties keep row order) and
    ``sorted_codes[a]`` the codes in that order; the last row of ``order``
    lists row ids in dataset order.  Each node owns the column range
    ``lo:hi`` of ``order`` and ``sorted_codes``; a split partitions that
    range in place, left rows first, keeping relative order in every row,
    so each node's range is its own stable sort.  The gather and
    cumulative-sum buffers are allocated once and reused by every node.

    Slot ``s`` scores attribute ``slot_attr[s]``, numeric ones first.  A
    candidate test is a slot with the weight and class-1 weight on its
    left side; each slot also has the node's weight and class-1 weight.
    Nominal tests are weighed by one ``bincount`` over every nominal
    column, each column's codes offset to its own run of bins.
    """

    def __init__(self, d: Dataset, target, params):
        n = d.n_instances
        self.values = d.values
        self.target = target
        self.weights = d.weights
        self.weighted_target = d.weights * target
        self.nominal_sizes = tuple(
            len(spec.values) if spec.is_nominal else 0 for spec in d.attributes
        )
        features = [j for j in range(d.n_attributes) if j != d.class_attribute]
        # the class attribute is nominal, so these are the columns of codes
        self.numeric = tuple(j for j in features if not self.nominal_sizes[j])
        self.nominal = tuple(j for j in features if self.nominal_sizes[j])
        self.slot_attr = np.array(self.numeric + self.nominal, dtype=np.intp)
        self.params = params
        self.min_leaf = float(params.min_instances_per_leaf)

        m = len(self.numeric)
        codes = np.ascontiguousarray(d.codes.T)
        self.order = np.empty((m + 1, n), dtype=np.intp)
        self.order[:m] = np.argsort(codes, axis=1, kind="stable")
        self.order[m] = np.arange(n)
        self.sorted_codes = np.take_along_axis(codes, self.order[:m], axis=1)
        self._cw = np.empty(m * n)
        self._cw1 = np.empty(m * n)
        self._boundary = np.empty(m * n, dtype=bool)
        self._go_left = np.empty(n, dtype=bool)

        # nominal column i's codes, offset to its own run bin_ranges[i] of
        # bins; each bin's slot and value index
        sizes = [self.nominal_sizes[j] for j in self.nominal]
        offsets = np.cumsum([0] + sizes)
        self.bin_ranges = tuple(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
        self.bins = d.values[:, self.nominal].T.astype(np.intp) + offsets[:-1, None]
        self.bin_slot = np.repeat(np.arange(m, m + len(sizes)), sizes)
        self.bin_value = np.arange(offsets[-1]) - np.repeat(offsets[:-1], sizes)

    def grow(self):
        """The unpruned tree over every row, grown depth first from an
        explicit stack."""
        root = None
        pending = [(0, self.order.shape[1], None, "")]
        while pending:
            lo, hi, parent, side = pending.pop()
            node, mid = self._split(lo, hi)
            if parent is None:
                root = node
            else:
                setattr(parent, side, node)
            if mid is not None:
                pending.append((mid, hi, node, "right"))
                pending.append((lo, mid, node, "left"))
        return root

    def _split(self, lo, hi):
        """``(leaf, None)`` for the node ``lo:hi``, or ``(node, mid)`` with
        the children of ``node`` still to grow over ``lo:mid`` and
        ``mid:hi``."""
        rows = self.order[-1, lo:hi]
        weights = self.weights[rows]
        w1 = float(weights @ self.target[rows])
        w_total = float(weights.sum())
        w2 = w_total - w1

        if w1 <= 0 or w2 <= 0 or w_total < 2 * self.min_leaf:
            return _Leaf(w1, w2), None
        best = self._best_tests(lo, hi, rows, weights)
        if best is None:
            return _Leaf(w1, w2), None

        # the informative tests (or all, if none is) compete on gain ratio
        # or gain; ties go to the lowest attribute
        attrs, gains, split_info, thresholds = best
        pool = (gains > _EPS * max(1.0, w_total)).nonzero()[0]
        if pool.size:
            score = gains[pool] / w_total
            if self.params.use_gain_ratio:
                si = split_info[pool] / w_total
                score = np.divide(score, si, out=np.zeros(pool.size), where=si > _EPS)
            pool = pool[score >= score.max() - _EPS]
        else:
            pool = np.arange(attrs.size)
        pick = pool[attrs[pool].argmin()]
        attr, thr = int(attrs[pick]), thresholds[pick]

        nominal = bool(self.nominal_sizes[attr])
        col = self.values[rows, attr]
        go_left = col == thr if nominal else col <= thr
        mid = lo + self._partition(lo, hi, rows, go_left)
        return _Node(attr, thr, nominal, None, None, w1, w2), mid

    def _best_tests(self, lo, hi, rows, weights):
        """The best test of every attribute with a feasible one at the node
        ``lo:hi``, as arrays ``(attrs, gains, split_info, thresholds)`` in
        slot order, gains and split info in unnormalized weight*bits units;
        None when no attribute has one."""
        parts = []
        if self.numeric:
            parts.append(self._numeric_candidates(lo, hi))
        if self.nominal:
            parts.append(self._nominal_candidates(rows, weights))
        if not parts:
            return None
        if len(parts) == 2:  # numeric slots come first, so slots still ascend
            parts = [tuple(map(np.concatenate, zip(*parts)))]
        # popped, so that each unfiltered array is freed once filtered
        total_w, total_1, a, lw, lw1, pos = parts.pop()
        # the tests that leave at least min_leaf weight on each side
        tw = total_w[a]
        ok = (lw >= self.min_leaf) & (tw - lw >= self.min_leaf)
        a, pos, lw, lw1, tw = a[ok], pos[ok], lw[ok], lw1[ok], tw[ok]
        if a.size == 0:
            return None

        # every x*log2(x) argument of the node in one buffer: per slot the
        # parent's entropy terms and the node weight, per candidate each
        # child's entropy terms and the two side weights of the split info;
        # an entropy weighs by its own pair's sum, as the tested reference
        # search does, so gains agree with it bit for bit
        s, c = total_w.size, a.size
        args = np.empty(4 * s + 8 * c)
        t_sum, t_1, t_2, t_w = args[: 4 * s].reshape(4, s)
        l_sum, l_1, l_2, l_w, r_sum, r_1, r_2, r_w = args[4 * s :].reshape(8, c)
        t_1[:], t_w[:] = total_1, total_w
        np.subtract(total_w, total_1, out=t_2)
        np.add(t_1, t_2, out=t_sum)
        l_1[:], l_w[:] = lw1, lw
        np.subtract(l_w, l_1, out=l_2)
        np.add(l_1, l_2, out=l_sum)
        np.subtract(tw, l_w, out=r_w)
        np.subtract(total_1[a], l_1, out=r_1)
        np.subtract(r_w, r_1, out=r_2)
        np.add(r_1, r_2, out=r_sum)
        xlx = _xlog2x(args)
        x_sum, x_1, x_2, x_w = xlx[: 4 * s].reshape(4, s)
        xl_sum, xl_1, xl_2, xl_w, xr_sum, xr_1, xr_2, xr_w = xlx[4 * s :].reshape(8, c)
        parent = (x_sum - x_1 - x_2)[a]
        gains = parent - ((xl_sum - xl_1 - xl_2) + (xr_sum - xr_1 - xr_2))
        split_info = x_w[a] - xl_w - xr_w

        # per slot (a run of candidates), the first within _EPS of the
        # slot's highest gain: the lowest threshold or value of the best
        starts = np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1])))
        top = np.zeros(s)
        top[a[starts]] = np.maximum.reduceat(gains, starts)
        hit = np.flatnonzero(gains >= (top - _EPS)[a])
        hit_slot = a[hit]
        best = hit[np.concatenate(([True], hit_slot[1:] != hit_slot[:-1]))]

        # a numeric threshold is the midpoint of the values of the rows
        # either side of the boundary, a nominal one the value's index
        slots, pos = a[best], pos[best]
        attrs = self.slot_attr[slots]
        thresholds = pos.astype(float)
        n = slots.searchsorted(len(self.numeric))
        if n:
            ra, ri, cols = slots[:n], pos[:n] - slots[:n] * (hi - lo), attrs[:n]
            ids = self.order[:-1, lo:hi]
            below = self.values[ids[ra, ri], cols]
            above = self.values[ids[ra, ri + 1], cols]
            thresholds[:n] = (below + above) / 2.0
        return attrs, gains[best], split_info[best], thresholds

    def _numeric_candidates(self, lo, hi):
        """The code boundaries of the node ``lo:hi``: per slot the weight
        and class-1 weight, per candidate its slot, the weights left of it
        and its position, a flat index into the (slot, row) lists."""
        m, k = len(self.numeric), hi - lo
        ids = self.order[:m, lo:hi]
        cw = self._cw[: m * k].reshape(m, k)
        cw1 = self._cw1[: m * k].reshape(m, k)
        np.take(self.weights, ids, out=cw, mode="clip")
        np.take(self.weighted_target, ids, out=cw1, mode="clip")
        total_w = cw.sum(axis=1)
        total_1 = cw1.sum(axis=1)
        np.cumsum(cw, axis=1, out=cw)
        np.cumsum(cw1, axis=1, out=cw1)
        codes = self.sorted_codes[:, lo:hi]
        boundary = self._boundary[: m * (k - 1)].reshape(m, k - 1)
        np.less(codes[:, :-1], codes[:, 1:], out=boundary)
        at = np.flatnonzero(boundary)
        a = at // (k - 1)
        at += a  # from (m, k - 1) to (m, k) positions
        return total_w, total_1, a, cw.take(at), cw1.take(at), at

    def _nominal_candidates(self, rows, weights):
        """The ``value vs rest`` tests of the node with ``rows``, laid out
        as ``_numeric_candidates`` lays out boundaries; a test's position
        is its value index.  Each bin adds its rows' weights in row order,
        as a bincount of its own column would, and each column sums its
        own bins."""
        bins = self.bins[:, rows].ravel()
        q, n_bins = len(self.nominal), self.bin_value.size
        w_all = np.bincount(bins, np.tile(weights, q), n_bins)
        w_one = np.bincount(bins, np.tile(self.weighted_target[rows], q), n_bins)
        total_w = np.array([w_all[s:e].sum() for s, e in self.bin_ranges])
        total_1 = np.array([w_one[s:e].sum() for s, e in self.bin_ranges])
        return total_w, total_1, self.bin_slot, w_all, w_one, self.bin_value

    def _partition(self, lo, hi, rows, go_left):
        """Stable-partition the node range, left rows first, in every row
        of ``order`` and ``sorted_codes``; returns the left row count."""
        self._go_left[rows] = go_left
        n_left = int(np.count_nonzero(go_left))
        n_right = hi - lo - n_left
        to_left = self._go_left[self.order[:, lo:hi]]
        for lists, left in (
            (self.order[:, lo:hi], to_left),
            (self.sorted_codes[:, lo:hi], to_left[:-1]),
        ):
            # compress reads row by row, so each row keeps its order; it
            # beats boolean indexing on masks as irregular as these
            left, flat = left.ravel(), lists.ravel()
            lists[:, :n_left], lists[:, n_left:] = (
                np.compress(left, flat).reshape(-1, n_left),
                np.compress(~left, flat).reshape(-1, n_right),
            )
        return n_left


def _prune(root, cf: float):
    """Pessimistic-error pruning, bottom up: each subtree's pruned form
    and error estimate are worked out once, after its children's."""
    preorder, stack = [], [root]
    while stack:
        node = stack.pop()
        preorder.append(node)
        if isinstance(node, _Node):
            stack += (node.left, node.right)
    pruned = {}  # subtree -> (its pruned form, that form's error estimate)
    for node in reversed(preorder):  # children before their parent
        n = node.w_first + node.w_second
        e = min(node.w_first, node.w_second)
        as_leaf = e + add_errs(n, e, cf)
        if isinstance(node, _Leaf):
            pruned[node] = node, as_leaf
            continue
        node.left, left_errors = pruned.pop(node.left)
        node.right, right_errors = pruned.pop(node.right)
        subtree = left_errors + right_errors
        if as_leaf <= subtree + 0.1:
            pruned[node] = _Leaf(node.w_first, node.w_second), as_leaf
        else:
            pruned[node] = node, subtree
    return pruned[root][0]


def fit_tree(d: Dataset, params: TreeParams = TreeParams()) -> TreeModel:
    """Fit on a dataset with exactly two classes present."""
    lo, hi, target = binary_class_info(d)
    root = _Grower(d, target, params).grow()
    if params.prune:
        root = _prune(root, params.pruning_confidence)
    return TreeModel(root, d.attributes, d.class_attribute, (lo, hi))
