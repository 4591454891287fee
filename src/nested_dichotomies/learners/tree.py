"""Two-class decision tree in the C4.5 family.

Splits are binary: numeric attributes test ``x <= threshold`` (midpoints
between consecutive distinct values, or the lower value where the
midpoint rounds or overflows past them), nominal attributes test
``x == value`` against the rest.  Within an attribute the candidate is
chosen by information gain; attributes then compete on gain ratio (the
C4.5 convention) unless ``use_gain_ratio`` is off.  Ties break to the
lowest attribute index, then the lowest threshold / value index.  Leaves
report the weighted class frequency with no smoothing.

When a node is impure but no candidate split has positive gain (XOR-like
data), the lowest-indexed feasible split is taken anyway; growth still
terminates because both sides must receive at least the per-leaf minimum.

Split search works on the dataset's order codes (see ``data``) rather
than on float values: codes order and tie as the values do, so each
numeric boundary and so each model is the one a stable sort of the
values gives.  A node scores every attribute in one pass over one set of
candidate tests, the numeric code boundaries and the nominal ``value vs
rest`` tests; only tests that leave the per-leaf minimum on both sides
count, every ``x log2 x`` term of the node is taken in one vectorized
pass, each attribute keeps its best test, and the attributes compete in
one array.  Only the chosen test's threshold is computed, and the node's
rows go down it by their codes: ``code <= c`` is exactly ``value <=
threshold``, as the threshold lies in ``[value of c, value of the node's
next code)``.

The weights of the tests are formed in one of three ways, chosen per fit
from its data, with no option.  On unit weights all three give the same
gains, bit for bit, and so the same trees; other weights take only the
third:

* Class-count histograms, for unit weights (as parsing, folds and
  resampling produce) when the histogram has no more cells than the fit
  has rows.  A feature has one cell per code in the fit's range (a
  nominal one per value), every feature padded to the widest, and each
  cell holds all its rows and its class-1 rows.  One ``bincount`` counts
  a node; a split counts only its smaller child and takes the larger as
  the parent minus it, as in LightGBM (Ke et al., 2017).  A boundary's
  left counts are running sums over the cells and each ``x log2 x`` term
  a lookup in a table over ``0..n``.  No attribute is sorted.
* Sorted attribute lists, as in SLIQ (Mehta, Agrawal and Rissanen,
  1996), counted, for unit weights when the histogram would have more
  cells than rows (many distinct values on few rows, where walking the
  cells costs more than walking the rows).  Each numeric column's codes
  are stable-sorted once per fit, a radix sort on 16-bit codes, and kept
  node-major: a node's rows own one contiguous block holding every list
  of the node, and a split stable-partitions that block into the same
  range of a second buffer.  A boundary's left count is its position in
  its list, its class-1 count a running count over the runs of equal
  codes, and the ``x log2 x`` terms come from the same table.
* The same lists with weights summed cumulatively in list order, as a
  search over one attribute at a time would sum them, for any other
  weights: only unit weights make every sum an exact count, the same in
  any order of summation.

On the two counting paths a child's class-1 count is the chosen test's
count on its side, not a recount of its rows.

Pruning is pessimistic-error pruning: a subtree collapses to a leaf when
the leaf's upper-confidence error estimate does not exceed the subtree's.
No subtree raising, no missing-value handling.

Growing, pruning and every walk of a fitted tree use explicit stacks, so
tree depth is bounded by memory, not by the interpreter's recursion
limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..data import Dataset
from ..errors import InvalidParam
from .base import BinaryModel, binary_class_info, check_count

_EPS = 1e-12


@dataclass(frozen=True)
class TreeParams:
    min_instances_per_leaf: int = 2
    pruning_confidence: float = 0.25
    use_gain_ratio: bool = True
    prune: bool = True

    def __post_init__(self):
        check_count("min_instances_per_leaf", self.min_instances_per_leaf, 1)
        if not 0.0 < self.pruning_confidence <= 0.5:
            raise InvalidParam("pruning_confidence", "must be in (0, 0.5]")
        if 1.0 - self.pruning_confidence == 1.0:
            raise InvalidParam("pruning_confidence", "must exceed 2**-54 (1 - cf rounds to 1)")


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
    from statistics import NormalDist  # loaded on first use, not with the package

    return NormalDist().inv_cdf(1.0 - cf)


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
    r = (f + z * z / (2.0 * n) + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))) / (
        1.0 + z * z / n
    )
    return r * n - e


class TreeModel(BinaryModel):
    kind = "tree"

    def __init__(self, root, attributes, layout, class_pair):
        self.root = root
        self.attributes = attributes
        self.layout = layout
        self.class_pair = tuple(class_pair)

    def predict_prob_batch(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        self.layout.check(rows)
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


def _unit_weights(weights: np.ndarray) -> bool:
    """Whether every weight is 1, so that every weight the split search
    sums is an exact count."""
    return bool((weights == 1.0).all())


def _cell_width(d: Dataset) -> int:
    """The code range of the widest feature of ``d``: a numeric column's
    highest code plus one, or a nominal attribute's value count."""
    widths = list(d.layout.nominal_counts)
    if d.codes.size:
        widths.append(int(d.codes.max()) + 1)
    return max(widths, default=0)


def _grower(d: Dataset, target, params) -> "_Grower":
    """The grower for one fit, chosen from its data: class-count histograms
    for unit weights when the histogram, one row of ``_cell_width`` cells
    per feature, has no more cells than the fit has rows; sorted attribute
    lists otherwise, counting for unit weights and summing for others."""
    if not _unit_weights(d.weights):
        return _ListGrower(d, target, params, counts=False)
    width = _cell_width(d)
    if (d.n_attributes - 1) * width <= d.n_instances:
        return _HistogramGrower(d, target, params, width)
    return _ListGrower(d, target, params, counts=True)


class _Grower:
    """What the growers share: the growth loop, the choice of a node's split
    among the best test of each attribute, that test's threshold, and the
    scores of counted tests.

    A subclass keeps each pending node as a ``state`` and gives the root's
    (``_root``), every feasible test of a node (``_candidates``), the code
    of a test and the node's next code after a numeric one (``_code``,
    ``_next_code``) and the growing of one node (``_split``).

    Slot ``s`` scores attribute ``slot_attr[s]``, numeric ones first, and
    ``columns[s]`` holds its codes, or a nominal attribute's value indices,
    one per row.  A candidate test is a slot with the weight and class-1
    weight on its left side; numeric candidates ascend by code within their
    slot and nominal ones by value index, which is the order that breaks
    ties.  A numeric test sends left the rows whose code is at most its
    code, a nominal one the rows of its value.
    """

    def __init__(self, d: Dataset, target, params, counts):
        self.target = target
        # the layout's numeric columns are the columns of codes
        self.numeric = d.layout.numeric
        self.nominal = d.layout.nominal
        self.slot_attr = self.numeric + self.nominal
        m = len(self.numeric)
        # one dtype holds every code and every nominal value index
        widest = np.min_scalar_type(max(d.layout.nominal_counts, default=0))
        dtype = np.result_type(d.codes, widest)
        self.columns = np.empty((len(self.slot_attr), d.n_instances), dtype=dtype)
        self.columns[:m] = d.codes.T
        self.columns[m:] = d.values[:, self.nominal].T
        self.code_values = d.code_values
        self.params = params
        self.min_leaf = float(params.min_instances_per_leaf)
        self.counts = counts
        if counts:
            self.first = target.astype(np.intp)
            self._xlx = _xlog2x(np.arange(d.n_instances + 1, dtype=np.float64))

    def grow(self):
        """The unpruned tree over every row, grown depth first from an
        explicit stack."""
        root = None
        pending = [(self._root(), None, "")]
        while pending:
            state, parent, side = pending.pop()
            node, children = self._split(state)
            if parent is None:
                root = node
            else:
                setattr(parent, side, node)
            for child_side, child in children:  # the last one grows first
                pending.append((child, node, child_side))
        return root

    def _test(self, state, rows, w1, w2, w_total):
        """``(leaf, None)`` for the node with ``state``, ``rows`` and
        class weights ``w1`` and ``w2`` of ``w_total``, or ``(node,
        (go_left, left_1))`` with its children still to grow over the
        ``rows`` that ``go_left`` marks and the rest; ``left_1`` is the
        chosen test's class-1 count on the left, or None without counts."""
        if self._pure_or_small(w1, w2, w_total) or not self.slot_attr:
            return _Leaf(w1, w2), None
        found = self._candidates(state, w1)
        if found is None:
            return _Leaf(w1, w2), None
        where, (a, pos, left_1, scores) = found
        slots, best = self._best_tests(a, scores[0])

        # the informative tests (or all, if none is) compete on gain ratio
        # or gain; ties go to the lowest attribute.  There is one test per
        # attribute, few enough that Python floats beat numpy calls
        gains, split_info = scores.take(best, axis=1).tolist()
        floor = _EPS * max(1.0, w_total)
        pool = [i for i, g in enumerate(gains) if g > floor]
        if pool:
            score = [gains[i] / w_total for i in pool]
            if self.params.use_gain_ratio:
                si = [split_info[i] / w_total for i in pool]
                score = [g / s if s > _EPS else 0.0 for g, s in zip(score, si)]
            top = max(score) - _EPS
            pool = [i for i, g in zip(pool, score) if g >= top]
        else:
            pool = range(len(gains))
        slots = slots.tolist()
        pick = min(pool, key=lambda i: self.slot_attr[slots[i]])
        slot, i = slots[pick], int(best[pick])

        threshold, code = self._threshold(where, slot, int(pos[i]))
        nominal = slot >= len(self.numeric)
        column = self.columns[slot].take(rows)
        go_left = column == code if nominal else column <= code
        node = _Node(self.slot_attr[slot], threshold, nominal, None, None, w1, w2)
        return node, (go_left, int(left_1[i]) if self.counts else None)

    def _pure_or_small(self, w1, w2, w_total):
        """Whether a node with class weights ``w1`` and ``w2`` of
        ``w_total`` is a leaf before any test is weighed."""
        return w1 <= 0 or w2 <= 0 or w_total < 2 * self.min_leaf

    def _best_tests(self, a, gains):
        """The slots with a test among tests of slots ``a`` (ascending)
        with ``gains``, and the index of each one's best test: the first
        within ``_EPS`` of the slot's highest gain, so the lowest threshold
        or value of the best."""
        new_slot = np.empty(a.size, dtype=bool)
        new_slot[0] = True
        np.not_equal(a[1:], a[:-1], out=new_slot[1:])
        starts = new_slot.nonzero()[0]
        slots = a.take(starts)
        top = np.zeros(len(self.slot_attr))
        top[slots] = np.maximum.reduceat(gains, starts) - _EPS
        hit = (gains >= top.take(a)).nonzero()[0]
        return slots, hit.take(a.take(hit).searchsorted(slots))

    def _threshold(self, where, slot, pos):
        """The threshold of the test at ``pos`` of ``slot`` among the
        candidates found at a node with ``where``, an ``np.float64`` as
        model text prints it, and the code (value index) that the slot's
        column is compared with: a numeric threshold is the midpoint of the
        values of the code and of the node's next code, a nominal one the
        value's index."""
        code = self._code(where, slot, pos)
        if slot >= len(self.numeric):
            return np.float64(code), code
        values = self.code_values[slot]
        below, above = values[code], values[self._next_code(where, slot, pos)]
        # the lower value where the midpoint leaves [below, above), so that
        # both sides keep rows: two adjacent doubles can round up to the
        # upper one (C4.5 takes the lower value then) and values past 8e307
        # overflow.  Either way the rows at most the code's value go left
        mid = (below + above) / 2.0
        return (mid if below <= mid < above else below), code

    def _count_gains(self, terms, k, n1):
        """The scores, gains over split info in a ``(2, tests)`` array, of
        tests with ``terms[0]`` rows, ``terms[1]`` of them class 1, on the
        left of a node of ``k`` rows, ``n1`` of them class 1, every ``x
        log2 x`` term read from the table.  ``terms`` is a ``(6, tests)``
        count buffer; its other rows are filled here: the right side's rows
        and class-1 rows, then each side's class-2 rows."""
        np.subtract(k, terms[0], out=terms[2])
        np.subtract(n1, terms[1], out=terms[3])
        np.subtract(terms[0:4:2], terms[1:4:2], out=terms[4:])
        x = self._xlx.take(terms)
        x_w = self._xlx[k]
        parent = x_w - self._xlx[n1] - self._xlx[k - n1]
        # with counts each child's pair sums to its weight exactly, so the
        # entropy and the split info share that term; per side
        # (x_w - x_1) - x_2, left and right in two strided rows
        scores = np.subtract(x[0:4:2], x[1:4:2])
        scores -= x[4:]
        gains, split_info = scores
        np.add(gains, split_info, out=gains)
        np.subtract(parent, gains, out=gains)
        np.subtract(x_w, x[0], out=split_info)
        split_info -= x[2]
        return scores


class _HistogramGrower(_Grower):
    """Grows one unpruned tree of a unit-weight fit from per-node class-count
    histograms, as LightGBM does (Ke et al., 2017).

    Slot ``s`` owns cells ``s*width`` to ``(s+1)*width - 1``, one per code
    of its feature, a nominal feature's codes being its value indices.  A
    node's state is its row ids in dataset order, its class-1 count and
    its histogram, a ``(2, cells)`` table: all the rows per cell, then the
    class-1 rows per cell.  Each row's ``keys`` are its bins in a count of
    the class-0 cells and then the class-1 cells, so one ``bincount`` over
    a node's keys and one add of its halves counts the node.  A split
    counts only its smaller child; the larger is its parent minus that
    child, and each child's class-1 count is the chosen test's.

    The cells a node's rows occupy, in cell order, play the runs of equal
    codes of a sorted list: a numeric boundary follows each, with the
    running counts of the slot's cells up to it on its left, and each
    nominal one is a ``value vs rest`` test.
    """

    def __init__(self, d: Dataset, target, params, width):
        super().__init__(d, target, params, counts=True)
        m, slots = len(self.numeric), len(self.slot_attr)
        self.n_cells = slots * width
        self.n_numeric_cells = m * width
        # each cell's slot and code
        self.cell_slot = np.repeat(np.arange(slots), width)
        self.cell_code = np.tile(np.arange(width), slots)
        # a row's keys: the first cell of each slot in its class's half,
        # plus its codes
        first_cells = np.add.outer((0, self.n_cells), np.arange(slots) * width)
        keys = first_cells.take(self.first, axis=0)
        keys += self.columns.T
        self.keys = keys

    def _histogram(self, keys):
        hist = np.bincount(keys.ravel(), minlength=2 * self.n_cells).reshape(2, self.n_cells)
        hist[0] += hist[1]
        return hist

    def _root(self):
        rows = np.arange(self.keys.shape[0])
        return rows, int(self.first.sum()), self._histogram(self.keys)

    def _split(self, state):
        """The node with ``state`` and its children's states, the larger
        child first: the smaller grows first, so the stack holds at most
        one histogram per halving of the rows."""
        rows, n1, hist = state
        k = rows.size
        node, test = self._test(state, rows, float(n1), float(k - n1), float(k))
        if test is None:
            return node, ()
        go_left, n1_left = test
        left = rows[go_left]
        right = rows[np.logical_not(go_left, out=go_left)]
        children = [("left", left, n1_left), ("right", right, n1 - n1_left)]
        if left.size > right.size:
            children.reverse()
        (small_side, small, small_n1), (large_side, large, large_n1) = children
        grow_small = not self._pure_or_small(small_n1, small.size - small_n1, small.size)
        grow_large = not self._pure_or_small(large_n1, large.size - large_n1, large.size)
        small_hist = large_hist = None
        if grow_small or grow_large:
            counted = self._histogram(self.keys.take(small, axis=0))
            if grow_small:
                small_hist = counted
            if grow_large:
                large_hist = np.subtract(hist, counted, out=hist)
        return node, (
            (large_side, (large, large_n1, large_hist)),
            (small_side, (small, small_n1, small_hist)),
        )

    def _candidates(self, state, w1):
        """Every feasible test of the node with ``state``: the occupied
        cells, and per test its slot, its position in those cells (a
        numeric boundary's last cell) and its class-1 count on the left,
        then the tests' scores as ``_count_gains`` gives them."""
        rows, n1, hist = state
        k, ml = rows.size, self.params.min_instances_per_leaf
        cells = hist[0].nonzero()[0]
        left = hist.take(cells, axis=1)
        slots = self.cell_slot.take(cells)
        # running counts over the numeric slots' cells laid end to end, each
        # earlier slot holding all k rows, n1 of them class 1
        n = cells.searchsorted(self.n_numeric_cells)
        numeric = left[:, :n]
        numeric.cumsum(axis=1, out=numeric)
        numeric -= np.multiply.outer((k, n1), slots[:n])
        ok = left[0] >= ml
        ok &= left[0] <= k - ml
        at = ok.nonzero()[0]
        if not at.size:
            return None
        terms = np.empty((6, at.size), dtype=np.intp)
        left.take(at, axis=1, out=terms[:2])
        return cells, (slots.take(at), at, terms[1], self._count_gains(terms, k, n1))

    def _code(self, cells, slot, pos):
        """The code of the occupied ``cells`` at ``pos``, a nominal test's
        value index."""
        return int(self.cell_code[cells[pos]])

    def _next_code(self, cells, slot, pos):
        """The code of the occupied ``cells`` after ``pos``."""
        return int(self.cell_code[cells[pos + 1]])


class _ListGrower(_Grower):
    """Grows one unpruned tree over attribute lists sorted once per fit.

    With ``m`` numeric attributes, the node over rows ``lo:hi`` (``k``
    rows) owns the flat block ``(m+1)*lo:(m+1)*hi`` of an order buffer
    and ``m*lo:m*hi`` of a codes buffer.  Read as ``(m+1, k)``, row ``a``
    of the order block lists the node's row ids by ascending code of
    numeric attribute ``numeric[a]`` (stable, so ties keep row order) and
    its last row lists them in dataset order; read as ``(m, k)``, the
    codes block holds the codes in that order.  Each list comes as two
    buffers: a split stable-partitions the node's block, left rows first
    in every row, into the same range of the other buffer, where the
    children's blocks then lie, so a node at depth ``d`` reads buffer
    ``d % 2`` and each node's block is its own stable sort.  A node's
    state is ``(lo, hi, buffer, n1)``, ``n1`` its class-1 count with
    ``counts`` (the chosen test's at each split) and None otherwise.

    Nominal tests are weighed by one ``bincount`` over every nominal
    column, each column's codes offset to its own run of bins.

    With ``counts``, for unit weights, each of these weights is a count,
    exact in any order of summation, and is counted: a boundary's left
    weight is its position in the list plus one, its class-1 weight is a
    running count of class-1 rows over the runs of equal codes, and every
    ``x log2 x`` term is read from a table over ``0..n``.  Otherwise the
    weights are cumulative sums in list order, as a per-attribute search
    would form them.  Either way the gains are the same bits.
    """

    def __init__(self, d: Dataset, target, params, counts):
        super().__init__(d, target, params, counts)
        n = d.n_instances
        self.weights = d.weights
        m = len(self.numeric)
        codes = self.columns[:m]
        order = np.empty((m + 1, n), dtype=np.intp)
        order[:m] = np.argsort(codes, axis=1, kind="stable")
        order[m] = np.arange(n)
        sorted_codes = np.take_along_axis(codes, order[:m], axis=1)
        self._order = (order.ravel(), np.empty_like(order.ravel()))
        self._codes = (sorted_codes.ravel(), np.empty_like(sorted_codes.ravel()))
        self._go_left = np.empty(n, dtype=bool)

        if counts:
            self._first_sorted = np.empty(m * n, dtype=np.intp)
            self._starts = np.empty(m * n, dtype=bool)
        else:
            self.weighted_target = d.weights * target
            self._cw = np.empty(m * n)
            self._cw1 = np.empty(m * n)
            self._boundary = np.empty(m * n, dtype=bool)

        # nominal column i's codes, offset to its own run bin_ranges[i] of
        # bins; each bin's slot and value index
        sizes = d.layout.nominal_counts
        offsets = np.cumsum((0, *sizes))
        self.bin_ranges = tuple(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
        self.bins = self.columns[m:].astype(np.intp) + offsets[:-1, None]
        self.bin_slot = np.repeat(np.arange(m, m + len(sizes)), sizes)
        self.bin_value = np.arange(offsets[-1]) - np.repeat(offsets[:-1], sizes)

    def _block(self, lo, hi, buf):
        """The ``(m+1, k)`` order block and ``(m, k)`` codes block of the
        node ``lo:hi`` in buffer ``buf``."""
        m, k = len(self.numeric), hi - lo
        order = self._order[buf][(m + 1) * lo : (m + 1) * hi].reshape(m + 1, k)
        return order, self._codes[buf][m * lo : m * hi].reshape(m, k)

    def _root(self):
        return 0, self._go_left.size, 0, int(self.first.sum()) if self.counts else None

    def _split(self, state):
        """The node ``lo:hi`` and its children's states, their blocks in
        the other buffer."""
        lo, hi, buf, n1 = state
        rows = self._block(lo, hi, buf)[0][-1]
        if self.counts:
            w_total, w1 = float(hi - lo), float(n1)
        else:
            weights = self.weights[rows]
            w1 = float(weights @ self.target[rows])
            w_total = float(weights.sum())
        node, test = self._test(state, rows, w1, w_total - w1, w_total)
        if test is None:
            return node, ()
        go_left, left_1 = test
        mid = lo + self._partition(lo, hi, buf, rows, go_left)
        right_1 = n1 - left_1 if self.counts else None
        return node, (("right", (mid, hi, 1 - buf, right_1)), ("left", (lo, mid, 1 - buf, left_1)))

    def _candidates(self, state, w1):
        """Every feasible test of the node with ``state``: its order block,
        and the tests as ``_counted_tests`` or ``_summed_tests`` gives
        them."""
        order, codes = self._block(*state[:3])
        if self.counts:
            tests = self._counted_tests(order, codes, int(w1))
        else:
            tests = self._summed_tests(order, codes)
        return None if tests is None else (order, tests)

    def _code(self, order, slot, pos):
        """The code of the row at ``pos``, a flat index into the ``(m, k)``
        lists, or a nominal test's value index ``pos``."""
        if slot >= len(self.numeric):
            return pos
        return int(self.columns[slot, order.ravel()[pos]])

    def _next_code(self, order, slot, pos):
        """The code of the row after ``pos``, a flat index into the
        ``(m, k)`` lists."""
        return int(self.columns[slot, order.ravel()[pos + 1]])

    # -- unit weights: counts ------------------------------------------

    def _counted_tests(self, order, codes, n1):
        """Every feasible test of a node with unit weights and ``n1``
        class-1 rows, as ``(slots, positions, class-1 counts on the left,
        scores)``, ``scores`` as ``_count_gains`` gives them, with slots
        ascending; None when there is none."""
        parts = []
        if self.numeric:
            parts.append(self._numeric_counts(order, codes, n1))
        if self.nominal:
            parts.append(self._nominal_counts(order[-1]))
        a, lw, lw1, pos = (
            parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))
        )
        if a.size == 0:
            return None
        terms = np.empty((6, a.size), dtype=np.intp)
        terms[0], terms[1] = lw, lw1
        return a, pos, terms[1], self._count_gains(terms, order.shape[1], n1)

    def _numeric_counts(self, order, codes, n1):
        """The code boundaries of a node with unit weights that leave the
        per-leaf minimum on both sides: per candidate its slot, the count
        and class-1 count left of it and its position, a flat index into
        the ``(m, k)`` lists."""
        m, k = codes.shape
        ml = self.params.min_instances_per_leaf
        # a run of equal codes starts at every code boundary; only those
        # ml..k-ml rows into a list are candidates, and position 0 starts
        # the first run
        starts = self._starts[: m * k]
        flat = codes.ravel()
        np.less(flat[:-1], flat[1:], out=starts[1:])
        by_list = starts.reshape(m, k)
        by_list[:, :ml] = False
        by_list[:, k - ml + 1 :] = False
        starts[0] = True
        at = starts.nonzero()[0]
        # class-1 rows before each run start, counted over the lists laid
        # end to end; each earlier list holds all n1 of them
        first = self._first_sorted[: m * k]
        self.first.take(order[:m].ravel(), out=first, mode="clip")
        before = np.add.reduceat(first, at)
        np.add.accumulate(before, out=before)
        pos = at[1:] - 1  # each boundary's last row on the left
        a = pos // k
        lw = at[1:] - a * k
        return a, lw, np.subtract(before[:-1], a * n1), pos

    def _nominal_counts(self, rows):
        """The ``value vs rest`` tests of a node with unit weights and
        ``rows`` that leave the per-leaf minimum on both sides, laid out as
        ``_numeric_counts`` lays out boundaries; a test's position is its
        value index."""
        ml, k = self.params.min_instances_per_leaf, rows.size
        bins, n_bins = self.bins[:, rows], self.bin_value.size
        w_all = np.bincount(bins.ravel(), minlength=n_bins)
        w_one = np.bincount(bins[:, self.first.take(rows) > 0].ravel(), minlength=n_bins)
        ok = (w_all >= ml) & (w_all <= k - ml)
        return self.bin_slot[ok], w_all[ok], w_one[ok], self.bin_value[ok]

    # -- weighted: cumulative sums -------------------------------------

    def _summed_tests(self, order, codes):
        """As ``_counted_tests``, for any weights: the weights are summed
        in list order and every ``x log2 x`` term is computed."""
        parts = []
        if self.numeric:
            parts.append(self._numeric_sums(order, codes))
        if self.nominal:
            parts.append(self._nominal_sums(order[-1]))
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
        scores = np.empty((2, c))  # gains over split info
        np.subtract(parent, (xl_sum - xl_1 - xl_2) + (xr_sum - xr_1 - xr_2), out=scores[0])
        np.subtract(x_w[a] - xl_w, xr_w, out=scores[1])
        return a, pos, lw1, scores

    def _numeric_sums(self, order, codes):
        """The code boundaries of a node: per slot the weight and class-1
        weight, per candidate its slot, the weights left of it and its
        position, a flat index into the ``(m, k)`` lists."""
        m, k = codes.shape
        ids = order[:m]
        cw = self._cw[: m * k].reshape(m, k)
        cw1 = self._cw1[: m * k].reshape(m, k)
        np.take(self.weights, ids, out=cw, mode="clip")
        np.take(self.weighted_target, ids, out=cw1, mode="clip")
        total_w = cw.sum(axis=1)
        total_1 = cw1.sum(axis=1)
        np.cumsum(cw, axis=1, out=cw)
        np.cumsum(cw1, axis=1, out=cw1)
        boundary = self._boundary[: m * (k - 1)].reshape(m, k - 1)
        np.less(codes[:, :-1], codes[:, 1:], out=boundary)
        at = np.flatnonzero(boundary)
        a = at // (k - 1)
        at += a  # from (m, k - 1) to (m, k) positions
        return total_w, total_1, a, cw.take(at), cw1.take(at), at

    def _nominal_sums(self, rows):
        """The ``value vs rest`` tests of the node with ``rows``, laid out
        as ``_numeric_sums`` lays out boundaries.  Each bin adds its rows'
        weights in row order, as a bincount of its own column would, and
        each column sums its own bins."""
        bins = self.bins[:, rows].ravel()
        q, n_bins = len(self.nominal), self.bin_value.size
        w_all = np.bincount(bins, np.tile(self.weights[rows], q), n_bins)
        w_one = np.bincount(bins, np.tile(self.weighted_target[rows], q), n_bins)
        total_w = np.array([w_all[s:e].sum() for s, e in self.bin_ranges])
        total_1 = np.array([w_one[s:e].sum() for s, e in self.bin_ranges])
        return total_w, total_1, self.bin_slot, w_all, w_one, self.bin_value

    def _partition(self, lo, hi, buf, rows, go_left):
        """Stable-partition the node's blocks, left rows first in every
        list, into the same ranges of the other buffers; returns the left
        row count."""
        self._go_left[rows] = go_left
        n_left = int(np.count_nonzero(go_left))
        mid, m = lo + n_left, len(self.numeric)
        left = self._go_left.take(self._order[buf][(m + 1) * lo : (m + 1) * hi])
        # positions in the block, read row by row, so each list keeps its
        # order; every row has n_left of them, so the codes block's are a
        # prefix of the order block's
        to_left = left.nonzero()[0]
        to_right = np.logical_not(left, out=left).nonzero()[0]
        for lists, width in ((self._order, m + 1), (self._codes, m)):
            block, dst = lists[buf][width * lo : width * hi], lists[1 - buf]
            block.take(to_left[: width * n_left], out=dst[width * lo : width * mid], mode="clip")
            block.take(to_right[: width * (hi - mid)], out=dst[width * mid : width * hi], mode="clip")
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
    root = _grower(d, target, params).grow()
    if params.prune:
        root = _prune(root, params.pruning_confidence)
    return TreeModel(root, d.attributes, d.layout, (lo, hi))
