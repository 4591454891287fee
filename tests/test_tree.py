import hashlib
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussian_dataset, load_uci, simple_dataset
from nested_dichotomies.data import AttributeSpec, Dataset
from nested_dichotomies.dichotomy import build_nd
from nested_dichotomies.errors import InvalidParam, SingleClass
from nested_dichotomies.learners import TreeParams, fit_tree
from nested_dichotomies.learners import tree as tree_module
from nested_dichotomies.learners.base import binary_class_info
from nested_dichotomies.learners.tree import (
    _EPS,
    TreeModel,
    _cell_width,
    _HistogramGrower,
    _Leaf,
    _ListGrower,
    _Node,
    _upper_z,
    add_errs,
)
from nested_dichotomies.selection import SubsetSelector


def two_class(values, class_names=("a", "b"), attr_names=None, nominal=None):
    n_cols = len(values[0])
    attrs = []
    for j in range(n_cols - 1):
        name = attr_names[j] if attr_names else f"x{j}"
        attrs.append(AttributeSpec(name, nominal.get(j) if nominal else None))
    attrs.append(AttributeSpec("class", class_names))
    return Dataset(attrs, np.asarray(values, dtype=float), n_cols - 1)


def test_xor_learned_exactly():
    d = two_class([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]])
    m = fit_tree(d, TreeParams(min_instances_per_leaf=1, prune=False))
    p = m.predict_prob_batch(d.values)
    predicted_first = p >= 0.5
    actual_first = d.class_indices() == 0
    assert np.array_equal(predicted_first, actual_first)


def test_pure_data_raises_single_class():
    d = two_class([[0, 0], [1, 0], [2, 0]])
    with pytest.raises(SingleClass):
        fit_tree(d)


def test_constant_attributes_single_leaf():
    d = two_class([[7, 0], [7, 0], [7, 1], [7, 0]])
    m = fit_tree(d, TreeParams(min_instances_per_leaf=1, prune=False))
    assert isinstance(m.root, _Leaf)
    assert m.predict_prob_batch(np.array([7.0, 0.0])) == pytest.approx([0.75])


@pytest.mark.parametrize("weights", [None, [1.0, 2.0, 0.5]], ids=["unit", "weighted"])
def test_no_features_single_leaf(weights):
    attrs = [AttributeSpec("class", ("a", "b"))]
    d = Dataset(attrs, np.array([[0.0], [1.0], [1.0]]), 0, weights=weights)
    w = d.weights
    want = ["tree", "classes 0 1", f"leaf {float(w[0])!r} {float(w[1] + w[2])!r}"]
    assert fit_tree(d, TreeParams(min_instances_per_leaf=1)).to_lines() == want


def test_leaf_frequency_probabilities():
    leaf = _Leaf(3.0, 1.0)
    assert leaf.p_first == pytest.approx(0.75)


def test_contradictory_duplicates_leaf_half():
    d = two_class([[1, 0], [1, 1]])
    m = fit_tree(d, TreeParams(min_instances_per_leaf=1, prune=False))
    assert m.predict_prob_batch(np.array([1.0, 0.0])) == pytest.approx([0.5])


def test_min_leaf_respected():
    d = simple_dataset([0, 1, 2, 3, 4, 5, 6, 7], [0, 0, 0, 0, 1, 1, 1, 1])
    m = fit_tree(d, TreeParams(min_instances_per_leaf=3, prune=False))

    def check(node):
        if isinstance(node, _Leaf):
            assert node.w_first + node.w_second >= 3
            return
        check(node.left)
        check(node.right)

    check(m.root)
    # any integer type operator.index takes will do
    assert fit_tree(d, TreeParams(np.int64(3), prune=False)).to_lines() == m.to_lines()


@pytest.mark.parametrize(
    "value, requirement",
    [(2.5, "must be an integer"), (3.0, "must be an integer"), (True, "must be an integer"),
     (0, "must be >= 1")],
)
def test_min_leaf_must_be_a_positive_integer(value, requirement):
    # a float or bool used to pass here and fail inside the fit
    with pytest.raises(InvalidParam) as err:
        TreeParams(min_instances_per_leaf=value)
    assert (err.value.field, err.value.requirement) == ("min_instances_per_leaf", requirement)


def test_nominal_value_vs_rest_split():
    d = two_class(
        [[0, 0], [0, 0], [1, 1], [1, 1], [2, 1], [2, 1]],
        nominal={0: ("r", "g", "b")},
    )
    m = fit_tree(d, TreeParams(min_instances_per_leaf=1, prune=False))
    assert isinstance(m.root, _Node)
    assert m.root.nominal
    assert m.root.threshold == 0.0  # category "r" vs rest separates perfectly
    assert m.predict_prob_batch(np.array([[0.0, 0.0], [1.0, 0.0]])).tolist() == [1.0, 0.0]


def test_threshold_is_midpoint_and_ties_prefer_low_attribute():
    # both attributes separate perfectly; attribute 0 must win the tie
    d = two_class([[0, 0, 0], [1, 1, 0], [0, 0, 0], [1, 1, 1]])
    d = two_class([[0, 0, 0], [0, 0, 0], [1, 1, 1], [1, 1, 1]])
    m = fit_tree(d, TreeParams(min_instances_per_leaf=1, prune=False))
    assert isinstance(m.root, _Node)
    assert m.root.attr == 0
    assert m.root.threshold == pytest.approx(0.5)


@pytest.mark.parametrize("weights", [None, [1.0, 2.0, 1.0, 0.5]], ids=["unit", "weighted"])
@pytest.mark.parametrize(
    "a, b",
    [
        # adjacent doubles, the upper one with an even last mantissa bit:
        # the midpoint rounds up to it
        (1.0 + 2.0**-52, 1.0 + 2.0**-51),
        # the sum overflows to +inf or -inf
        (1e308, 1.5e308),
        (-1.5e308, -1e308),
    ],
    ids=["round-up", "overflow-up", "overflow-down"],
)
def test_midpoint_outside_the_values_splits_at_the_lower_value(a, b, weights):
    # "x <= midpoint" would send every row to one side
    with np.errstate(over="ignore"):
        assert not a <= (a + b) / 2.0 < b
    d = two_class([[a, 0], [a, 0], [b, 1], [b, 1]])
    if weights is not None:
        d = d.with_weights(weights)
    with np.errstate(over="ignore"):
        m = fit_tree(d, TreeParams(min_instances_per_leaf=1))
    assert m.root.threshold == a
    assert m.predict_prob_batch(d.values).tolist() == [1.0, 1.0, 0.0, 0.0]


def test_deterministic_refit_bitwise():
    d = gaussian_dataset(np.array([[0.0, 0.0], [1.0, 1.0]]), per_class=40, seed=7)
    m1 = fit_tree(d)
    m2 = fit_tree(d)

    def dump(node):
        if isinstance(node, _Leaf):
            return ("L", node.w_first, node.w_second)
        return ("N", node.attr, node.threshold, dump(node.left), dump(node.right))

    assert dump(m1.root) == dump(m2.root)


def test_depth_bounded_by_instances():
    d = gaussian_dataset(np.array([[0.0], [0.3]]), per_class=30, spread=1.0, seed=8)
    m = fit_tree(d, TreeParams(min_instances_per_leaf=1, prune=False))
    assert m.depth() <= d.n_instances


def test_splits_do_not_increase_impurity():
    # on continuous data every accepted split has positive gain
    rng = np.random.default_rng(9)
    for trial in range(5):
        d = gaussian_dataset(rng.normal(size=(2, 3)), per_class=25, seed=20 + trial)
        m = fit_tree(d, TreeParams(prune=False))

        def entropy(w0, w1):
            tot = w0 + w1
            out = 0.0
            for w in (w0, w1):
                if w > 0:
                    out -= (w / tot) * np.log2(w / tot)
            return tot * out

        def check(node):
            if isinstance(node, _Leaf):
                return
            parent = entropy(node.w_first, node.w_second)
            child_sum = entropy(node.left.w_first, node.left.w_second) + entropy(
                node.right.w_first, node.right.w_second
            )
            assert parent - child_sum > 1e-9
            check(node.left)
            check(node.right)

        check(m.root)


def test_pruning_shrinks_noisy_tree():
    rng = np.random.default_rng(10)
    xs = rng.normal(size=200)
    labels = (rng.random(200) < 0.5).astype(int)  # pure noise
    d = simple_dataset(xs, labels)
    unpruned = fit_tree(d, TreeParams(prune=False))
    pruned = fit_tree(d, TreeParams())
    assert pruned.n_nodes() <= 0.6 * unpruned.n_nodes()


def test_pruning_collapses_unhelpful_split():
    # both sides of the best split predict the same class; the upper
    # confidence bound favors the single leaf
    xs = [0.0] * 50 + [1.0] * 19
    labels = [0] * 30 + [1] * 20 + [0] * 10 + [1] * 9
    d = simple_dataset(xs, labels)
    assert fit_tree(d, TreeParams(prune=False)).n_nodes() == 3
    assert fit_tree(d, TreeParams()).n_nodes() == 1


def test_pruning_keeps_real_structure():
    d = gaussian_dataset(np.array([[0.0, 0.0], [4.0, 4.0]]), per_class=50, seed=11)
    m = fit_tree(d)
    acc = np.mean((m.predict_prob_batch(d.values) >= 0.5) == (d.class_indices() == 0))
    assert acc > 0.95


def test_add_errs_matches_c45_convention():
    # e = 0 base case: N (1 - CF^(1/N))
    assert add_errs(10.0, 0.0, 0.25) == pytest.approx(10 * (1 - 0.25 ** 0.1))
    # high end clamps to N - e
    assert add_errs(10.0, 9.8, 0.25) == pytest.approx(0.2)
    # interior values stay positive and below N
    v = add_errs(20.0, 5.0, 0.25)
    assert 0 < v < 20


def _ref_add_errs(n, e, cf):
    # the square root taken by numpy, as before add_errs used math.sqrt
    if n <= 0:
        return 0.0
    if e < 1:
        base = n * (1.0 - cf ** (1.0 / n))
        if e == 0:
            return base
        return base + e * (_ref_add_errs(n, 1.0, cf) - base)
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    z = _upper_z(cf)
    f = (e + 0.5) / n
    r = (f + z * z / (2.0 * n) + z * np.sqrt(f / n - f * f / n + z * z / (4 * n * n))) / (
        1.0 + z * z / n
    )
    return r * n - e


def test_add_errs_matches_numpy_sqrt_form_bitwise():
    # both square roots are correctly rounded, so every branch agrees bit
    # for bit; n and e run over counts and over fractional weights
    rng = np.random.default_rng(12)
    ns = [0.5, 1.0, 2.0, 3.0, 7.5, 10.0, 33.0, 100.0, 1234.0, 9890.0, *rng.uniform(0.1, 5000, 40)]
    checked = 0
    for cf in (0.001, 0.05, 0.1, 0.25, 1.0 / 3.0, 0.5):
        for n in ns:
            es = [0.0, 0.25, 0.5, 0.999, 1.0, n / 2, n - 0.5, n, *rng.uniform(0, n, 10)]
            for e in es:
                got, want = add_errs(float(n), float(e), cf), _ref_add_errs(float(n), float(e), cf)
                assert float(got).hex() == float(want).hex(), (n, e, cf)
                checked += 1
    assert checked == 6 * len(ns) * 18


def test_upper_z_at_the_default_confidence_is_scipys_bit_for_bit():
    # every recorded tree is pruned at cf = 0.25
    assert _upper_z(0.25) == scipy.special.ndtri(0.75)


def test_upper_z_within_8_ulp_of_scipy():
    # the standard library's inverse normal CDF (Wichura's AS241) against
    # scipy's Cephes ndtri: measured at most 6 ulp apart over this grid,
    # and bit-equal in 68,130 of its 220,000 values
    rng = np.random.default_rng(0)
    grid = np.concatenate([
        np.linspace(0.0, 0.5, 200_001)[1:],
        rng.uniform(0.0, 0.5, 10_000),
        np.logspace(-16, math.log10(0.5), 10_000),
    ])
    # __wrapped__ skips the cache, which would only churn over this grid
    got = np.array([_upper_z.__wrapped__(float(cf)) for cf in grid])
    want = scipy.special.ndtri(1.0 - grid)
    ulps = np.abs(got - want) / np.spacing(np.abs(want))
    assert ulps.max() <= 8, (ulps.max(), grid[ulps.argmax()])


@pytest.mark.parametrize("cf", [5e-17, 1e-20])
def test_confidence_where_one_minus_cf_rounds_to_one_is_rejected(cf):
    # the bound's deviate is infinite there, which would stop pruning just
    # where a smaller cf asks for more of it
    assert 1.0 - cf == 1.0
    with pytest.raises(InvalidParam) as err:
        TreeParams(pruning_confidence=cf)
    assert err.value.field == "pruning_confidence"


def test_tiny_accepted_confidence_still_prunes(glass):
    # 1 - 1e-16 is the float just below 1, so the deviate is finite
    assert 1.0 - 1e-16 < 1.0
    assert math.isfinite(_upper_z(1e-16))
    d = glass.relabel_binary({0, 1, 2})
    unpruned = fit_tree(d, TreeParams(prune=False))
    assert fit_tree(d, TreeParams(pruning_confidence=1e-16)).n_nodes() < unpruned.n_nodes()


def test_tree_encoding_mismatch():
    from nested_dichotomies.errors import EncodingMismatch

    d = simple_dataset([0.0, 1.0, 2.0, 3.0], [0, 0, 1, 1])
    m = fit_tree(d, TreeParams(min_instances_per_leaf=1, prune=False))
    with pytest.raises(EncodingMismatch):
        m.predict_prob_batch(np.array([1.0, 0.0, 5.0]))


def test_weighted_instances_change_leaf_frequencies():
    attrs = [AttributeSpec("x"), AttributeSpec("c", ("a", "b"))]
    values = np.array([[0.0, 0.0], [0.0, 1.0]])
    d = Dataset(attrs, values, 1, weights=np.array([3.0, 1.0]))
    m = fit_tree(d, TreeParams(min_instances_per_leaf=1, prune=False))
    assert m.predict_prob_batch(np.array([0.0, 0.0])) == pytest.approx([0.75])


# -- oracle: a per-attribute split search -----------------------------------
#
# ``_ref_fit`` grows a tree the direct way: at every node, one stable
# argsort of the float values and one cumulative-sum pass per numeric
# attribute, copying the node's rows for each child, and prunes it by
# re-summing each subtree's leaf errors.  The presorted search over order
# codes and the one-pass pruning must give the same model text, bit for
# bit.


def _ref_xlog2x(a):
    a = np.asarray(a, dtype=np.float64)
    out = np.zeros_like(a)
    pos = a > 0
    out[pos] = a[pos] * np.log2(a[pos])
    return out


def _ref_ent(w_first, w_second):
    return _ref_xlog2x(w_first + w_second) - _ref_xlog2x(w_first) - _ref_xlog2x(w_second)


def _ref_argbest(gains):
    top = gains.max()
    return int(np.flatnonzero(gains >= top - _EPS)[0])


def _ref_best_numeric(col, target, weights, min_leaf):
    order = np.argsort(col, kind="stable")
    v = col[order]
    boundaries = np.flatnonzero(v[:-1] < v[1:])
    if boundaries.size == 0:
        return None
    w = weights[order]
    wt = w * target[order]
    cw = np.cumsum(w)[boundaries]
    cw1 = np.cumsum(wt)[boundaries]
    total_w = w.sum()
    total_1 = wt.sum()
    ok = (cw >= min_leaf) & (total_w - cw >= min_leaf)
    if not ok.any():
        return None
    cw, cw1 = cw[ok], cw1[ok]
    boundaries = boundaries[ok]
    parent = _ref_ent(total_1, total_w - total_1)
    children = _ref_ent(cw1, cw - cw1) + _ref_ent(
        total_1 - cw1, (total_w - cw) - (total_1 - cw1)
    )
    gains = parent - children
    split_info = _ref_xlog2x(total_w) - _ref_xlog2x(cw) - _ref_xlog2x(total_w - cw)
    best = _ref_argbest(gains)
    i = boundaries[best]
    return float(gains[best]), float(split_info[best]), (v[i] + v[i + 1]) / 2.0


def _ref_best_nominal(col, target, weights, n_values, min_leaf):
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
    parent = _ref_ent(total_1, total_w - total_1)
    children = _ref_ent(lw1, lw - lw1) + _ref_ent(
        total_1 - lw1, (total_w - lw) - (total_1 - lw1)
    )
    gains = parent - children
    split_info = _ref_xlog2x(total_w) - _ref_xlog2x(lw) - _ref_xlog2x(total_w - lw)
    best = _ref_argbest(gains)
    return float(gains[best]), float(split_info[best]), float(idx[best])


def _ref_grow(values, target, weights, feature_cols, nominal_sizes, params):
    w1 = float(weights @ target)
    w_total = float(weights.sum())
    w2 = w_total - w1
    min_leaf = float(params.min_instances_per_leaf)
    if w1 <= 0 or w2 <= 0 or w_total < 2 * min_leaf:
        return _Leaf(w1, w2)
    candidates = []
    for attr in feature_cols:
        col = values[:, attr]
        if nominal_sizes[attr]:
            cand = _ref_best_nominal(col, target, weights, nominal_sizes[attr], min_leaf)
        else:
            cand = _ref_best_numeric(col, target, weights, min_leaf)
        if cand is not None:
            candidates.append((attr, *cand))
    if not candidates:
        return _Leaf(w1, w2)
    gain_floor = _EPS * max(1.0, w_total)
    positive = [c for c in candidates if c[1] > gain_floor]
    if positive:
        def score(g, si):
            if not params.use_gain_ratio:
                return g
            return g / si if si > _EPS else 0.0

        scores = [score(g / w_total, si / w_total) for _, g, si, _ in positive]
        top = max(scores)
        tied = [c for s, c in zip(scores, positive) if s >= top - _EPS]
    else:
        tied = candidates
    attr, _gain, _si, thr = min(tied, key=lambda c: (c[0], c[3]))
    col = values[:, attr]
    go_left = col == thr if nominal_sizes[attr] else col <= thr

    def grow(mask):
        return _ref_grow(
            values[mask], target[mask], weights[mask], feature_cols, nominal_sizes, params
        )

    return _Node(attr, thr, bool(nominal_sizes[attr]), grow(go_left), grow(~go_left), w1, w2)


def _ref_pessimistic_errors(node, cf):
    if isinstance(node, _Leaf):
        n = node.w_first + node.w_second
        e = min(node.w_first, node.w_second)
        return e + add_errs(n, e, cf)
    return _ref_pessimistic_errors(node.left, cf) + _ref_pessimistic_errors(node.right, cf)


def _ref_prune(node, cf):
    # re-walks each subtree once per ancestor to sum its leaves' errors
    if isinstance(node, _Leaf):
        return node
    node.left = _ref_prune(node.left, cf)
    node.right = _ref_prune(node.right, cf)
    n = node.w_first + node.w_second
    e = min(node.w_first, node.w_second)
    as_leaf = e + add_errs(n, e, cf)
    subtree = _ref_pessimistic_errors(node.left, cf) + _ref_pessimistic_errors(node.right, cf)
    if as_leaf <= subtree + 0.1:
        return _Leaf(node.w_first, node.w_second)
    return node


def _ref_fit(d, params):
    lo, hi, target = binary_class_info(d)
    feature_cols = tuple(j for j in range(d.n_attributes) if j != d.class_attribute)
    nominal_sizes = tuple(len(s.values) if s.is_nominal else 0 for s in d.attributes)
    root = _ref_grow(d.values, target, d.weights, feature_cols, nominal_sizes, params)
    if params.prune:
        root = _ref_prune(root, params.pruning_confidence)
    return TreeModel(root, d.attributes, d.layout, (lo, hi))


_FRACTIONS = (0.1, 0.25, 1.0 / 3.0, 0.5, 0.7, 1.0, 1.0, 1.5, 2.0, 3.0)


@st.composite
def _tree_problems(draw, unit=False):
    n = draw(st.integers(2, 60))
    kinds = draw(st.lists(st.sampled_from(("numeric", "nominal")), min_size=1, max_size=4))
    class_at = draw(st.integers(0, len(kinds)))
    attrs, cols = [], []
    for j, kind in enumerate(kinds):
        if kind == "nominal":
            # past 8 values a value count's sum leaves numpy's 8-wide
            # pairwise block
            size = draw(st.integers(2, 12))
            attrs.append(AttributeSpec(f"n{j}", tuple(f"v{i}" for i in range(size))))
            cols.append(draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n)))
        else:
            # a few distinct values, so ties are the rule
            pool = draw(st.lists(
                st.sampled_from((-1.5, 0.0, 0.1, 0.2, 0.3, 2.0, 7.25)),
                min_size=1, max_size=4, unique=True,
            ))
            attrs.append(AttributeSpec(f"x{j}"))
            cols.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if len(set(labels)) == 1:
        labels[0] ^= 1  # both classes present
    attrs.insert(class_at, AttributeSpec("class", ("a", "b")))
    cols.insert(class_at, labels)
    weights = None if unit else draw(st.lists(st.sampled_from(_FRACTIONS), min_size=n, max_size=n))
    d = Dataset(attrs, np.asarray(cols, dtype=float).T, class_at, weights=weights)
    params = TreeParams(
        min_instances_per_leaf=draw(st.integers(1, 5)),
        use_gain_ratio=draw(st.booleans()),
        prune=draw(st.booleans()),
    )
    return d, params


def _ref_lines(model):
    # the recursive walks that the model's stack-based ones replaced
    lines = ["tree", f"classes {model.class_pair[0]} {model.class_pair[1]}"]

    def walk(node, depth):
        pad = "  " * depth
        if isinstance(node, _Leaf):
            lines.append(f"{pad}leaf {node.w_first!r} {node.w_second!r}")
            return
        spec = model.attributes[node.attr]
        if node.nominal:
            lines.append(f"{pad}split {spec.name} == {spec.values[int(node.threshold)]}")
        else:
            lines.append(f"{pad}split {spec.name} <= {node.threshold!r}")
        walk(node.left, depth + 1)
        walk(node.right, depth + 1)

    walk(model.root, 0)
    return lines


def _ref_size(node):
    """(node count, depth)"""
    if isinstance(node, _Leaf):
        return 1, 0
    (n_left, d_left), (n_right, d_right) = _ref_size(node.left), _ref_size(node.right)
    return 1 + n_left + n_right, 1 + max(d_left, d_right)


def _assert_fits_reference(d, params):
    got, want = fit_tree(d, params), _ref_fit(d, params)
    assert got.to_lines() == _ref_lines(want)
    assert (got.n_nodes(), got.depth()) == _ref_size(want.root)


@settings(max_examples=300, deadline=None)
@given(_tree_problems())
def test_presorted_search_matches_per_attribute_reference(problem):
    _assert_fits_reference(*problem)


@settings(max_examples=300, deadline=None)
@given(_tree_problems(unit=True))
def test_presorted_search_matches_per_attribute_reference_unit_weights(problem):
    # unit weights take the counting path
    _assert_fits_reference(*problem)


def _root_tests(grower, d, target):
    """The root's best test per attribute, as ``(attr, gain, split info,
    threshold)`` tuples, each threshold as growth forms the chosen one's."""
    found = grower._candidates(grower._root(), float(d.weights @ target))
    if found is None:
        return []
    where, (a, pos, _, (gains, split_info)) = found
    slots, best = grower._best_tests(a, gains)
    return [
        (
            grower.slot_attr[slot],
            gains[i],
            split_info[i],
            grower._threshold(where, slot, int(pos[i]))[0],
        )
        for slot, i in zip(slots.tolist(), best.tolist())
    ]


def _bits(cands):
    return [(attr, *(float(x).hex() for x in c)) for attr, *c in cands]


def _assert_root_candidates_match(d, params):
    # gains and split info, not only the chosen split: a last-bit change in
    # the sums would rarely show in the model text
    _, _, target = binary_class_info(d)
    grower = tree_module._grower(d, target, params)
    assert grower.counts == bool((d.weights == 1.0).all())
    got = _root_tests(grower, d, target)
    min_leaf = float(params.min_instances_per_leaf)
    want = []
    for attr in grower.numeric:
        cand = _ref_best_numeric(d.values[:, attr], target, d.weights, min_leaf)
        if cand is not None:
            want.append((attr, *cand))
    for attr in grower.nominal:
        n_values = len(d.attributes[attr].values)
        cand = _ref_best_nominal(d.values[:, attr], target, d.weights, n_values, min_leaf)
        if cand is not None:
            want.append((attr, *cand))
    assert _bits(got) == _bits(want)
    assert all(type(c[3]) is np.float64 for c in got)  # model text prints the type


@settings(max_examples=200, deadline=None)
@given(_tree_problems())
def test_root_candidates_match_reference_bitwise(problem):
    _assert_root_candidates_match(*problem)


@settings(max_examples=200, deadline=None)
@given(_tree_problems(unit=True))
def test_root_candidates_match_reference_bitwise_unit_weights(problem):
    _assert_root_candidates_match(*problem)


def _pendigits_train(rng):
    # a training set of pendigits' size in 10-fold cross-validation
    d = load_uci("pendigits")
    return d.subset(np.sort(rng.permutation(d.n_instances)[:9890]))


def _pendigits_root():
    # the training set's ten classes relabeled to two, as at the root of an
    # RPND tree
    rng = np.random.default_rng(5)
    train = _pendigits_train(rng)
    return train.relabel_binary(tuple(rng.choice(10, size=5, replace=False).tolist()))


# sha256 of build_nd(...).to_model_text() on the pendigits training set, per
# (strategy, seed, params); every node fit takes the class-count histograms
_PENDIGITS_ND_DIGESTS = {
    ("random_pair", 1, "default"):
        "1b24ea20947ea90ace3e654566d232b9f6389b84463462ef015e2f97278c3127",
    ("random_pair", 2, "default"):
        "f7b930759652f14741f044d2b3bc77fed1769e77064cdac1c30727f738523ca2",
    ("random", 1, "default"):
        "5e6734e59e2c2b8f1c5768a3f6f4a6936995c2ed6a3c03f7e1eae91b4d4385d7",
    ("random", 2, "default"):
        "494ee527dddf3210e6353ff93107af1cfee79ee0e21653ed8d128a93d2dc2937",
    ("random_pair", 1, "unpruned"):
        "f2850d46aa8677d568f97461ca4b5dd64cf13484ea8f8836e82959d2846a37c3",
    ("random", 1, "unpruned"):
        "01add818820150a2c81fc4818e0ffe77478c39363bb454211af9a4298c721f43",
}
_DIGEST_PARAMS = {
    "default": TreeParams(),
    "unpruned": TreeParams(min_instances_per_leaf=1, prune=False),
}


@pytest.mark.parametrize("key", list(_PENDIGITS_ND_DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_pendigits_histogram_trees_keep_their_digests(key, monkeypatch):
    # the golden dumps hold no fit large enough for the histograms, so these
    # digests pin that path's trees, model text bytes included
    strategy, seed, params = key
    paths = []
    choose = tree_module._grower

    def recording(d, target, tree_params):
        grower = choose(d, target, tree_params)
        paths.append(_path(grower))
        return grower

    monkeypatch.setattr(tree_module, "_grower", recording)
    train = _pendigits_train(np.random.default_rng(5))
    nd = build_nd(train, SubsetSelector(strategy), _DIGEST_PARAMS[params], seed)
    text = nd.to_model_text()
    # at least one fit per internal node, each of them on histograms
    assert len(paths) >= 9 and set(paths) == {"histogram"}
    assert hashlib.sha256(text.encode()).hexdigest() == _PENDIGITS_ND_DIGESTS[key]


def _segment_pair():
    return load_uci("segment").restrict_to_classes((2, 4))  # foliage, window


def _optdigits_node():
    # an RPND node of optdigits: six of its ten classes, split three and three
    return load_uci("optdigits").restrict_to_classes((0, 1, 3, 5, 8, 9)).relabel_binary((0, 3, 8))


def _zoo_pair():
    # nominal-heavy: the animal's name (100 values), fifteen booleans, and
    # one numeric attribute
    return load_uci("zoo").relabel_binary((0, 3, 5))


def _path(grower):
    if isinstance(grower, _HistogramGrower):
        return "histogram"
    return "lists" if grower.counts else "sums"


def _chosen_path(d, params=TreeParams()):
    return _path(tree_module._grower(d, binary_class_info(d)[2], params))


def _root_tests_and_model(d, params):
    """Which path the fit takes, the root's best tests as bits, and the
    fitted model's text, node count and depth."""
    _, _, target = binary_class_info(d)
    grower = tree_module._grower(d, target, params)
    model = fit_tree(d, params)
    return (
        _path(grower),
        _bits(_root_tests(grower, d, target)),
        model.to_lines(),
        (model.n_nodes(), model.depth()),
    )


_REAL_PARAMS = (TreeParams(), TreeParams(min_instances_per_leaf=1, use_gain_ratio=False))


@pytest.mark.parametrize("make", [_pendigits_root, _segment_pair], ids=["pendigits", "segment"])
def test_counting_matches_summing_on_real_node_sizes(make, monkeypatch):
    # thousands of rows a list: the sums leave numpy's 8- and 128-element
    # pairwise blocks, and both buffers of the lists are used many times
    d = make()
    assert (d.weights == 1.0).all() and d.n_instances in (9890, 660)
    _assert_root_candidates_match(d, TreeParams())
    for params in _REAL_PARAMS:
        counted = _root_tests_and_model(d, params)
        with monkeypatch.context() as patch:
            patch.setattr(tree_module, "_unit_weights", lambda weights: False)
            summed = _root_tests_and_model(d, params)
        assert counted[0] == ("histogram" if d.n_instances == 9890 else "lists")
        assert summed[0] == "sums"
        assert counted[1:] == summed[1:]
        assert len(counted[2]) > 20


def _force(path):
    """A stand-in for ``tree._grower`` that takes one counting path."""
    def grower(d, target, params):
        if path == "histogram":
            return _HistogramGrower(d, target, params, _cell_width(d))
        return _ListGrower(d, target, params, counts=True)
    return grower


def _assert_count_paths_agree(d, params):
    results = {}
    for path in ("histogram", "lists"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tree_module, "_grower", _force(path))
            results[path] = _root_tests_and_model(d, params)
        assert results[path][0] == path
    assert results["histogram"][1:] == results["lists"][1:]
    return results["histogram"][2]


@pytest.mark.parametrize(
    "make", [_pendigits_root, _optdigits_node, _zoo_pair], ids=["pendigits", "optdigits", "zoo"]
)
def test_histogram_and_list_counts_grow_the_same_trees(make):
    d = make()
    assert (d.weights == 1.0).all()
    for params in (*_REAL_PARAMS, TreeParams(min_instances_per_leaf=5, prune=False)):
        assert len(_assert_count_paths_agree(d, params)) > 10


@settings(max_examples=200, deadline=None)
@given(_tree_problems(unit=True))
def test_histogram_and_list_counts_agree_on_generated_problems(problem):
    _assert_count_paths_agree(*problem)


_BELOW, _ABOVE = [0] * 5 + [1] * 3, [0] * 2 + [1] * 6  # zero in the left or right class


@pytest.mark.parametrize(
    "xs, labels, threshold",
    [
        ([-1.0, -0.0, 0.0, -0.0, 0.0, 0.5, 0.5, 1.0], _BELOW, "np.float64(0.25)"),
        ([-1.0, -1.0, -0.0, 0.0, -0.0, 0.0, 0.5, 1.0], _ABOVE, "np.float64(-0.5)"),
        # the midpoint of zero and 5e-324 rounds to zero
        ([-1.0, -0.0, 0.0, -0.0, 0.0, 5e-324, 5e-324, 1.0], _BELOW, "np.float64(0.0)"),
        # that of -5e-324 and zero rounds to -0.0, which leaves no row right
        ([-1.0, -5e-324, -0.0, 0.0, -0.0, 0.0, 0.5, 1.0], _ABOVE, "np.float64(-5e-324)"),
    ],
    ids=["zero-left", "zero-right", "rounds-to-zero", "rounds-to-minus-zero"],
)
def test_signed_zeros_share_a_code_on_both_count_paths(xs, labels, threshold):
    # -0.0 and 0.0 share one code, so the histogram's code-to-value table
    # holds one of them where the lists read the rows beside the boundary;
    # the thresholds next to zero are the same bits in every row order
    rng = np.random.default_rng(0)
    for _ in range(4):
        perm = rng.permutation(len(xs))
        d = simple_dataset(np.array(xs)[perm], np.array(labels)[perm])
        zeros = d.codes[d.values[:, 0] == 0.0, 0]
        assert zeros.size == 4 and (zeros == zeros[0]).all()
        lines = _assert_count_paths_agree(d, TreeParams(min_instances_per_leaf=1, prune=False))
        assert lines[2] == f"split x <= {threshold}"


@pytest.mark.parametrize("odd", [2.0, 0.5])
def test_near_unit_weights_take_the_summing_path(odd):
    # the path follows the fit's data: histograms when it has no more cells
    # (features x the widest code range) than rows, as a pendigits training
    # set (16 x 101 cells, 9,890 rows); the lists when it has more, as the
    # segment pair (19 x 1,899 cells, 660 rows); sums for weights other than 1
    pendigits, pair = _pendigits_root(), _segment_pair()
    assert _chosen_path(pendigits) == "histogram" and _cell_width(pendigits) == 101
    assert _chosen_path(pair) == "lists"
    # a subset keeps its parent's codes, so its cells count their range
    x = np.arange(10.0)
    ten = simple_dataset(x, x % 2)
    assert _chosen_path(ten) == "histogram"
    assert _chosen_path(ten.subset(np.arange(1, 10))) == "lists"
    for d in (pendigits, pair, ten):
        weights = np.ones(d.n_instances)
        weights[7] = odd
        assert _chosen_path(d.with_weights(weights)) == "sums"

    weights = np.ones(pair.n_instances)
    weights[17] = odd
    d = pair.with_weights(weights)
    for params in _REAL_PARAMS:
        _assert_root_candidates_match(d, params)
        _assert_fits_reference(d, params)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_presorted_search_matches_reference_on_vowel(vowel, seed):
    # nodes of hundreds of rows: sums run past numpy's pairwise-sum block
    rng = np.random.default_rng(seed)
    pair = vowel.restrict_to_classes(rng.choice(vowel.n_classes, size=4, replace=False))
    side = tuple(np.unique(pair.class_indices())[:2])
    d = pair.relabel_binary(side).with_weights(rng.choice(_FRACTIONS, size=pair.n_instances))
    for params in (TreeParams(), TreeParams(min_instances_per_leaf=1, use_gain_ratio=False)):
        _assert_root_candidates_match(d, params)
        _assert_fits_reference(d, params)


def test_wide_codes_fit_like_the_float_reference():
    # more than 65,536 distinct values make the codes uint32; the label
    # flips every 2,500 value units, so splits fall on codes past 65,535
    rng = np.random.default_rng(3)
    n = 70_000
    x = rng.permutation(n) * 0.5 - 1000.0
    few = rng.integers(0, 4, size=n).astype(float)
    labels = ((x + 1000.0) // 2500.0 % 2 != (few == 0)).astype(float)
    attrs = [AttributeSpec("x"), AttributeSpec("few"), AttributeSpec("class", ("a", "b"))]
    d = Dataset(attrs, np.column_stack([x, few, labels]), 2)
    assert d.codes.dtype == np.uint32 and d.codes[:, 0].max() == n - 1
    _assert_fits_reference(d, TreeParams())


def test_inherited_codes_fit_like_fresh_ones(vowel):
    # a subset's codes are its parent's, with gaps; a dataset built from
    # the same rows ranks them afresh
    rng = np.random.default_rng(4)
    pair = vowel.restrict_to_classes((0, 1))
    idx = rng.integers(0, pair.n_instances, size=pair.n_instances)
    inherited = pair.subset(idx)
    fresh = Dataset(pair.attributes, pair.values[idx], pair.class_attribute, pair.weights[idx])
    assert not np.array_equal(inherited.codes, fresh.codes)
    for params in (TreeParams(), TreeParams(min_instances_per_leaf=1, prune=False)):
        assert fit_tree(inherited, params).to_lines() == fit_tree(fresh, params).to_lines()


def _walk_prob(node, row):
    while isinstance(node, _Node):
        x = row[node.attr]
        node = node.left if (x == node.threshold if node.nominal else x <= node.threshold) else node.right
    return node.p_first


def test_deep_tree_fits_prunes_dumps_and_predicts():
    # no split has positive gain, so the fallback peels off two rows per
    # level: depth 1,333, past the interpreter's recursion limit
    x = np.arange(4000)
    d = simple_dataset(x, x % 2)
    deep = fit_tree(d, TreeParams(prune=False))
    assert (deep.n_nodes(), deep.depth()) == (2667, 1333)
    lines = deep.to_lines()
    assert len(lines) == 2 + deep.n_nodes()
    assert max(len(line) - len(line.lstrip(" ")) for line in lines) == 2 * deep.depth()
    assert lines[2:4] == ["split x <= np.float64(2.5)", "  leaf 2.0 1.0"]
    rows = d.values[::7]
    want = [_walk_prob(deep.root, row) for row in rows]
    assert deep.predict_prob_batch(rows).tolist() == want
    assert {1 / 3, 2 / 3} <= set(want)
    pruned = fit_tree(d)
    assert pruned.to_lines() == ["tree", "classes 0 1", "leaf 2000.0 2000.0"]
    assert np.array_equal(pruned.predict_prob_batch(d.values), np.full(4000, 0.5))
