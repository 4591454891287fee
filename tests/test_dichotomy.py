import gc
import warnings
import weakref
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussian_dataset, load_uci, small_datasets, structure
from nested_dichotomies.data import AttributeSpec, Dataset, bootstrap_sample, parse_arff
from nested_dichotomies.dichotomy import NDNode, NestedDichotomy, build_nd
from nested_dichotomies.errors import EncodingMismatch, NDError
from nested_dichotomies.learners import ConstantModel, LogisticParams, TreeParams
from nested_dichotomies.selection import STRATEGIES, SubsetSelector


class StubModel:
    """Fixed-probability node model for product-rule tests."""

    def __init__(self, p_first: float):
        self.p_first = p_first

    def predict_prob_batch(self, rows):
        return np.full(np.atleast_2d(rows).shape[0], self.p_first)


def leaf(c):
    return NDNode((c,))


def four_class_data(seed=0, per_class=8):
    centers = np.array([[0, 0], [3, 0], [0, 3], [3, 3]], dtype=float)
    return gaussian_dataset(centers, per_class=per_class, spread=0.6, seed=seed)


def test_two_class_tree_single_internal_node():
    d = gaussian_dataset(np.array([[0.0], [4.0]]), per_class=10, seed=1)
    for strategy in ("random", "class_balanced", "centroid", "random_pair"):
        nd = build_nd(d, SubsetSelector(strategy), LogisticParams(), seed=3)
        assert not nd.root.is_leaf
        assert nd.root.left.is_leaf and nd.root.right.is_leaf
        assert len(nd.internal_nodes()) == 1


def test_leaf_and_internal_node_counts():
    for c in (3, 5, 7):
        d = gaussian_dataset(np.random.default_rng(c).normal(size=(c, 2)) * 4,
                             per_class=6, seed=c)
        nd = build_nd(d, SubsetSelector("random"), TreeParams(min_instances_per_leaf=1),
                      seed=11)
        leaves = []

        def walk(node):
            if node.is_leaf:
                leaves.append(node.class_subset[0])
            else:
                walk(node.left)
                walk(node.right)

        walk(nd.root)
        assert sorted(leaves) == list(range(c))
        assert len(nd.internal_nodes()) == c - 1


def test_random_strategy_reaches_all_15_structures():
    d = four_class_data(per_class=3)
    seen = set()
    for seed in range(10_000):
        nd = build_nd(d, SubsetSelector("random"),
                      TreeParams(min_instances_per_leaf=1, prune=False),
                      seed, structure_only=True)
        seen.add(structure(nd.root))
        if len(seen) == 15 and seed > 200:
            break
    assert len(seen) == 15  # published count of dichotomies for 4 classes


def test_fig_shape_product_rule():
    # root splits {1} off; right child splits {3} off; deepest splits {2},{4}
    root = NDNode(
        (0, 1, 2, 3),
        StubModel(0.6),
        leaf(0),
        NDNode(
            (1, 2, 3),
            StubModel(0.5),
            leaf(2),
            NDNode((1, 3), StubModel(0.25), leaf(1), leaf(3)),
        ),
    )
    nd = NestedDichotomy(root, ("c1", "c2", "c3", "c4"), 0, "stub")
    [dist] = nd.predict_distribution_batch(np.zeros(5))
    np.testing.assert_allclose(dist, [0.6, 0.05, 0.2, 0.15], atol=1e-15)


def test_all_half_probabilities_uniform():
    root = NDNode(
        (0, 1, 2, 3),
        StubModel(0.5),
        NDNode((0, 1), StubModel(0.5), leaf(0), leaf(1)),
        NDNode((2, 3), StubModel(0.5), leaf(2), leaf(3)),
    )
    nd = NestedDichotomy(root, tuple("abcd"), 0, "stub")
    np.testing.assert_allclose(nd.predict_distribution_batch(np.zeros(3)), [[0.25] * 4])


def random_stub_tree(rng, class_ids):
    if len(class_ids) == 1:
        return leaf(class_ids[0])
    cut = rng.integers(1, len(class_ids))
    shuffled = list(class_ids)
    rng.shuffle(shuffled)
    return NDNode(
        tuple(class_ids),
        StubModel(float(rng.random())),
        random_stub_tree(rng, sorted(shuffled[:cut])),
        random_stub_tree(rng, sorted(shuffled[cut:])),
    )


def brute_force_distribution(node, n_classes):
    out = np.zeros(n_classes)

    def walk(n, acc):
        if n.is_leaf:
            out[n.class_subset[0]] = acc
            return
        walk(n.left, acc * n.model.p_first)
        walk(n.right, acc * (1.0 - n.model.p_first))

    walk(node, 1.0)
    return out


def test_distribution_sums_to_one_and_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(300):
        c = int(rng.integers(2, 9))
        root = random_stub_tree(rng, list(range(c)))
        nd = NestedDichotomy(root, tuple(f"k{i}" for i in range(c)), 0, "stub")
        [dist] = nd.predict_distribution_batch(np.zeros(4))
        assert abs(dist.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(dist, brute_force_distribution(root, c), atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    strategy=st.sampled_from(STRATEGIES),
    tree=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_built_tree_distributions_are_probability_vectors(data, strategy, tree, seed):
    n_classes = data.draw(st.integers(2, 6))
    # some declared classes may have no rows: their nodes get constant models
    present = sorted(data.draw(st.sets(st.integers(0, n_classes - 1), min_size=2)))
    d = data.draw(small_datasets(present, n_classes))
    learner = TreeParams(min_instances_per_leaf=1) if tree else LogisticParams()
    nd = build_nd(d, SubsetSelector(strategy), learner, seed, class_ids=range(n_classes))
    cells = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40))
    rows = np.zeros((len(cells) // 2, 3))
    rows[:, :2] = np.reshape(cells[: 2 * len(rows)], (-1, 2))
    dists = nd.predict_distribution_batch(np.vstack([d.values, rows]))
    assert np.all(dists >= 0.0)
    assert np.all(np.abs(dists.sum(axis=1) - 1.0) <= 1e-12)


def test_predict_class_is_argmax_with_low_tie():
    root = NDNode((0, 1), StubModel(0.5), leaf(0), leaf(1))
    nd = NestedDichotomy(root, ("a", "b"), 0, "stub")
    assert nd.predict_class_batch(np.zeros(2)).tolist() == [0]  # exact tie: lowest index

    root2 = NDNode((0, 1), StubModel(0.4), leaf(0), leaf(1))
    nd2 = NestedDichotomy(root2, ("a", "b"), 0, "stub")
    assert nd2.predict_class_batch(np.zeros(2)).tolist() == [1]


def test_predict_class_agrees_with_distribution():
    d = four_class_data(seed=5, per_class=10)
    nd = build_nd(d, SubsetSelector("random_pair"), LogisticParams(), seed=2)
    rng = np.random.default_rng(0)
    rows = rng.normal(1.5, 2.0, size=(1000, d.n_attributes))
    dists = nd.predict_distribution_batch(rows)
    np.testing.assert_array_equal(
        nd.predict_class_batch(rows), np.argmax(dists, axis=1)
    )


def test_build_deterministic():
    d = four_class_data(seed=7)
    for strategy in ("random", "class_balanced", "random_pair"):
        a = build_nd(d, SubsetSelector(strategy), LogisticParams(), seed=13)
        b = build_nd(d, SubsetSelector(strategy), LogisticParams(), seed=13)
        assert structure(a.root) == structure(b.root)
        rows = d.values[:5]
        np.testing.assert_array_equal(
            a.predict_distribution_batch(rows), b.predict_distribution_batch(rows)
        )


def test_build_requires_two_classes():
    attrs = [AttributeSpec("x"), AttributeSpec("c", ("a", "b"))]
    d = Dataset(attrs, np.array([[0.0, 0.0]]), 1)
    with pytest.raises(NDError):
        build_nd(d, SubsetSelector("random"), LogisticParams(), seed=0)


def test_learner_failure_annotated_with_class_subset():
    from nested_dichotomies.errors import TrainingError

    d = four_class_data(seed=11)
    # an impossible convergence demand fails at the first trained node
    bad = LogisticParams(max_iterations=1, gradient_tolerance=1e-300)
    with pytest.raises(TrainingError) as err:
        build_nd(d, SubsetSelector("class_balanced"), bad, seed=1)
    assert err.value.class_subset == (0, 1, 2, 3)
    assert str(err.value).startswith("training failed at node (0, 1, 2, 3): ")


def test_missing_class_keeps_total_structure():
    # force a resample that drops at least one class, then verify the
    # tree still has one leaf per original class and predicts a proper
    # distribution over all of them
    d = gaussian_dataset(np.random.default_rng(3).normal(size=(6, 2)) * 3,
                         per_class=3, seed=9)
    class_ids = d.classes_present()
    for seed in range(40):
        sample = bootstrap_sample(d, seed)
        if len(sample.classes_present()) < 6:
            nd = build_nd(sample, SubsetSelector("random_pair"),
                          TreeParams(min_instances_per_leaf=1), seed, class_ids=class_ids)
            leaves = sorted(
                node.class_subset[0]
                for node in _all_nodes(nd.root)
                if node.is_leaf
            )
            assert leaves == list(range(6))
            [dist] = nd.predict_distribution_batch(d.values[:1])
            assert abs(dist.sum() - 1.0) < 1e-9
            break
    else:
        pytest.fail("no bootstrap dropped a class in 40 seeds")


_FIVE_CLASS_NAMES = tuple("abcde")

# a node with fewer than two classes of rows splits off its lowest class;
# each one-sided node holds a constant model at its empirical prior
_MISSING_CLASS_TREES = {
    ((2,), "centroid"): (
        "[a,b,c,d,e]\n  [a]\n  [b,c,d,e]\n    [b]\n    [c,d,e]\n"
        "      [c]\n      [d,e]\n        [d]\n        [e]\n",
        {(0, 1, 2, 3, 4): 0.0, (1, 2, 3, 4): 0.0, (2, 3, 4): 1.0, (3, 4): 0.5},
    ),
    ((2,), "random_pair"): (
        "[a,b,c,d,e]\n  [a]\n  [b,c,d,e]\n    [b]\n    [c,d,e]\n"
        "      [c]\n      [d,e]\n        [d]\n        [e]\n",
        {(0, 1, 2, 3, 4): 0.0, (1, 2, 3, 4): 0.0, (2, 3, 4): 1.0, (3, 4): 0.5},
    ),
    # the root splits on data; the absent classes join the first seed
    ((1, 3), "centroid"): (
        "[a,b,c,d,e]\n  [a,b,c,e]\n    [a]\n    [b,c,e]\n      [b]\n"
        "      [c,e]\n        [c]\n        [e]\n  [d]\n",
        {(0, 1, 2, 4): 0.0, (1, 2, 4): 1.0, (2, 4): 0.5},
    ),
    # ... or follow the vote-tie rule, with 0-0 votes
    ((1, 3), "random_pair"): (
        "[a,b,c,d,e]\n  [a,b,e]\n    [a]\n    [b,e]\n      [b]\n"
        "      [e]\n  [c,d]\n    [c]\n    [d]\n",
        {(0, 1, 4): 0.0, (1, 4): 1.0, (2, 3): 0.0},
    ),
}


@pytest.mark.parametrize(
    "classes, strategy",
    sorted(_MISSING_CLASS_TREES),
    ids=lambda key: "+".join(map(str, key)) if isinstance(key, tuple) else key,
)
def test_nodes_missing_classes_split_off_their_lowest_class(classes, strategy):
    attrs = [AttributeSpec("x"), AttributeSpec("class", _FIVE_CLASS_NAMES)]
    rows = [[3.0 * c + 0.1 * i, c] for c in classes for i in range(4)]
    d = Dataset(attrs, np.array(rows), 1)
    nd = build_nd(d, SubsetSelector(strategy), LogisticParams(), 7, class_ids=range(5))
    text, constants = _MISSING_CLASS_TREES[classes, strategy]
    assert nd.to_text() == text
    for node in nd.internal_nodes():
        if node.class_subset in constants:
            assert isinstance(node.model, ConstantModel)
            assert node.model.p_first == constants[node.class_subset]
        else:
            assert not isinstance(node.model, ConstantModel)


def _all_nodes(root):
    out = [root]
    if not root.is_leaf:
        out += _all_nodes(root.left) + _all_nodes(root.right)
    return out


def test_class_balanced_height():
    for c in (4, 6, 8):
        d = gaussian_dataset(np.random.default_rng(c).normal(size=(c, 2)) * 4,
                             per_class=4, seed=c)
        nd = build_nd(d, SubsetSelector("class_balanced"),
                      TreeParams(min_instances_per_leaf=1), seed=1)

        def height(node):
            if node.is_leaf:
                return 0
            return 1 + max(height(node.left), height(node.right))

        assert height(nd.root) == int(np.ceil(np.log2(c)))
        for node in nd.internal_nodes():
            assert abs(len(node.left.class_subset) - len(node.right.class_subset)) <= 1


def test_text_and_dot_exports():
    d = four_class_data(seed=8)
    nd = build_nd(d, SubsetSelector("class_balanced"), LogisticParams(), seed=4)
    text = nd.to_text()
    assert text.count("[") == 7  # 4 leaves + 3 internal
    dot = nd.to_dot()
    assert dot.startswith("digraph")
    assert dot.count("->") == 6
    model_text = nd.to_model_text()
    assert "node root" in model_text
    assert "logistic" in model_text


def _ref_walks(nd):
    """The recursive walks that ``_preorder`` replaced: internal nodes,
    ``to_text``, ``to_model_text`` and ``to_dot``."""
    internal, text, model = [], [], [
        f"nested_dichotomy strategy={nd.strategy_id} seed={nd.build_seed}",
        "classes " + ",".join(nd.class_names),
    ]
    dot = ["digraph nested_dichotomy {", "  node [shape=ellipse];"]
    visited = []

    def walk(node, path):
        names = ",".join(nd.class_names[c] for c in node.class_subset)
        text.append("  " * len(path) + f"[{names}]")
        my_id = len(visited)
        visited.append(node)
        label = ", ".join(nd.class_names[c] for c in node.class_subset)
        dot.append(f'  n{my_id} [label="{label}"];')
        tag = "".join(map(str, path)) or "root"
        subset = ",".join(str(c) for c in node.class_subset)
        if node.is_leaf:
            model.append(f"leaf {tag} classes={subset}")
            return my_id
        internal.append(node)
        model.append(f"node {tag} classes={subset}")
        model.extend("  " + line for line in node.model.to_lines())
        for branch, child in enumerate((node.left, node.right)):
            child_id = walk(child, path + (branch,))
            dot.append(f"  n{my_id} -> n{child_id};")
        return my_id

    walk(nd.root, ())
    dot.append("}")
    return (
        internal,
        "\n".join(text) + "\n",
        "\n".join(model) + "\n",
        "\n".join(dot) + "\n",
    )


@pytest.mark.parametrize("strategy", ["random", "class_balanced", "random_pair"])
def test_preorder_walks_match_recursive_walks(strategy):
    rng = np.random.default_rng(5)
    d = gaussian_dataset(rng.normal(size=(7, 2)) * 4, per_class=6, seed=5)
    for seed in range(4):
        nd = build_nd(d, SubsetSelector(strategy), TreeParams(min_instances_per_leaf=1), seed)
        internal, text, model, dot = _ref_walks(nd)
        assert [id(n) for n in nd.internal_nodes()] == [id(n) for n in internal]
        assert nd.to_text() == text
        assert nd.to_model_text() == model
        assert nd.to_dot() == dot


_ZOO_DOT = """\
digraph nested_dichotomy {
  node [shape=ellipse];
  n0 [label="mammal, bird, reptile, fish, amphibian, insect, invertebrate"];
  n1 [label="mammal"];
  n0 -> n1;
  n2 [label="bird, reptile, fish, amphibian, insect, invertebrate"];
  n3 [label="bird, reptile, fish"];
  n4 [label="fish"];
  n3 -> n4;
  n5 [label="bird, reptile"];
  n6 [label="bird"];
  n5 -> n6;
  n7 [label="reptile"];
  n5 -> n7;
  n3 -> n5;
  n2 -> n3;
  n8 [label="amphibian, insect, invertebrate"];
  n9 [label="insect"];
  n8 -> n9;
  n10 [label="amphibian, invertebrate"];
  n11 [label="amphibian"];
  n10 -> n11;
  n12 [label="invertebrate"];
  n10 -> n12;
  n8 -> n10;
  n2 -> n8;
  n0 -> n2;
}
"""


def test_zoo_dot_export_is_unchanged(zoo):
    # written by the recursive walk that the preorder walk replaced
    nd = build_nd(zoo, SubsetSelector("random_pair"), LogisticParams(), 3)
    assert nd.to_dot() == _ZOO_DOT


def test_dot_labels_escape_quotes_and_backslashes():
    # unescaped, the quote would end a label early and the trailing
    # backslash would escape its closing quote
    d = parse_arff(
        "@relation r\n@attribute x numeric\n@attribute class {'a\"b',c,d\\e\\}\n"
        "@data\n0,'a\"b'\n1,c\n2,d\\e\\\n"
    )
    assert d.class_names == ('a"b', "c", "d\\e\\")
    nd = build_nd(d, SubsetSelector("class_balanced"), LogisticParams(), 0)
    labels = [line for line in nd.to_dot().splitlines() if "label=" in line]
    assert labels == [
        r'  n0 [label="a\"b, c, d\\e\\"];',
        r'  n1 [label="a\"b, d\\e\\"];',
        r'  n2 [label="d\\e\\"];',
        r'  n3 [label="a\"b"];',
        r'  n4 [label="c"];',
    ]


@lru_cache(maxsize=None)
def _uci_nd(name: str, learner: str) -> NestedDichotomy:
    params = LogisticParams(max_iterations=1000) if learner == "logistic" else TreeParams()
    return build_nd(load_uci(name), SubsetSelector("random_pair"), params, seed=5)


@pytest.mark.parametrize("learner", ["logistic", "tree"])
@pytest.mark.parametrize(
    "name, column, bad",
    [
        ("glass", 0, np.nan),  # the first numeric column
        ("glass", 0, -np.inf),
        ("zoo", 1, 99.0),  # "hair", a two-valued nominal column
        ("zoo", 1, 1.5),
        ("zoo", 1, -1.0),
        ("zoo", 1, np.nan),
        ("zoo", 0, 100.0),  # "animal", whose 100 values have indices 0-99
    ],
)
def test_prediction_rejects_non_finite_and_undeclared_values(name, column, bad, learner):
    d = load_uci(name)
    nd = _uci_nd(name, learner)
    row = d.values[0].copy()
    want = nd.predict_distribution_batch(row)
    row[d.class_attribute] = np.nan  # the class column is not checked
    assert nd.predict_distribution_batch(row).tobytes() == want.tobytes()
    row[column] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(EncodingMismatch, match=f"column {column}"):
            nd.predict_distribution_batch(row)
        with pytest.raises(EncodingMismatch, match=f"column {column}"):
            nd.predict_distribution_batch(np.vstack([d.values[:3], row]))


def test_node_models_share_the_parsed_datasets_layout(zoo):
    logistic = build_nd(zoo, SubsetSelector("random_pair"), LogisticParams(), 3)
    tree = build_nd(zoo, SubsetSelector("random_pair"), TreeParams(), 3)
    nodes = list(logistic.internal_nodes())
    assert len(nodes) == zoo.n_classes - 1
    assert all(node.model.layout is zoo.layout for node in nodes)
    assert all(node.model.layout is zoo.layout for node in tree.internal_nodes())


def test_build_restricts_once_per_non_root_node(zoo, monkeypatch):
    # the root keeps the parsed dataset when no present class is left out;
    # an explicit class_ids that leaves one out builds on the restricted rows
    calls = []
    restrict = Dataset.restrict_to_classes

    def counting(self, class_ids):
        calls.append(tuple(class_ids))
        return restrict(self, class_ids)

    monkeypatch.setattr(Dataset, "restrict_to_classes", counting)
    for class_ids in (None, range(zoo.n_classes)):
        calls.clear()
        nd = build_nd(zoo, SubsetSelector("random_pair"), TreeParams(), 3, class_ids=class_ids)
        assert len(calls) == len(_all_nodes(nd.root)) - 1

    calls.clear()
    part = build_nd(zoo, SubsetSelector("random_pair"), TreeParams(), 3, class_ids=(0, 1, 2))
    assert calls[0] == (0, 1, 2) and len(calls) == len(_all_nodes(part.root))
    monkeypatch.undo()
    alone = zoo.restrict_to_classes((0, 1, 2))
    assert part.to_model_text() == build_nd(
        alone, SubsetSelector("random_pair"), TreeParams(), 3
    ).to_model_text()


def _per_node_distribution(nd, rows):
    """The product rule over each node model's own ``predict_prob_batch``
    of the raw ``rows``, the way of a prediction that shares no batch."""
    out = np.zeros((len(rows), nd.n_classes))

    def walk(node, mass):
        if node.is_leaf:
            out[:, node.class_subset[0]] = mass
            return
        p = node.model.predict_prob_batch(rows)
        walk(node.left, mass * p)
        walk(node.right, mass * (1.0 - p))

    walk(nd.root, np.ones(len(rows)))
    return out


@pytest.mark.parametrize("learner", [LogisticParams(), TreeParams()], ids=["logistic", "tree"])
@pytest.mark.parametrize("strategy", ["random_pair", "centroid", "random"])
def test_prediction_checks_and_encodes_a_batch_once(zoo, learner, strategy, encodes, checks):
    # classes without rows: some nodes get constant models
    sample = bootstrap_sample(zoo, 2).restrict_to_classes(range(4))
    nd = build_nd(sample, SubsetSelector(strategy), learner, 5, class_ids=range(zoo.n_classes))
    kinds = {node.model.kind for node in nd.internal_nodes()}
    assert "constant" in kinds
    rows = zoo.values[::2]
    expected = _per_node_distribution(nd, rows)
    encodes.clear()
    checks.clear()
    assert nd.predict_distribution_batch(rows).tobytes() == expected.tobytes()
    assert checks == [len(rows)]
    assert encodes == ([len(rows)] if "logistic" in kinds else [])


def test_constant_models_check_rows_as_every_learner_does(zoo):
    nd = build_nd(zoo, SubsetSelector("random"), LogisticParams(), 0, structure_only=True)
    assert all(isinstance(node.model, ConstantModel) for node in nd.internal_nodes())
    row = zoo.values[0].copy()
    assert nd.predict_distribution_batch(row).sum() == pytest.approx(1.0)
    row[1] = np.nan
    with pytest.raises(EncodingMismatch, match="non-finite value in column 1"):
        nd.predict_distribution_batch(row)
    # the model of a one-sided node
    model = ConstantModel(0.25, zoo.layout)
    assert model.predict_prob_batch(zoo.values[0]).tolist() == [0.25]
    bad = zoo.values[:2].copy()
    bad[1, 0] = 100.0  # "animal" has value indices 0-99
    with pytest.raises(EncodingMismatch, match="undeclared nominal value in column 0"):
        model.predict_prob_batch(bad)
    with pytest.raises(EncodingMismatch, match="expected 18 attribute values, got 17"):
        model.predict_prob_batch(bad[:, 1:])


def test_prediction_frees_its_output_without_the_cyclic_collector(zoo):
    # a prediction's arrays go when the caller drops them, not at the next
    # collection, so peak memory does not follow the collector's cadence
    nd = build_nd(zoo, SubsetSelector("random_pair"), TreeParams(), 3)
    gc.disable()
    try:
        out = nd.predict_distribution_batch(zoo.values)
        freed = weakref.ref(out)
        del out
        assert freed() is None
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "class_ids", [(-1, 0, 1), (0, 1, 3), (0, 0, 1)], ids=["negative", "past-last", "repeat"]
)
def test_class_ids_must_be_distinct_declared_classes(monkeypatch, class_ids):
    d = gaussian_dataset(np.array([[0, 0], [3, 0], [0, 3]], dtype=float), per_class=6)

    def no_selection(*args):
        raise AssertionError("a node was selected before the ids were checked")

    monkeypatch.setattr(SubsetSelector, "select", no_selection)
    with pytest.raises(NDError, match="distinct declared class indices"):
        build_nd(d, SubsetSelector("random"), LogisticParams(), 0, class_ids=class_ids)
