from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussian_dataset, small_datasets
from nested_dichotomies.data import AttributeSpec, Dataset
from nested_dichotomies.errors import InvalidParam
from nested_dichotomies.learners import LogisticParams, TreeParams
from nested_dichotomies.selection import (
    STRATEGIES,
    SplitDecision,
    SubsetSelector,
    _class_means,
    assign_by_pair,
)

RANDOM = SubsetSelector("random")
CLASS_BALANCED = SubsetSelector("class_balanced")
CENTROID = SubsetSelector("centroid")
RANDOM_PAIR = SubsetSelector("random_pair")


def is_partition(decision: SplitDecision, class_ids) -> bool:
    s1, s2 = set(decision.s1), set(decision.s2)
    return bool(s1) and bool(s2) and not (s1 & s2) and (s1 | s2) == set(class_ids)


# -- random ------------------------------------------------------------


def test_random_two_classes_unique():
    rng = np.random.default_rng(0)
    d = RANDOM.select([3, 8], None, None, rng)
    assert d.as_partition() == frozenset({frozenset({3}), frozenset({8})})


def test_random_uniform_over_three_partitions():
    rng = np.random.default_rng(1)
    counts = Counter()
    n = 100_000
    for _ in range(n):
        counts[RANDOM.select([0, 1, 2], None, None, rng).as_partition()] += 1
    assert len(counts) == 3
    for c in counts.values():
        assert abs(c / n - 1 / 3) < 0.02


def test_random_partition_invariant_fuzz():
    rng = np.random.default_rng(2)
    for _ in range(200):
        ids = sorted(rng.choice(50, size=rng.integers(2, 10), replace=False).tolist())
        assert is_partition(RANDOM.select(ids, None, None, rng), ids)


def test_random_reaches_all_partitions():
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(2000):
        seen.add(RANDOM.select([0, 1, 2, 3], None, None, rng).as_partition())
    assert len(seen) == 2 ** 3 - 1  # 7 nontrivial partitions of 4 classes


# -- class-balanced ------------------------------------------------------


def test_balanced_sizes():
    rng = np.random.default_rng(4)
    for c, want in [(4, {2}), (5, {2, 3}), (7, {3, 4})]:
        ids = list(range(c))
        for _ in range(50):
            d = CLASS_BALANCED.select(ids, None, None, rng)
            assert {len(d.s1), len(d.s2)} == want
            assert is_partition(d, ids)


def test_balanced_four_classes_three_partitions_uniform():
    rng = np.random.default_rng(5)
    counts = Counter()
    n = 100_000
    for _ in range(n):
        counts[CLASS_BALANCED.select([0, 1, 2, 3], None, None, rng).as_partition()] += 1
    assert len(counts) == 3  # matches the published class-balanced count at c=4
    for c in counts.values():
        assert abs(c / n - 1 / 3) < 0.02


# -- centroid ------------------------------------------------------------


def line_dataset(positions, per_class=5, spread=1e-6, seed=0):
    centers = np.asarray(positions, dtype=float).reshape(-1, 1)
    return gaussian_dataset(centers, per_class=per_class, spread=spread, seed=seed)


def test_centroid_line_example():
    # centroids at 0, 1, 10: furthest pair is (0, 2); class 1 joins class 0
    d = line_dataset([0.0, 1.0, 10.0])
    decision = CENTROID.select([0, 1, 2], d, None, None)
    assert decision.s1 == (0, 1)
    assert decision.s2 == (2,)

    # a at 0, b at 10, c at 2 (weight 1) and 7 (weight 3): c's mean is 4.5
    # unweighted, nearer a, and (2 + 3 * 7) / 4 = 5.75 weighted, nearer b
    attrs = [AttributeSpec("x"), AttributeSpec("class", ("a", "b", "c"))]
    values = np.array([[0.0, 0.0], [10.0, 1.0], [2.0, 2.0], [7.0, 2.0]])
    unweighted = Dataset(attrs, values, 1)
    weighted = Dataset(attrs, values, 1, weights=[1.0, 1.0, 1.0, 3.0])
    assert CENTROID.select([0, 1, 2], unweighted, None, None) == SplitDecision((0, 2), (1,))
    assert CENTROID.select([0, 1, 2], weighted, None, None) == SplitDecision((0,), (1, 2))


def test_centroid_two_classes():
    d = line_dataset([0.0, 5.0])
    decision = CENTROID.select([0, 1], d, None, None)
    assert decision.s1 == (0,) and decision.s2 == (1,)


def test_centroid_deterministic_100x():
    d = gaussian_dataset(np.random.default_rng(6).normal(size=(5, 3)), per_class=8, seed=7)
    ids = list(range(5))
    first = CENTROID.select(ids, d, None, None)
    for _ in range(99):
        again = CENTROID.select(ids, d, None, None)
        assert again.s1 == first.s1 and again.s2 == first.s2


def test_centroid_furthest_pair_tie_lexicographic():
    # classes at corners of a square: all four side pairs tie at distance 1,
    # diagonals sqrt(2) tie; lexicographically smallest max pair wins
    attrs = [AttributeSpec("x"), AttributeSpec("y"), AttributeSpec("c", tuple("abcd"))]
    values = np.array(
        [[0, 0, 0], [1, 0, 1], [0, 1, 2], [1, 1, 3]], dtype=float
    )
    d = Dataset(attrs, values, 2)
    decision = CENTROID.select([0, 1, 2, 3], d, None, None)
    # diagonals (0,3) and (1,2) tie; (0,3) is lexicographically smaller
    assert 0 in decision.s1 and 3 in decision.s2


def test_weighted_centroid():
    attrs = [AttributeSpec("x"), AttributeSpec("c", ("a", "b"))]
    values = np.array([[0.0, 0.0], [3.0, 0.0], [10.0, 1.0]])
    d = Dataset(attrs, values, 1, weights=np.array([1.0, 2.0, 1.0]))
    means = _class_means(d, [0, 1])
    assert means[0][0] == pytest.approx(2.0)  # (0*1 + 3*2) / 3
    assert means[1][0] == pytest.approx(10.0)


class Exploding:
    """A learner that no selector may train."""


@pytest.mark.parametrize("strategy", ["centroid", "random_pair"])
def test_unsplittable_data_splits_off_the_lowest_class(strategy):
    # only class 0 of the set has rows: the lowest class goes alone,
    # nothing is trained and the node's stream is not drawn from
    attrs = [AttributeSpec("x"), AttributeSpec("c", ("a", "b", "c"))]
    values = np.array([[0.0, 0.0], [0.5, 0.0]])
    d = Dataset(attrs, values, 1)
    for ids in ([0, 1, 2], [1, 2, 0], [1, 2]):
        rng = np.random.default_rng(3)
        decision = SubsetSelector(strategy).select(ids, d, Exploding(), rng)
        assert decision == SplitDecision(sorted(ids)[:1], sorted(ids)[1:])
        assert rng.random() == np.random.default_rng(3).random()


def test_centroid_absent_class_joins_first_side():
    # class 2 declared in the set but absent from the data
    attrs = [AttributeSpec("x"), AttributeSpec("c", ("a", "b", "c"))]
    values = np.array([[0.0, 0.0], [0.1, 0.0], [9.0, 1.0], [9.1, 1.0]])
    d = Dataset(attrs, values, 1)
    decision = CENTROID.select([0, 1, 2], d, None, None)
    assert is_partition(decision, [0, 1, 2])
    assert 2 in decision.s1  # follows the first seed's side


# -- random pair ----------------------------------------------------------


def four_cluster_data(seed=0):
    # A ~ B in one region, C ~ D in another, far apart
    centers = np.array(
        [[0.0, 0.0], [0.6, 0.6], [10.0, 10.0], [10.6, 10.6]]
    )
    return gaussian_dataset(centers, per_class=25, spread=0.4, seed=seed)


def test_random_pair_groups_similar_classes():
    d = four_cluster_data()
    decision = assign_by_pair([0, 1, 2, 3], d, LogisticParams(), 0, 2)
    assert decision.as_partition() == frozenset(
        {frozenset({0, 1}), frozenset({2, 3})}
    )
    assert decision.provenance.pair == (0, 2)
    votes = {c: (v1, v2) for c, v1, v2 in decision.provenance.votes}
    assert votes[1][0] > votes[1][1]  # class 1 votes with class 0
    assert votes[3][1] > votes[3][0]  # class 3 votes with class 2


def test_random_pair_votes_count_instance_weight():
    # class 2 has two unit-weight rows on class 0's side and one row of
    # weight 5 on class 1's side: by weight it joins class 1, as it does
    # when that row is repeated 5 times at weight 1
    attrs = (AttributeSpec("x", None), AttributeSpec("c", ("a", "b", "c")))
    pair_rows = [(-3.0, 0), (-2.8, 0), (-3.2, 0), (3.0, 1), (2.8, 1), (3.2, 1)]
    third = [(-2.5, 2), (-2.6, 2)]
    weighted = Dataset(attrs, pair_rows + third + [(2.5, 2)], 1, weights=[1.0] * 8 + [5.0])
    repeated = Dataset(attrs, pair_rows + third + [(2.5, 2)] * 5, 1)
    for d in (weighted, repeated):
        decision = assign_by_pair([0, 1, 2], d, LogisticParams(), 0, 1)
        assert (decision.s1, decision.s2) == ((0,), (1, 2))
        assert decision.provenance.votes == ((2, 2.0, 5.0),)


def test_random_pair_two_classes_no_training():
    rng = np.random.default_rng(8)
    decision = RANDOM_PAIR.select([4, 9], None, Exploding(), rng)
    assert decision.s1 == (4,) and decision.s2 == (9,)


def test_random_pair_deterministic_given_seed():
    d = four_cluster_data()
    a = RANDOM_PAIR.select([0, 1, 2, 3], d, LogisticParams(), np.random.default_rng(5))
    b = RANDOM_PAIR.select([0, 1, 2, 3], d, LogisticParams(), np.random.default_rng(5))
    assert a.s1 == b.s1 and a.s2 == b.s2 and a.provenance == b.provenance


def test_random_pair_partition_invariant_many_seeds():
    d = four_cluster_data(seed=3)
    for seed in range(30):
        decision = RANDOM_PAIR.select(
            [0, 1, 2, 3], d, TreeParams(min_instances_per_leaf=1),
            np.random.default_rng(seed),
        )
        assert is_partition(decision, [0, 1, 2, 3])


def test_random_pair_distinct_splits_bounded_by_pairs():
    d = four_cluster_data(seed=4)
    seen = set()
    for c1 in range(4):
        for c2 in range(c1 + 1, 4):
            seen.add(assign_by_pair([0, 1, 2, 3], d, LogisticParams(), c1, c2).as_partition())
    assert len(seen) <= 6  # C(4,2)


def test_random_pair_subsample_cap():
    d = four_cluster_data(seed=5)
    rng = np.random.default_rng(11)
    decision = SubsetSelector("random_pair", 5).select([0, 1, 2, 3], d, LogisticParams(), rng)
    assert is_partition(decision, [0, 1, 2, 3])


def test_random_pair_vote_tie_balances_sides():
    # remaining class has zero instances: tie goes to the smaller side
    attrs = [AttributeSpec("x"), AttributeSpec("c", ("a", "b", "c"))]
    values = np.array([[0.0, 0.0], [0.1, 0.0], [9.0, 1.0], [9.1, 1.0]])
    d = Dataset(attrs, values, 1)
    decision = assign_by_pair([0, 1, 2], d, LogisticParams(), 0, 1)
    assert is_partition(decision, [0, 1, 2])
    assert decision.s1 == (0, 2)  # tie, sides equal, joins c1's side


def test_selector_dispatch():
    d = four_cluster_data(seed=6)
    for strategy in ("random", "class_balanced", "centroid", "random_pair"):
        sel = SubsetSelector(strategy)
        decision = sel.select([0, 1, 2, 3], d, LogisticParams(), np.random.default_rng(1))
        assert is_partition(decision, [0, 1, 2, 3])
        with pytest.raises(ValueError, match="need at least 2 classes to split"):
            sel.select([2], d, LogisticParams(), np.random.default_rng(1))
    with pytest.raises(ValueError):
        SubsetSelector("nope")


@pytest.mark.parametrize("strategy", ["random", "class_balanced", "centroid"])
def test_cap_is_rejected_off_random_pair(strategy):
    # only random_pair trains a pair model for the cap to limit
    with pytest.raises(InvalidParam, match="applies only to strategy random_pair"):
        SubsetSelector(strategy, 5)
    assert SubsetSelector("random_pair", 5).subsample_cap == 5


BAD_CAPS = [
    (2.5, "must be an integer"),
    (True, "must be an integer"),
    (3.0, "must be an integer"),
    (0, "must be >= 1"),
    (-1, "must be >= 1"),
]


@pytest.mark.parametrize("cap, requirement", BAD_CAPS)
def test_selector_cap_must_be_a_positive_integer(cap, requirement):
    with pytest.raises(InvalidParam) as err:
        SubsetSelector("random_pair", cap)
    assert (err.value.field, err.value.requirement) == ("subsample_cap", requirement)


@pytest.mark.parametrize("cap, requirement", BAD_CAPS)
def test_pair_assignment_checks_its_cap_before_any_fit(cap, requirement, monkeypatch):
    d = four_cluster_data(seed=5)

    def no_fit(*args):
        raise AssertionError("fit before the cap check")

    monkeypatch.setattr("nested_dichotomies.selection.fit_binary_model", no_fit)
    with pytest.raises(InvalidParam) as err:
        assign_by_pair([0, 1, 2, 3], d, LogisticParams(), 0, 1, cap)
    assert (err.value.field, err.value.requirement) == ("cap", requirement)
    # a selector with the cap cannot be built, so no split comes back: not
    # the unique split of two classes, not the lowest class off when fewer
    # than two have instances, and not a trained pair's split
    with pytest.raises(InvalidParam, match=requirement):
        SubsetSelector("random_pair", cap)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    strategy=st.sampled_from(STRATEGIES),
    tree=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_select_returns_partition_of_class_set(data, strategy, tree, seed):
    n_classes = data.draw(st.integers(2, 6))
    subset = sorted(data.draw(st.sets(st.integers(0, n_classes - 1), min_size=2)))
    # the node data may lack some of the subset's classes (as after a
    # bootstrap), but build_nd only selects when two of them have rows
    present = sorted(data.draw(st.sets(st.sampled_from(subset), min_size=2)))
    d = data.draw(small_datasets(present, n_classes))
    learner = TreeParams(min_instances_per_leaf=1) if tree else LogisticParams()
    # only random_pair reads a cap; any other strategy rejects one
    cap = data.draw(st.none() | st.integers(1, 3)) if strategy == "random_pair" else None
    decision = SubsetSelector(strategy, cap).select(
        subset, d, learner, np.random.default_rng(seed)
    )
    assert is_partition(decision, subset)
