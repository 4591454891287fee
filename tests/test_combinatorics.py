import numpy as np
import pytest

from conftest import gaussian_dataset
from nested_dichotomies.combinatorics import (
    SpaceCount,
    count_balanced,
    count_full,
    enumerate_splits,
    estimate_random_pair_count,
    measure_subset_proportions,
    p_fit,
    space_table,
)
from nested_dichotomies.errors import InvalidParam
from nested_dichotomies.learners import LogisticParams, TreeParams
from nested_dichotomies.selection import SubsetSelector

# published counts: (classes, all dichotomies, class-balanced, random-pair est.)
PUBLISHED = [
    (2, 1, 1, 1),
    (3, 3, 3, 1),
    (4, 15, 3, 5),
    (5, 105, 30, 15),
    (6, 945, 90, 36),
    (7, 10_395, 315, 182),
    (8, 135_135, 315, 470),
    (9, 2_027_025, 11_340, 1_254),
    (10, 34_459_425, 113_400, 7_002),
    (11, 654_729_075, 1_247_400, 28_189),
    (12, 13_749_310_575, 3_742_200, 81_451),
]


def test_count_full_exact():
    for c, full, _, _ in PUBLISHED:
        assert count_full(c) == full


def test_count_full_ratio_property():
    # consecutive double factorials differ by the new odd factor 2c-3
    for c in range(3, 25):
        assert count_full(c) == count_full(c - 1) * (2 * c - 3)


def test_count_balanced_exact():
    for c, _, balanced, _ in PUBLISHED:
        assert count_balanced(c) == balanced


def test_balanced_never_exceeds_full():
    for c in range(1, 21):
        assert 1 <= count_balanced(c) <= count_full(c)


def test_p_fit_values():
    assert p_fit(0) == pytest.approx(2.9027, abs=1e-12)
    assert p_fit(10) == pytest.approx(26.0437, abs=1e-10)
    assert p_fit(2) == pytest.approx(1.4317, abs=1e-10)


def test_estimate_base_cases():
    assert estimate_random_pair_count(1) == 1.0
    assert estimate_random_pair_count(2) == 1.0


def test_estimate_within_quarter_of_published():
    for c, _, _, published in PUBLISHED:
        if c < 4:
            continue  # the quadratic fit is meaningless below its data range
        estimate = estimate_random_pair_count(c)
        assert abs(estimate - published) / published <= 0.25


def test_estimate_monotone():
    values = [estimate_random_pair_count(c) for c in range(2, 13)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_space_table_shape():
    rows = space_table(12)
    assert len(rows) == 11
    assert rows[0] == SpaceCount(2, 1, 1, estimate_random_pair_count(2))
    assert rows[-1].full == 13_749_310_575


def four_cluster_data(seed=0):
    centers = np.array([[0, 0], [0.6, 0.6], [10, 10], [10.6, 10.6]], dtype=float)
    return gaussian_dataset(centers, per_class=20, spread=0.4, seed=seed)


def test_census_bound_and_cross_pairs():
    d = four_cluster_data()
    census = enumerate_splits(d, [0, 1, 2, 3], LogisticParams())
    assert census.pairs_tried == 6
    assert 1 <= census.distinct <= 6
    # the 4 cross-cluster pairs must all produce {0,1} | {2,3}
    want = (( (0, 1), (2, 3) ))
    cross = [
        dec for dec in census.decisions
        if dec.provenance.pair in ((0, 2), (0, 3), (1, 2), (1, 3))
    ]
    assert len(cross) == 4
    for dec in cross:
        assert dec.as_partition() == frozenset({frozenset({0, 1}), frozenset({2, 3})})


def test_census_deterministic_and_order_free():
    d = four_cluster_data(seed=2)
    a = enumerate_splits(d, [0, 1, 2, 3], TreeParams(min_instances_per_leaf=1))
    b = enumerate_splits(d, [0, 1, 2, 3], TreeParams(min_instances_per_leaf=1))
    assert a.partitions == b.partitions
    assert a.distinct == b.distinct
    # subsampled runs depend only on (seed, pair), not evaluation order
    c1 = enumerate_splits(d, [0, 1, 2, 3], LogisticParams(), cap=10, seed=5)
    c2 = enumerate_splits(d, [0, 1, 2, 3], LogisticParams(), cap=10, seed=5)
    assert c1.partitions == c2.partitions


def test_census_degenerate_identical_classes():
    # all classes drawn from one distribution: census stays within bounds
    d = gaussian_dataset(np.zeros((4, 2)), per_class=15, spread=1.0, seed=3)
    census = enumerate_splits(d, [0, 1, 2, 3], TreeParams(min_instances_per_leaf=1))
    assert 1 <= census.distinct <= 6


def test_census_needs_three_classes():
    d = four_cluster_data(seed=4)
    with pytest.raises(ValueError):
        enumerate_splits(d, [0, 1], LogisticParams())


@pytest.mark.parametrize(
    "cap, requirement",
    [(2.5, "must be an integer"), (True, "must be an integer"), (3.0, "must be an integer"),
     (0, "must be >= 1"), (-1, "must be >= 1")],
)
def test_census_cap_must_be_a_positive_integer(zoo, cap, requirement):
    with pytest.raises(InvalidParam) as err:
        enumerate_splits(zoo, zoo.classes_present(), LogisticParams(), cap=cap)
    assert (err.value.field, err.value.requirement) == ("cap", requirement)


def test_proportions_class_balanced_even_sizes():
    # a 4-class problem: only the root has >= 3 classes and it splits 2|2
    d = four_cluster_data(seed=5)
    mean = measure_subset_proportions(
        [d], SubsetSelector("class_balanced"), LogisticParams(), 10, seed=1
    )
    assert mean == pytest.approx(0.5)


def test_proportions_three_class_node_is_third():
    centers = np.array([[0, 0], [4, 0], [0, 4]], dtype=float)
    d = gaussian_dataset(centers, per_class=10, spread=0.5, seed=6)
    mean = measure_subset_proportions(
        [d], SubsetSelector("random"), TreeParams(min_instances_per_leaf=1), 7, seed=2
    )
    assert mean == pytest.approx(1 / 3)


def test_proportions_random_pair_range():
    rng = np.random.default_rng(7)
    datasets = [
        gaussian_dataset(rng.normal(size=(6, 3)) * 3, per_class=10, seed=s)
        for s in range(3)
    ]
    mean = measure_subset_proportions(
        datasets, SubsetSelector("random_pair"), LogisticParams(), 10, seed=3
    )
    assert 0.2 <= mean <= 0.5
