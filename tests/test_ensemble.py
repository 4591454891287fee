import math

import numpy as np
import pytest

from conftest import DATASETS_DIR, gaussian_dataset, structure
from nested_dichotomies.data import Dataset, parse_arff
from nested_dichotomies.dichotomy import NDNode, NestedDichotomy
from nested_dichotomies.ensemble import (
    EnsembleModel,
    build_adaboost_ensemble,
    build_bagged_ensemble,
    build_multiboost_ensemble,
    build_random_ensemble,
    multiboost_boundaries,
    _wagging_weights,
)
from nested_dichotomies.cli import MethodSpec
from nested_dichotomies.errors import AllMembersRejected, InvalidParam
from nested_dichotomies.learners import LogisticParams, TreeParams
from nested_dichotomies.selection import SubsetSelector
from test_dichotomy import StubModel, leaf


def blob_data(n_classes=4, per_class=12, spread=0.5, seed=0, scale=4.0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, 2)) * scale
    return gaussian_dataset(centers, per_class=per_class, spread=spread, seed=seed + 1)


FAST_TREE = TreeParams(min_instances_per_leaf=1, prune=False)


def _build_with_size(build):
    d = blob_data(seed=1)
    return lambda size: build(d, SubsetSelector("random"), FAST_TREE, size, 5)


SIZED = {
    "random": _build_with_size(build_random_ensemble),
    "bagging": _build_with_size(build_bagged_ensemble),
    "adaboost": _build_with_size(build_adaboost_ensemble),
    "multiboost": _build_with_size(build_multiboost_ensemble),
    "method-spec": lambda size: MethodSpec("m", ensemble_kind="bagging", size=size),
}


@pytest.mark.parametrize(
    "size, requirement",
    [(2.5, "must be an integer"), (True, "must be an integer"), (0, "must be >= 1")],
)
@pytest.mark.parametrize("make", SIZED.values(), ids=SIZED.keys())
def test_size_must_be_a_positive_integer(make, size, requirement):
    with pytest.raises(InvalidParam) as err:
        make(size)
    assert (err.value.field, err.value.requirement) == ("size", requirement)


def test_random_ensemble_size_one_equals_member():
    d = blob_data(seed=1)
    e = build_random_ensemble(d, SubsetSelector("random"), FAST_TREE, 1, seed=5)
    rows = d.values[:10]
    np.testing.assert_allclose(
        e.predict_distribution_batch(rows),
        e.members[0].predict_distribution_batch(rows),
        atol=1e-15,
    )


def test_random_ensemble_distribution_is_mean_of_members():
    d = blob_data(seed=2)
    e = build_random_ensemble(d, SubsetSelector("random"), LogisticParams(), 5, seed=6)
    rows = d.values[::3]
    stacked = np.stack([m.predict_distribution_batch(rows) for m in e.members])
    np.testing.assert_allclose(
        e.predict_distribution_batch(rows), stacked.mean(axis=0), atol=1e-12
    )


def test_random_ensemble_no_duplicate_structures_at_ten_classes():
    d = blob_data(n_classes=10, per_class=5, seed=3)
    e = build_random_ensemble(d, SubsetSelector("random"), FAST_TREE, 10, seed=7)
    structures = [structure(m.root) for m in e.members]
    assert len(set(structures)) == 10  # ~34M possible structures


def test_bagged_deterministic():
    d = blob_data(seed=4)
    a = build_bagged_ensemble(d, SubsetSelector("random_pair"), FAST_TREE, 4, seed=8)
    b = build_bagged_ensemble(d, SubsetSelector("random_pair"), FAST_TREE, 4, seed=8)
    rows = d.values[:8]
    np.testing.assert_array_equal(
        a.predict_distribution_batch(rows), b.predict_distribution_batch(rows)
    )
    assert [structure(m.root) for m in a.members] == [structure(m.root) for m in b.members]


def separable_blobs(seed=0):
    # large-margin clusters: A,B adjacent; C,D adjacent; both pairs far apart
    centers = np.array([[0, 0], [2.5, 0], [40, 40], [42.5, 40]], dtype=float)
    return gaussian_dataset(centers, per_class=20, spread=0.2, seed=seed)


def test_centroid_bagging_too_stable():
    d = separable_blobs(seed=5)
    e = build_bagged_ensemble(d, SubsetSelector("centroid"), LogisticParams(), 10, seed=9)
    structures = {structure(m.root) for m in e.members}
    assert len(structures) == 1  # deterministic splits survive bootstrapping


def test_random_pair_bagging_varies():
    d = separable_blobs(seed=6)
    e = build_bagged_ensemble(
        d, SubsetSelector("random_pair"), LogisticParams(), 10, seed=10
    )
    structures = {structure(m.root) for m in e.members}
    assert len(structures) >= 2


# -- boosting -----------------------------------------------------------


def test_adaboost_member_weight_formula():
    assert math.log((1 - 0.25) / 0.25) == pytest.approx(math.log(3), abs=1e-12)
    d = blob_data(n_classes=3, per_class=15, spread=1.5, seed=7)
    seen = []
    e = build_adaboost_ensemble(
        d, SubsetSelector("random"), FAST_TREE, 6, seed=11,
        observer=lambda member, error, weights: seen.append(error),
    )
    # every accepted member weight matches ln((1-e)/e) for its error
    normal_votes = [v for v in e.member_weights if v != math.log(1e10)]
    assert len(seen) >= len(normal_votes) > 0
    for vote, error in zip(normal_votes, seen):
        assert vote == pytest.approx(math.log((1 - error) / error), abs=1e-12)


def test_adaboost_post_update_error_is_half():
    d = blob_data(n_classes=4, per_class=10, spread=1.8, seed=8)
    records = []

    def observer(member, error, weights):
        predicted = member.predict_class_batch(d.values)
        mis = predicted != d.class_indices()
        records.append(weights[mis].sum() / weights.sum())

    build_adaboost_ensemble(
        d, SubsetSelector("random"), FAST_TREE, 8, seed=12, observer=observer
    )
    assert records
    for err in records:
        assert err == pytest.approx(0.5, abs=1e-9)


def test_adaboost_weights_stay_normalized():
    d = blob_data(n_classes=3, per_class=12, spread=1.5, seed=9)
    n = d.n_instances
    seen = []
    build_adaboost_ensemble(
        d, SubsetSelector("random"), FAST_TREE, 6, seed=13,
        observer=lambda m, e, w: seen.append(w),
    )
    for w in seen:
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(n, abs=1e-9)


def test_adaboost_all_rejected():
    # two identical points with opposite labels: error is exactly 0.5
    from nested_dichotomies.data import AttributeSpec

    attrs = [AttributeSpec("x"), AttributeSpec("c", ("a", "b"))]
    values = np.array([[1.0, 0.0], [1.0, 1.0]])
    d = Dataset(attrs, values, 1)
    with pytest.raises(AllMembersRejected):
        build_adaboost_ensemble(
            d, SubsetSelector("random"), FAST_TREE, 3, seed=14
        )


def test_adaboost_size_one_easy_data():
    d = blob_data(n_classes=3, per_class=10, spread=0.1, seed=10, scale=20.0)
    e = build_adaboost_ensemble(d, SubsetSelector("random"), FAST_TREE, 1, seed=15)
    assert len(e.members) == 1
    np.testing.assert_array_equal(
        e.predict_class_batch(d.values), e.members[0].predict_class_batch(d.values)
    )


def test_boosting_deterministic():
    d = blob_data(n_classes=4, per_class=10, spread=1.5, seed=14)
    for build in (build_adaboost_ensemble, build_multiboost_ensemble):
        a = build(d, SubsetSelector("random"), FAST_TREE, 6, seed=22)
        b = build(d, SubsetSelector("random"), FAST_TREE, 6, seed=22)
        np.testing.assert_array_equal(a.member_weights, b.member_weights)
        assert [structure(m.root) for m in a.members] == [structure(m.root) for m in b.members]
        np.testing.assert_array_equal(
            a.predict_distribution_batch(d.values[:7]),
            b.predict_distribution_batch(d.values[:7]),
        )


def test_multiboost_boundaries_for_ten():
    assert multiboost_boundaries(10) == (4, 7, 10)
    assert multiboost_boundaries(1) == (1,)
    assert multiboost_boundaries(16) == (4, 8, 12, 16)
    assert multiboost_boundaries(100)[:3] == (10, 20, 30)


def test_multiboost_size_one_identical_to_adaboost():
    d = blob_data(n_classes=3, per_class=12, spread=1.0, seed=11)
    a = build_adaboost_ensemble(d, SubsetSelector("random"), FAST_TREE, 1, seed=16)
    m = build_multiboost_ensemble(d, SubsetSelector("random"), FAST_TREE, 1, seed=16)
    assert structure(a.members[0].root) == structure(m.members[0].root)
    np.testing.assert_array_equal(a.member_weights, m.member_weights)
    np.testing.assert_array_equal(
        a.predict_distribution_batch(d.values[:6]),
        m.predict_distribution_batch(d.values[:6]),
    )


def test_multiboost_runs_and_votes():
    d = blob_data(n_classes=4, per_class=12, spread=1.2, seed=12)
    e = build_multiboost_ensemble(d, SubsetSelector("random"), FAST_TREE, 10, seed=17)
    assert e.combiner == "weighted_vote"
    dist = e.predict_distribution_batch(d.values[:5])
    np.testing.assert_allclose(dist.sum(axis=1), 1.0, atol=1e-9)


def test_wagging_weights_distribution():
    rng = np.random.default_rng(18)
    w = _wagging_weights(100_000, rng)
    assert w.min() > 0
    assert w.mean() == pytest.approx(1.0, abs=1e-9)  # renormalized
    # before normalization the draws are Exponential(1); spot-check shape
    raw = -np.log(1.0 - np.random.default_rng(19).random(100_000))
    assert abs(raw.mean() - 1.0) < 0.05
    assert abs(raw.std() - 1.0) < 0.05


# -- combination rules ---------------------------------------------------


def stub_nd(p_first):
    root = NDNode((0, 1), StubModel(p_first), leaf(0), leaf(1))
    return NestedDichotomy(root, ("a", "b"), 0, "stub")


def test_average_combiner_opposite_members():
    e = EnsembleModel((stub_nd(1.0), stub_nd(0.0)), np.ones(2), "random")
    assert e.combiner == "average_distribution"
    dist, picked = e.predict_distribution_batch(np.zeros(1)), e.predict_class_batch(np.zeros(1))
    np.testing.assert_allclose(dist, [[0.5, 0.5]])
    assert picked.tolist() == [0]  # tie goes to the lowest class index


def test_weighted_vote_majority_by_weight():
    e = EnsembleModel((stub_nd(1.0), stub_nd(0.0)), np.array([2.0, 1.0]), "adaboost")
    assert e.combiner == "weighted_vote"
    dist, picked = e.predict_distribution_batch(np.zeros(1)), e.predict_class_batch(np.zeros(1))
    np.testing.assert_allclose(dist, [[2 / 3, 1 / 3]])
    assert picked.tolist() == [0]


def test_fuzzed_ensembles_sum_to_one():
    rng = np.random.default_rng(20)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        members = tuple(stub_nd(float(rng.random())) for _ in range(k))
        weights = rng.uniform(0.1, 3.0, size=k)
        # the kind picks the combiner: averaging or weighted voting
        kind = ("random", "bagging", "adaboost", "multiboost")[int(rng.integers(4))]
        e = EnsembleModel(members, weights, kind)
        dist = e.predict_distribution_batch(np.zeros((3, 1)))
        np.testing.assert_allclose(dist.sum(axis=1), 1.0, atol=1e-9)


def test_ensemble_weight_validation():
    with pytest.raises(ValueError):
        EnsembleModel((stub_nd(0.5),), np.array([0.0]), "adaboost")
    with pytest.raises(ValueError):
        EnsembleModel((stub_nd(0.5),), np.array([1.0, 2.0]), "adaboost")


@pytest.mark.parametrize("kind", ["none", "boosting", "weighted_vote", ""])
def test_ensemble_rejects_an_unknown_kind(kind):
    with pytest.raises(ValueError, match="unknown ensemble kind"):
        EnsembleModel((stub_nd(0.5),), np.ones(1), kind)


def test_ensemble_text_dump():
    d = blob_data(seed=13)
    e = build_bagged_ensemble(d, SubsetSelector("random"), FAST_TREE, 3, seed=21)
    text = e.to_model_text()
    lines = text.splitlines()
    assert lines[0] == "ensemble bagging combiner=average_distribution size=3"
    assert text == lines[0] + "\n" + "".join(
        f"member {i} weight=1.0 seed={m.build_seed}\n" + m.to_model_text()
        for i, m in enumerate(e.members)
    )


def test_bagged_build_builds_no_layout_beyond_the_parsed_one(layouts_built):
    d = parse_arff((DATASETS_DIR / "vowel.arff").read_text())
    assert layouts_built == [d.layout]
    strategy = SubsetSelector("random_pair")
    ens = build_bagged_ensemble(d, strategy, LogisticParams(max_iterations=1000), 3, seed=1)
    ens.predict_distribution_batch(d.values[:50])
    assert layouts_built == [d.layout]


@pytest.mark.parametrize(
    "build", [build_bagged_ensemble, build_adaboost_ensemble], ids=["average", "vote"]
)
def test_members_share_one_checked_and_encoded_batch(build, zoo, encodes, checks):
    ens = build(zoo, SubsetSelector("random_pair"), LogisticParams(), 3, 8)
    rows = zoo.values[1::3]
    # each member on the raw rows, as a prediction that shares no batch
    expected = np.zeros((len(rows), zoo.n_classes))
    for member, wm in zip(ens.members, ens.member_weights):
        if ens.combiner == "average_distribution":
            expected += wm * member.predict_distribution_batch(rows)
        else:
            expected[np.arange(len(rows)), member.predict_class_batch(rows)] += wm
    expected /= ens.member_weights.sum()
    encodes.clear()
    checks.clear()
    assert ens.predict_distribution_batch(rows).tobytes() == expected.tobytes()
    assert (encodes, checks) == ([len(rows)], [len(rows)])
