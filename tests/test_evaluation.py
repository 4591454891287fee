import math

import numpy as np
import pytest
from scipy import special, stats

from conftest import gaussian_dataset, simple_dataset
from nested_dichotomies._special import t_critical
from nested_dichotomies.data import stratified_folds
from nested_dichotomies.dichotomy import build_nd
from nested_dichotomies.errors import MismatchedPlans
from nested_dichotomies.evaluation import (
    CVResult,
    corrected_t,
    format_cell,
    format_results_table,
    run_cv,
)
from nested_dichotomies.learners import LogisticParams
from nested_dichotomies.selection import SubsetSelector


class ConstantClassifier:
    def __init__(self, label=0):
        self.label = label

    def predict_class_batch(self, rows):
        return np.full(np.atleast_2d(rows).shape[0], self.label, dtype=np.intp)


def result_from(diffs_base, diffs, k=10, fingerprint="p"):
    """Two CVResults whose accuracy difference vector equals ``diffs``."""
    j = len(diffs)
    base = np.asarray(diffs_base, dtype=float)
    a = CVResult("d", "a", base + np.asarray(diffs), k, j // k, 100, fingerprint,
                 np.zeros(j))
    b = CVResult("d", "b", base, k, j // k, 100, fingerprint, np.zeros(j))
    return a, b


def test_run_cv_memorizable_data():
    # duplicated separable points: every training fold still contains both
    # clusters, so held-out accuracy is exact
    d = gaussian_dataset(np.array([[0.0], [50.0]]), per_class=10, spread=0.01, seed=1)
    plan = stratified_folds(d, 2, 1, 7)
    res = run_cv(
        d,
        lambda train, seed: build_nd(train, SubsetSelector("random"), LogisticParams(), seed),
        plan,
        "mem", "rpnd",
    )
    np.testing.assert_allclose(res.accuracies, 1.0)


def test_run_cv_constant_model_majority_rate():
    xs = list(range(100))
    labels = [0] * 70 + [1] * 30
    d = simple_dataset(xs, labels)
    plan = stratified_folds(d, 10, 1, 3)
    res = run_cv(d, lambda train, seed: ConstantClassifier(0), plan, "m", "const")
    assert res.mean == pytest.approx(0.7, abs=1e-12)


def test_run_cv_canonical_order_and_determinism():
    d = gaussian_dataset(np.array([[0.0, 0], [2.0, 1]]), per_class=15, seed=2)
    plan = stratified_folds(d, 5, 2, 9)

    def builder(train, seed):
        return build_nd(train, SubsetSelector("random"), LogisticParams(), seed)

    r1 = run_cv(d, builder, plan, "d", "m")
    r2 = run_cv(d, builder, plan, "d", "m")
    np.testing.assert_array_equal(r1.accuracies, r2.accuracies)
    assert len(r1.accuracies) == 10
    assert r1.plan_fingerprint == plan.fingerprint


def test_cv_result_stats_consistent():
    acc = np.array([0.5, 0.6, 0.7, 0.8])
    res = CVResult("d", "m", acc, 2, 2, 50, "x", np.zeros(4))
    assert res.mean == pytest.approx(acc.mean(), abs=1e-12)
    assert res.std == pytest.approx(acc.std(ddof=1), abs=1e-12)


# -- corrected t ----------------------------------------------------------


def test_identical_results_t_zero():
    a, b = result_from(np.full(100, 0.8), np.zeros(100))
    out = corrected_t(a, b)
    assert out.t == 0.0
    assert not out.significant
    assert out.direction == "none"


def test_correction_factor_formula():
    rng = np.random.default_rng(0)
    base = np.full(100, 0.7)
    diffs = rng.normal(0.01, 0.03, 100)
    a, b = result_from(base, diffs, k=10)
    out = corrected_t(a, b)
    d = a.accuracies - b.accuracies
    factor = 1.0 / 100 + 1.0 / 9  # J=100 runs, k=10 folds
    expect = d.mean() / math.sqrt(factor * d.var(ddof=1))
    assert out.t == pytest.approx(expect, abs=1e-15)
    assert out.runs == 100


def test_hand_evaluated_example():
    # difference vector rescaled to mean 0.02, std 0.05 exactly
    rng = np.random.default_rng(1)
    raw = rng.normal(size=100)
    raw = (raw - raw.mean()) / raw.std(ddof=1)
    diffs = 0.02 + 0.05 * raw
    a, b = result_from(np.full(100, 0.5), diffs, k=10)
    out = corrected_t(a, b)
    expect = 0.02 / math.sqrt((0.01 + 1 / 9) * 0.0025)
    assert expect == pytest.approx(1.1494, abs=1e-3)
    assert out.t == pytest.approx(expect, rel=1e-9)
    assert not out.significant


def test_antisymmetry():
    rng = np.random.default_rng(2)
    base = np.full(60, 0.6)
    diffs = rng.normal(0.03, 0.02, 60)
    a, b = result_from(base, diffs, k=6)
    ab = corrected_t(a, b)
    ba = corrected_t(b, a)
    assert ab.t == pytest.approx(-ba.t, abs=1e-12)
    if ab.significant:
        assert {ab.direction, ba.direction} == {"gain", "loss"}


def test_classical_t_recovered_with_zero_ratio():
    rng = np.random.default_rng(3)
    for _ in range(100):
        j = int(rng.integers(5, 40))
        base = rng.uniform(0.4, 0.6, j)
        diffs = rng.normal(rng.uniform(-0.05, 0.05), rng.uniform(0.01, 0.1), j)
        a, b = result_from(base.round(3), diffs, k=j, fingerprint="q")
        ours = corrected_t(a, b, test_train_ratio=0.0)
        oracle = stats.ttest_rel(a.accuracies, b.accuracies)
        assert ours.t == pytest.approx(oracle.statistic, abs=1e-10)
        assert ours.significant == (oracle.pvalue < 0.05)


def test_zero_variance_paths():
    a, b = result_from(np.full(20, 0.5), np.full(20, 0.1), k=4)
    out = corrected_t(a, b)
    assert out.zero_variance and out.significant
    assert out.t == math.inf and out.direction == "gain"

    a2, b2 = result_from(np.full(20, 0.5), np.full(20, -0.1), k=4)
    out2 = corrected_t(a2, b2)
    assert out2.t == -math.inf and out2.direction == "loss"


def test_mismatched_plans_rejected():
    a, _ = result_from(np.full(20, 0.5), np.zeros(20), k=4, fingerprint="one")
    _, b = result_from(np.full(20, 0.5), np.zeros(20), k=4, fingerprint="two")
    with pytest.raises(MismatchedPlans):
        corrected_t(a, b)


def test_significance_against_table_value():
    # J=10, alpha=0.05 two-sided: critical value 2.262
    base = np.full(10, 0.5)
    diffs = np.array([0.1, 0.12, 0.09, 0.11, 0.1, 0.08, 0.13, 0.1, 0.09, 0.12])
    a, b = result_from(base, diffs, k=10)
    out = corrected_t(a, b, test_train_ratio=0.0)
    assert out.significant and out.direction == "gain"


def test_t_critical_matches_scipy():
    alphas = (0.001, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 0.9)
    dfs = np.arange(1, 1001)
    expected = special.stdtrit(dfs[:, None], 1.0 - np.array(alphas) / 2.0)
    got = np.array([[t_critical(int(df), alpha) for alpha in alphas] for df in dfs])
    rel = np.abs(got - expected) / expected
    assert rel.max() < 1e-12, (rel.max(), np.unravel_index(rel.argmax(), rel.shape))


@pytest.mark.parametrize("df, alpha", [(0, 0.05), (9, 0.0), (9, 1.0)])
def test_t_critical_rejects_bad_arguments(df, alpha):
    with pytest.raises(ValueError):
        t_critical(df, alpha)


# -- table formatting -------------------------------------------------------


def test_format_cell_golden():
    assert format_cell(0.94023, 0.024) == "94.02 ± 2.40"


def test_table_single_method_no_markers():
    res = CVResult("zoo", "rpnd", np.array([0.9, 0.92]), 2, 1, 10, "f", np.zeros(2))
    table = format_results_table([[res]])
    assert "zoo" in table and "91.00" in table
    assert "•" not in table and "◦" not in table


def test_table_marks_significant_gain():
    rng = np.random.default_rng(4)
    base = 0.70 + rng.normal(0, 0.01, 100)
    better = base + 0.1 + rng.normal(0, 0.005, 100)
    ref = CVResult("data", "rpnd", np.clip(better, 0, 1), 10, 10, 100, "f", np.zeros(100))
    other = CVResult("data", "nd", np.clip(base, 0, 1), 10, 10, 100, "f", np.zeros(100))
    table = format_results_table([[ref, other]])
    row = [line for line in table.splitlines() if line.startswith("data")][0]
    assert "•" in row
    flipped = format_results_table([[other, ref]])
    row = [line for line in flipped.splitlines() if line.startswith("data")][0]
    assert "◦" in row
