"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values.

Run with ``pytest tests/test_acceptance.py -v -s``.  The accuracy-band
criteria run full 10x10 cross-validation on the bundled UCI datasets and
take a few minutes; everything else is fast.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from conftest import gaussian_dataset, load_uci
from nested_dichotomies.cli import main
from nested_dichotomies.combinatorics import (
    enumerate_splits,
    estimate_random_pair_count,
    measure_subset_proportions,
)
from nested_dichotomies.data import stratified_folds
from nested_dichotomies.dichotomy import NestedDichotomy, build_nd
from nested_dichotomies.ensemble import build_adaboost_ensemble, build_bagged_ensemble
from nested_dichotomies.evaluation import CVResult, corrected_t, run_cv
from nested_dichotomies.learners import LogisticParams, TreeParams
from nested_dichotomies.learners.logistic import penalized_nll, penalized_nll_grad
from nested_dichotomies.selection import SubsetSelector, select_centroid
from test_dichotomy import random_stub_tree, brute_force_distribution

# The toolkit the paper defers to runs its logistic learner with no
# iteration cap; quasi-separable CV folds need a few hundred Newton
# steps, so the replication experiments raise the cap explicitly.
LOGISTIC = LogisticParams(max_iterations=1000)

PUBLISHED_SPACE = {
    2: (1, 1, 1),
    3: (3, 3, 1),
    4: (15, 3, 5),
    5: (105, 30, 15),
    6: (945, 90, 36),
    7: (10_395, 315, 182),
    8: (135_135, 315, 470),
    9: (2_027_025, 11_340, 1_254),
    10: (34_459_425, 113_400, 7_002),
    11: (654_729_075, 1_247_400, 28_189),
    12: (13_749_310_575, 3_742_200, 81_451),
}


def report(number: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_space_table_exact(capsys):
    started = time.perf_counter()
    assert main(["space", "--max-c", "12"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    elapsed = time.perf_counter() - started
    ok = len(lines) == 11
    for line in lines:
        c, full, balanced, _ = line.split(",")
        want = PUBLISHED_SPACE[int(c)]
        ok = ok and int(full) == want[0] and int(balanced) == want[1]
    with capsys.disabled():
        report(1, ok, f"space table c=2..12 exact in {elapsed:.2f}s")


def test_criterion_02_random_pair_estimate_band():
    worst = 0.0
    for c in range(4, 13):
        published = PUBLISHED_SPACE[c][2]
        estimate = estimate_random_pair_count(c)
        worst = max(worst, abs(estimate - published) / published)
    ok = worst <= 0.25
    report(2, ok, f"random-pair space estimate within 25% (worst {100 * worst:.1f}%)")


def test_criterion_03_product_rule_exactness():
    rng = np.random.default_rng(33)
    worst_sum, worst_diff = 0.0, 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 10))
        root = random_stub_tree(rng, list(range(c)))
        nd = NestedDichotomy(root, tuple(f"k{i}" for i in range(c)), 0, "stub")
        [dist] = nd.predict_distribution_batch(np.zeros(3))
        worst_sum = max(worst_sum, abs(dist.sum() - 1.0))
        worst_diff = max(
            worst_diff, np.max(np.abs(dist - brute_force_distribution(root, c)))
        )
    ok = worst_sum < 1e-9 and worst_diff < 1e-12
    report(
        3,
        ok,
        f"product rule on 1000 stub trees (sum err {worst_sum:.1e}, "
        f"path-product err {worst_diff:.1e})",
    )


def test_criterion_04_adaboost_identity():
    cases = [
        (load_uci("zoo"), TreeParams()),
        (load_uci("glass"), TreeParams()),
        (
            gaussian_dataset(
                np.random.default_rng(4).normal(size=(4, 2)) * 2.0,
                per_class=15,
                spread=1.2,
                seed=5,
            ),
            LogisticParams(),
        ),
    ]
    errors = []
    for i, (d, learner) in enumerate(cases):
        y = d.class_indices()

        def observer(member, error, weights, d=d, y=y):
            mis = member.predict_class_batch(d.values) != y
            errors.append(abs(weights[mis].sum() / weights.sum() - 0.5))

        build_adaboost_ensemble(
            d, SubsetSelector("random"), learner, 10, seed=100 + i, observer=observer
        )
    worst = max(errors)
    ok = len(errors) >= 20 and worst <= 1e-9
    report(
        4,
        ok,
        f"AdaBoost.M1 post-update error = 1/2 over {len(errors)} updates "
        f"(worst |err-0.5| {worst:.1e})",
    )


def test_criterion_05_corrected_t_against_classical():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        j = int(rng.integers(5, 60))
        base = rng.uniform(0.3, 0.7, j).round(4)
        diffs = rng.normal(rng.uniform(-0.05, 0.05), rng.uniform(0.005, 0.08), j)
        a = CVResult("d", "a", np.clip(base + diffs, 0, 1), j, 1, 50, "f", np.zeros(j))
        b = CVResult("d", "b", base, j, 1, 50, "f", np.zeros(j))
        ours = corrected_t(a, b, test_train_ratio=0.0)
        oracle = stats.ttest_rel(a.accuracies, b.accuracies).statistic
        worst = max(worst, abs(ours.t - oracle))

    # correction factor for J=100, k=10 is exactly 1/100 + 1/9
    diffs = rng.normal(0.01, 0.02, 100)
    a = CVResult("d", "a", np.clip(0.5 + diffs, 0, 1), 10, 10, 100, "g", np.zeros(100))
    b = CVResult("d", "b", np.full(100, 0.5), 10, 10, 100, "g", np.zeros(100))
    out = corrected_t(a, b)
    d = a.accuracies - b.accuracies
    factor_exact = out.t == d.mean() / math.sqrt((1 / 100 + 1 / 9) * d.var(ddof=1))
    ok = worst <= 1e-10 and factor_exact
    report(
        5,
        ok,
        f"corrected t matches classical oracle (worst {worst:.1e}); "
        f"J=100,k=10 factor exactly 1/100 + 1/9: {factor_exact}",
    )


def _cv_mean(dataset_name, builder, seed=1234) -> float:
    d = load_uci(dataset_name)
    plan = stratified_folds(d, 10, 10, seed)
    res = run_cv(d, builder, plan, dataset_name, "m")
    return 100.0 * res.mean


def test_criterion_06a_segment_band():
    mean = _cv_mean(
        "segment",
        lambda train, seed: build_nd(
            train, SubsetSelector("random_pair"), LOGISTIC, seed
        ),
    )
    ok = 91.0 <= mean <= 97.0
    report(6, ok, f"segment single RPND/logistic 10x10 mean {mean:.2f} in [91, 97] "
                  f"(paper 94.02)")


def test_criterion_06b_pendigits_band():
    mean = _cv_mean(
        "pendigits",
        lambda train, seed: build_nd(
            train, SubsetSelector("random_pair"), TreeParams(), seed
        ),
    )
    ok = 92.9 <= mean <= 98.9
    report(6, ok, f"pendigits single RPND/C4.5 10x10 mean {mean:.2f} in [92.9, 98.9] "
                  f"(paper 95.92)")


def test_criterion_06c_vowel_bagged_gap():
    means = {}
    for strategy in ("random_pair", "random"):
        means[strategy] = _cv_mean(
            "vowel",
            lambda train, seed, s=strategy: build_bagged_ensemble(
                train, SubsetSelector(s), LOGISTIC, 10, seed
            ),
        )
    gap = means["random_pair"] - means["random"]
    ok = gap >= 4.0
    report(
        6,
        ok,
        f"vowel bagged RPND {means['random_pair']:.2f} vs bagged ND "
        f"{means['random']:.2f}: gap {gap:.2f} >= 4 (paper 89.76 vs 78.30)",
    )


def test_criterion_07_determinism_vs_variety():
    d = gaussian_dataset(
        np.random.default_rng(7).normal(size=(6, 3)) * 3.0, per_class=12, seed=8
    )
    ids = list(range(6))
    first = select_centroid(ids, d)
    stable = all(
        select_centroid(ids, d).as_partition() == first.as_partition()
        for _ in range(99)
    )
    roots = set()
    for seed in range(100):
        nd = build_nd(
            d, SubsetSelector("random_pair"), LogisticParams(), seed,
            structure_only=True,
        )
        roots.add(
            frozenset(
                (
                    frozenset(nd.root.left.class_subset),
                    frozenset(nd.root.right.class_subset),
                )
            )
        )
    ok = stable and len(roots) >= 3
    report(
        7,
        ok,
        f"NDBC split identical across 100 calls: {stable}; random-pair root "
        f"partitions over 100 seeds: {len(roots)} >= 3",
    )


def test_criterion_08_subset_proportions():
    names = ["zoo", "glass", "vowel", "segment", "optdigits", "pendigits"]
    datasets = [load_uci(n) for n in names]
    assert all(len(d.classes_present()) >= 5 for d in datasets)
    mean = measure_subset_proportions(
        datasets,
        SubsetSelector("random_pair", subsample_cap=500),
        LogisticParams(),
        trees_per_dataset=20,
        seed=808,
    )
    ok = 0.25 <= mean <= 0.45
    report(
        8,
        ok,
        f"mean smaller-subset share over 6 UCI datasets x 20 trees: "
        f"{mean:.3f} in [0.25, 0.45] (paper: ~1/3)",
    )


def test_criterion_09_split_census_bounds():
    zoo = load_uci("zoo")
    c = len(zoo.classes_present())
    census_a = enumerate_splits(zoo, zoo.classes_present(), LogisticParams(), cap=30, seed=3)
    census_b = enumerate_splits(zoo, zoo.classes_present(), LogisticParams(), cap=30, seed=3)
    reversed_ids = list(reversed(zoo.classes_present()))
    census_c = enumerate_splits(zoo, reversed_ids, LogisticParams(), cap=30, seed=3)
    bound = math.comb(c, 2)
    ok = (
        1 <= census_a.distinct <= bound
        and census_a.partitions == census_b.partitions == census_c.partitions
    )
    report(
        9,
        ok,
        f"zoo census: {census_a.distinct} distinct splits <= C({c},2)={bound}, "
        f"invariant to evaluation order",
    )


def test_criterion_10_relative_training_cost():
    names = ["zoo", "vowel", "segment", "pendigits"]  # 101 to 10992 instances
    ratios = {}
    for name in names:
        d = load_uci(name)
        times = {}
        for strategy in ("random_pair", "random"):
            best = math.inf
            for rep in range(3):
                started = time.perf_counter()
                build_nd(d, SubsetSelector(strategy), LOGISTIC, seed=rep)
                best = min(best, time.perf_counter() - started)
            times[strategy] = best
        ratios[name] = times["random_pair"] / times["random"]
    ok = all(r <= 4.0 for r in ratios.values())
    detail = ", ".join(f"{n}: {r:.2f}x" for n, r in ratios.items())
    report(10, ok, f"RPND/ND single-tree training time ratios <= 4: {detail}")


def test_criterion_11_logistic_gradient_check():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 30))
        p = int(rng.integers(2, 12))
        X = rng.normal(size=(n, p)) * rng.uniform(0.5, 3.0)
        t = rng.integers(0, 2, n).astype(float)
        w = rng.uniform(0.2, 2.0, n)
        ridge = float(rng.uniform(1e-6, 1e-1))
        beta = rng.normal(size=p + 1)
        analytic = penalized_nll_grad(beta, X, t, w, ridge)
        numeric = np.zeros_like(beta)
        h = 1e-6
        for j in range(beta.size):
            up, dn = beta.copy(), beta.copy()
            up[j] += h
            dn[j] -= h
            numeric[j] = (
                penalized_nll(up, X, t, w, ridge) - penalized_nll(dn, X, t, w, ridge)
            ) / (2 * h)
        scale = np.maximum(np.abs(numeric), 1e-8)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / scale)))
    ok = worst <= 1e-4
    report(11, ok, f"logistic gradient vs central differences on 50 problems "
                   f"(worst rel err {worst:.2e})")
